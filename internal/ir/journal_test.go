package ir

import "testing"

func journalWorld() (*World, *Continuation) {
	w := NewWorld()
	main := w.Continuation(w.FnType(w.MemType(), w.FnType(w.MemType())), "main")
	main.SetExtern(true)
	return w, main
}

// advances runs f and reports whether it moved the rewrite generation.
func advances(w *World, f func()) bool {
	gen := w.RewriteGen()
	f()
	return w.RewriteGen() > gen
}

// The rewrite generation is the one change signal: creating a
// continuation, Jump, Unset and RemoveContinuations each advance it.
func TestJournalCreationAndJump(t *testing.T) {
	w, main := journalWorld()
	var f *Continuation
	if !advances(w, func() { f = w.Continuation(w.FnType(w.MemType()), "f") }) {
		t.Error("creating a continuation must advance the rewrite generation")
	}
	if !advances(w, func() { f.Jump(main.Param(1), main.Param(0)) }) {
		t.Error("Jump must advance the rewrite generation")
	}
	if !advances(w, func() { f.Jump(main.Param(1), main.Param(0)) }) {
		t.Error("re-Jump must advance the rewrite generation")
	}
}

func TestJournalUnsetAndRemove(t *testing.T) {
	w, main := journalWorld()
	f := w.Continuation(w.FnType(w.MemType()), "f")
	f.Jump(main.Param(1), main.Param(0))
	if !advances(w, f.Unset) {
		t.Error("Unset must advance the rewrite generation")
	}
	if advances(w, f.Unset) {
		t.Error("Unset of a bodyless continuation must not advance the rewrite generation")
	}
	remove := func() { w.RemoveContinuations([]*Continuation{f}) }
	if !advances(w, remove) {
		t.Error("RemoveContinuations must advance the rewrite generation")
	}
	if advances(w, remove) {
		t.Error("removing an already removed continuation must not advance the rewrite generation")
	}
}

func TestConsHitDoesNotAdvanceGeneration(t *testing.T) {
	w, _ := journalWorld()
	i64 := w.FnType(w.MemType(), w.PrimType(PrimI64), w.FnType(w.MemType()))
	f := w.Continuation(i64, "f")
	a, b := w.LitI64(3), f.Param(1)
	x := w.Arith(OpAdd, b, a)
	gen := w.RewriteGen()
	if y := w.Arith(OpAdd, b, a); y != x {
		t.Fatal("expected cons hit")
	}
	if w.RewriteGen() != gen {
		t.Error("a cons hit must not advance the rewrite generation")
	}
	if w.LitI64(99); w.RewriteGen() != gen {
		t.Error("literal interning must not advance the rewrite generation")
	}
}
