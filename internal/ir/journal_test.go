package ir

import "testing"

func journalWorld() (*World, *Continuation) {
	w := NewWorld()
	main := w.Continuation(w.FnType(w.MemType(), w.FnType(w.MemType())), "main")
	main.SetExtern(true)
	return w, main
}

func TestJournalCreationAndJump(t *testing.T) {
	w, main := journalWorld()
	if got := w.DrainDirty(); len(got) != 1 || got[0] != main {
		t.Fatalf("drain after creation = %v, want [main]", got)
	}
	if got := w.DrainDirty(); len(got) != 0 {
		t.Fatalf("second drain = %v, want empty", got)
	}

	gen := w.RewriteGen()
	main.Jump(main.Param(1), main.Param(0))
	if w.RewriteGen() <= gen {
		t.Error("Jump must advance the rewrite generation")
	}
	if got := w.DrainDirty(); len(got) != 1 || got[0] != main {
		t.Fatalf("drain after Jump = %v, want [main]", got)
	}
	if main.LastTouched() == 0 {
		t.Error("Jump must stamp the jumping continuation")
	}
}

func TestJournalStampsOperandsOnNewUser(t *testing.T) {
	w, main := journalWorld()
	main.Jump(main.Param(1), main.Param(0))
	w.DrainDirty()

	// A new user of main's param stamps the param: any scope containing it
	// must revalidate, because the new node joined its use-closure.
	f := w.Continuation(w.FnType(w.MemType()), "f")
	before := main.Param(0).LastTouched()
	f.Jump(main.Param(1), main.Param(0))
	if after := main.Param(0).LastTouched(); after <= before {
		t.Errorf("param stamp %d -> %d, want increase on new user", before, after)
	}
	drained := w.DrainDirty()
	if len(drained) != 1 || drained[0] != f {
		t.Fatalf("drain = %v, want [f] (creation and jump events dedup)", drained)
	}
}

func TestJournalUnsetAndRemove(t *testing.T) {
	w, main := journalWorld()
	f := w.Continuation(w.FnType(w.MemType()), "f")
	f.Jump(main.Param(1), main.Param(0))
	main.Jump(f)
	w.DrainDirty()

	main.Jump(main.Param(1), main.Param(0))
	f.Unset()
	w.RemoveContinuations([]*Continuation{f})
	drained := w.DrainDirty()
	want := map[*Continuation]bool{main: true, f: true}
	if len(drained) != 2 || !want[drained[0]] || !want[drained[1]] || drained[0] == drained[1] {
		t.Fatalf("drain after unset/remove = %v, want {main, f}", drained)
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
