package transform

import (
	"testing"

	"thorin/internal/ir"
)

func TestCleanupKillsDeadStore(t *testing.T) {
	// store a x; store b x; store a y — the first store to a is dead (no
	// read of a in between; the store to b cannot observe it), the store
	// to b survives, and the final load of a must see y.
	w := ir.NewWorld()
	i64 := w.PrimType(ir.PrimI64)
	mem := w.MemType()
	retT := w.FnType(mem, i64)
	f := w.Continuation(w.FnType(mem, i64, i64, retT), "h")
	f.SetExtern(true)
	m0, x, y, ret := f.Param(0), f.Param(1), f.Param(2), f.Param(3)
	sa := w.Slot(m0, i64)
	ma, pa := w.ExtractAt(sa, 0), w.ExtractAt(sa, 1)
	sb := w.Slot(ma, i64)
	mb, pb := w.ExtractAt(sb, 0), w.ExtractAt(sb, 1)
	st1 := w.Store(mb, pa, x) // dead: overwritten by st3 before any read of a
	st2 := w.Store(st1, pb, x)
	st3 := w.Store(st2, pa, y)
	ld := w.Load(st3, pa)
	f.Jump(ret, w.ExtractAt(ld, 0), w.ExtractAt(ld, 1))

	st := optimize(t, w, "cleanup").Cleanup
	if st.DeadStores != 1 {
		t.Fatalf("DeadStores=%d, want 1", st.DeadStores)
	}
	if err := ir.Verify(w); err != nil {
		t.Fatal(err)
	}
	// Walk the live chain from the jump's mem argument (the strict
	// traceMemChain refuses it here: the orphaned dead store still sits in
	// a use list until the next GC, breaking its single-use discipline).
	stores := 0
	cur := f.Arg(0)
	for {
		if ex := ir.AsPrimOp(cur, ir.OpExtract); ex != nil {
			cur = ex.Op(0)
			continue
		}
		p, _ := cur.(*ir.PrimOp)
		if p == nil {
			break
		}
		if p.OpKind() == ir.OpStore {
			stores++
			if p.Op(2) == x && p.Op(1) != pb {
				t.Fatalf("the dead store of x through a survived: %v", p)
			}
		}
		cur = p.Op(0)
	}
	if stores != 2 {
		t.Fatalf("chain has %d stores after DSE, want 2", stores)
	}
}

func TestCleanupKeepsStoreReadBeforeOverwrite(t *testing.T) {
	// store a x; load a; store a y — the load may observe x, so the first
	// store must survive.
	w := ir.NewWorld()
	i64 := w.PrimType(ir.PrimI64)
	mem := w.MemType()
	retT := w.FnType(mem, i64)
	f := w.Continuation(w.FnType(mem, i64, i64, retT), "k")
	f.SetExtern(true)
	m0, x, y, ret := f.Param(0), f.Param(1), f.Param(2), f.Param(3)
	sa := w.Slot(m0, i64)
	ma, pa := w.ExtractAt(sa, 0), w.ExtractAt(sa, 1)
	st1 := w.Store(ma, pa, x)
	ld := w.Load(st1, pa)
	lm, lv := w.ExtractAt(ld, 0), w.ExtractAt(ld, 1)
	st2 := w.Store(lm, pa, y)
	ld2 := w.Load(st2, pa)
	sum := w.Arith(ir.OpAdd, lv, w.ExtractAt(ld2, 1))
	f.Jump(ret, w.ExtractAt(ld2, 0), sum)

	if st := optimize(t, w, "cleanup").Cleanup; st.DeadStores != 0 {
		t.Fatalf("DeadStores=%d, want 0 — the intervening load reads the store", st.DeadStores)
	}
	if err := ir.Verify(w); err != nil {
		t.Fatal(err)
	}
}
