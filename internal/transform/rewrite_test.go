package transform

import (
	"strings"
	"testing"

	"thorin/internal/ir"
)

// TestRebuildExhaustive feeds a representative primop of every OpKind
// through Rebuild and requires it to succeed: a kind added to the IR without
// a Rebuild case would silently poison ReplaceUses (and with it cleanup,
// mem2reg and closure conversion) on the first program that uses it. The
// loop bounds itself by String(): every named kind must have a builder here.
func TestRebuildExhaustive(t *testing.T) {
	w := ir.NewWorld()
	i64 := w.PrimType(ir.PrimI64)
	tup := w.TupleType(i64, i64)
	ptr := w.PtrType(i64)
	arr := w.PtrType(w.IndefArrayType(i64))
	f := w.Continuation(w.FnType(w.MemType(), i64, i64, w.BoolType(), tup, ptr, arr), "f")
	mem, a, b := f.Param(0), f.Param(1), f.Param(2)
	cond, agg, p, ap := f.Param(3), f.Param(4), f.Param(5), f.Param(6)
	g := w.Continuation(w.FnType(w.MemType()), "g")

	builders := map[ir.OpKind]func() ir.Def{
		ir.OpSelect:  func() ir.Def { return w.Select(cond, a, b) },
		ir.OpTuple:   func() ir.Def { return w.Tuple(a, b) },
		ir.OpExtract: func() ir.Def { return w.ExtractAt(agg, 0) },
		ir.OpInsert:  func() ir.Def { return w.Insert(agg, w.LitI64(0), a) },
		ir.OpCast:    func() ir.Def { return w.Cast(w.PrimType(ir.PrimI32), a) },
		ir.OpBitcast: func() ir.Def { return w.Bitcast(w.PrimType(ir.PrimF64), a) },
		ir.OpSlot:    func() ir.Def { return w.Slot(mem, i64) },
		ir.OpAlloc:   func() ir.Def { return w.Alloc(mem, i64, a) },
		ir.OpLoad:    func() ir.Def { return w.Load(mem, p) },
		ir.OpStore:   func() ir.Def { return w.Store(mem, p, a) },
		ir.OpLea:     func() ir.Def { return w.Lea(ap, a) },
		ir.OpALen:    func() ir.Def { return w.ALen(ap) },
		ir.OpGlobal:  func() ir.Def { return w.Global(w.LitI64(0)) },
		ir.OpClosure: func() ir.Def { return w.Closure(g.FnType(), g, a) },
		ir.OpRun:     func() ir.Def { return w.Run(a) },
		ir.OpHlt:     func() ir.Def { return w.Hlt(a) },
	}

	for k := ir.OpInvalid + 1; k.String() != "op?"; k++ {
		build := builders[k]
		switch {
		case k.IsArith():
			build = func() ir.Def { return w.Arith(k, a, b) }
		case k.IsCmp():
			build = func() ir.Def { return w.Cmp(k, a, b) }
		}
		if build == nil {
			t.Fatalf("%s: no builder in this test — new OpKind without Rebuild coverage?", k)
		}
		d := build()
		po, ok := d.(*ir.PrimOp)
		if !ok {
			t.Fatalf("%s: builder folded to %T, want *ir.PrimOp", k, d)
		}
		if po.OpKind() != k {
			t.Fatalf("%s: builder produced kind %s", k, po.OpKind())
		}
		nd, err := Rebuild(w, po, po.Ops())
		if err != nil {
			t.Fatalf("Rebuild(%s): %v", k, err)
		}
		if nd == nil {
			t.Fatalf("Rebuild(%s): nil def without error", k)
		}
		if nd.Type() != po.Type() {
			t.Fatalf("Rebuild(%s): type changed %s → %s", k, po.Type(), nd.Type())
		}
	}

	// An unknown kind must surface as an error naming the kind, not a panic:
	// that is the PassError-compatible path the pass manager attributes to
	// the running pass.
	raw := w.RawPrimOp(ir.OpInvalid, i64, a)
	if _, err := Rebuild(w, raw, raw.Ops()); err == nil {
		t.Fatal("Rebuild(OpInvalid): expected error, got none")
	} else if !strings.Contains(err.Error(), "cannot rebuild") {
		t.Fatalf("Rebuild(OpInvalid): unexpected error %v", err)
	}

	// ReplaceUses must propagate the failure instead of panicking: build a
	// user chain ending in the raw op and replace its operand.
	if err := ReplaceUses(w, a, b); err == nil {
		t.Fatal("ReplaceUses through an OpInvalid user: expected error, got none")
	}
}
