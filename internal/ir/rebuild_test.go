package ir

import "testing"

// allKindsWorld builds a world whose extern f passes one primop of every
// named OpKind, in enum order, to the bodiless continuation sink. The loop
// bounds itself by String(), so a kind added to ops.go without a builder
// here fails by name.
func allKindsWorld(tb testing.TB) *World {
	w := NewWorld()
	i64 := w.PrimType(PrimI64)
	tup := w.TupleType(i64, i64)
	ptr := w.PtrType(i64)
	arr := w.PtrType(w.IndefArrayType(i64))
	f := w.Continuation(w.FnType(w.MemType(), i64, i64, w.BoolType(), tup, ptr, arr), "f")
	f.SetExtern(true)
	mem, a, b := f.Param(0), f.Param(1), f.Param(2)
	cond, agg, p, ap := f.Param(3), f.Param(4), f.Param(5), f.Param(6)
	g := w.Continuation(w.FnType(w.MemType()), "g")

	builders := map[OpKind]func() Def{
		OpSelect:  func() Def { return w.Select(cond, a, b) },
		OpTuple:   func() Def { return w.Tuple(a, b) },
		OpExtract: func() Def { return w.ExtractAt(agg, 0) },
		OpInsert:  func() Def { return w.Insert(agg, w.LitI64(0), a) },
		OpCast:    func() Def { return w.Cast(w.PrimType(PrimI32), a) },
		OpBitcast: func() Def { return w.Bitcast(w.PrimType(PrimF64), a) },
		OpSlot:    func() Def { return w.Slot(mem, i64) },
		OpAlloc:   func() Def { return w.Alloc(mem, i64, a) },
		OpLoad:    func() Def { return w.Load(mem, p) },
		OpStore:   func() Def { return w.Store(mem, p, a) },
		OpLea:     func() Def { return w.Lea(ap, a) },
		OpALen:    func() Def { return w.ALen(ap) },
		OpGlobal:  func() Def { return w.Global(w.LitI64(0)) },
		OpClosure: func() Def { return w.Closure(g.FnType(), g, a) },
		OpRun:     func() Def { return w.Run(a) },
		OpHlt:     func() Def { return w.Hlt(a) },
	}
	var args []Def
	var types []Type
	for k := OpInvalid + 1; k.String() != "op?"; k++ {
		build := builders[k]
		switch {
		case k.IsArith():
			build = func() Def { return w.Arith(k, a, b) }
		case k.IsCmp():
			build = func() Def { return w.Cmp(k, a, b) }
		}
		if build == nil {
			tb.Fatalf("%s: no builder in allKindsWorld", k)
		}
		d := build()
		if po, ok := d.(*PrimOp); !ok || po.OpKind() != k {
			tb.Fatalf("%s: builder produced %v, want a %s primop", k, d, k)
		}
		args = append(args, d)
		types = append(types, d.Type())
	}
	f.Jump(w.Continuation(w.FnType(types...), "sink"), args...)
	return w
}

// TestEveryOpKindRoundTrips prints and parses back a primop of every named
// kind and rebuilds each one through World.Rebuild, in the built world and
// in the parsed one: the printer, the parser and the one constructor by
// kind must all cover the whole enum.
func TestEveryOpKindRoundTrips(t *testing.T) {
	w1 := allKindsWorld(t)
	if err := Verify(w1); err != nil {
		t.Fatal(err)
	}
	w2 := reparseFixedPoint(t, w1)
	built, parsed := w1.Find("f").Args(), w2.Find("f").Args()
	if len(parsed) != len(built) {
		t.Fatalf("parsed f passes %d values, built f %d", len(parsed), len(built))
	}
	for i, d := range built {
		po := d.(*PrimOp)
		k := po.OpKind()
		if pp, ok := parsed[i].(*PrimOp); !ok || pp.OpKind() != k || pp.Type().String() != po.Type().String() {
			t.Errorf("%s: parsed back as %v of type %s, want %s of type %s", k, parsed[i], parsed[i].Type(), k, po.Type())
		}
		for _, src := range []Def{po, parsed[i]} {
			src := src.(*PrimOp)
			nd, err := src.World().Rebuild(k, src.Type(), src.Ops())
			if err != nil {
				t.Errorf("Rebuild(%s): %v", k, err)
				continue
			}
			if np, ok := nd.(*PrimOp); !ok || np.OpKind() != k || nd.Type() != src.Type() {
				t.Errorf("Rebuild(%s) = %v of type %s, want %s of type %s", k, nd, nd.Type(), k, src.Type())
			}
		}
	}
}

// TestRebuildRejectsMalformed checks the errors World.Rebuild returns in
// place of constructor panics: a wrong operand count, a result type of the
// wrong shape and an unknown kind.
func TestRebuildRejectsMalformed(t *testing.T) {
	w := NewWorld()
	i64 := w.PrimType(PrimI64)
	f := w.Continuation(w.FnType(w.MemType(), i64), "f")
	mem, n := f.Param(0), f.Param(1)
	cases := []struct {
		k   OpKind
		ty  Type
		ops []Def
	}{
		{OpAdd, i64, []Def{n}},
		{OpClosure, w.FnType(), nil},
		{OpCast, w.TupleType(i64), []Def{n}},
		{OpSlot, w.TupleType(i64, w.PtrType(i64)), []Def{mem}},
		{OpSlot, w.TupleType(w.MemType(), i64), []Def{mem}},
		{OpAlloc, w.TupleType(w.MemType(), w.PtrType(i64)), []Def{mem, n}},
		{OpClosure, i64, []Def{f}},
		{OpInvalid, i64, []Def{n}},
	}
	for _, c := range cases {
		if d, err := w.Rebuild(c.k, c.ty, c.ops); err == nil {
			t.Errorf("Rebuild(%s, %s, %d ops) = %v, want an error", c.k, c.ty, len(c.ops), d)
		}
	}
}

// FuzzParseWorld feeds arbitrary text to ParseWorld. The parser reads
// thorinc's .thorin inputs and the daemon's on-disk module artifacts, so it
// must never panic, and whatever it accepts must print and parse back to a
// fixed point.
func FuzzParseWorld(f *testing.F) {
	f.Add(DumpString(allKindsWorld(f)))
	f.Fuzz(func(t *testing.T, src string) {
		if w, err := ParseWorld(src); err == nil {
			reparseFixedPoint(t, w)
		}
	})
}

// reparseFixedPoint parses the dump of w and requires dump → parse → dump
// to reach a fixed point from there (the first reparse may rename values,
// since printed names carry gids). It returns the first reparsed world.
func reparseFixedPoint(t *testing.T, w *World) *World {
	t.Helper()
	d1 := DumpString(w)
	w2, err := ParseWorld(d1)
	if err != nil {
		t.Fatalf("parse of dump failed: %v\n%s", err, d1)
	}
	d2 := DumpString(w2)
	w3, err := ParseWorld(d2)
	if err != nil {
		t.Fatalf("second parse failed: %v\n%s", err, d2)
	}
	if d3 := DumpString(w3); d2 != d3 {
		t.Fatalf("dump∘parse is not a fixed point:\n--- d2:\n%s\n--- d3:\n%s", d2, d3)
	}
	return w2
}
