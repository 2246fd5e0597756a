package transform

import (
	"testing"

	"thorin/internal/analysis"
	"thorin/internal/ir"
)

// buildDouble creates: double(mem, x, ret) = ret(mem, x*2), extern.
func buildDouble(w *ir.World) *ir.Continuation {
	i64 := w.PrimType(ir.PrimI64)
	mem := w.MemType()
	ret := w.FnType(mem, i64)
	d := w.Continuation(w.FnType(mem, i64, ret), "double")
	d.Jump(d.Param(2), d.Param(0), w.Arith(ir.OpMul, d.Param(1), w.LitI64(2)))
	return d
}

// buildApply creates the higher-order apply(mem, f, x, ret) = f(mem, x, ret).
func buildApply(w *ir.World) *ir.Continuation {
	i64 := w.PrimType(ir.PrimI64)
	mem := w.MemType()
	ret := w.FnType(mem, i64)
	fT := w.FnType(mem, i64, ret)
	a := w.Continuation(w.FnType(mem, fT, i64, ret), "apply")
	a.Jump(a.Param(1), a.Param(0), a.Param(2), a.Param(3))
	return a
}

func TestDropSpecializesParam(t *testing.T) {
	w := ir.NewWorld()
	d := buildDouble(w)
	// Specialize x := 21: the body folds to ret(mem, 42).
	spec, err := Drop(analysis.NewScope(d), []ir.Def{nil, w.LitI64(21), nil})
	if err != nil {
		t.Fatal(err)
	}
	if spec.NumParams() != 2 {
		t.Fatalf("specialized cont has %d params, want 2", spec.NumParams())
	}
	if v, ok := ir.LitValue(spec.Arg(1)); !ok || v != 42 {
		t.Fatalf("specialized body must fold to literal 42, got %v", spec.Arg(1))
	}
	if spec.Callee() != spec.Param(1) {
		t.Fatal("specialized body must jump its (renumbered) ret param")
	}
	if err := ir.Verify(w); err != nil {
		t.Fatal(err)
	}
}

func TestMangleRewiresTailRecursion(t *testing.T) {
	// sum(mem, i, acc, k):
	//   branch(i < 10, body, done)
	//   body: sum(mem, i+1, acc+i, k)   — same k: becomes a self-loop
	//   done: k(mem, acc)
	w := ir.NewWorld()
	i64 := w.PrimType(ir.PrimI64)
	mem := w.MemType()
	retT := w.FnType(mem, i64)
	sum := w.Continuation(w.FnType(mem, i64, i64, retT), "sum")
	body := w.Continuation(w.FnType(mem), "body")
	done := w.Continuation(w.FnType(mem), "done")
	m, i, acc, k := sum.Param(0), sum.Param(1), sum.Param(2), sum.Param(3)
	sum.Branch(m, w.Cmp(ir.OpLt, i, w.LitI64(10)), body, done)
	body.Jump(sum, body.Param(0), w.Arith(ir.OpAdd, i, w.LitI64(1)), w.Arith(ir.OpAdd, acc, i), k)
	done.Jump(k, done.Param(0), acc)

	// Specialize k to a concrete continuation.
	exit := w.Continuation(retT, "exit")
	exit.Jump(exit.Param(0).World().PrintI64(), exit.Param(0), exit.Param(1), w.Continuation(w.FnType(mem), "end"))

	spec, err := Drop(analysis.NewScope(sum), []ir.Def{nil, nil, nil, exit})
	if err != nil {
		t.Fatal(err)
	}
	if spec.NumParams() != 3 {
		t.Fatalf("spec params = %d, want 3", spec.NumParams())
	}
	// The recursive call inside the copy must target the specialized entry.
	s := analysis.NewScope(spec)
	found := false
	for _, c := range s.Conts {
		if c.Callee() == spec {
			found = true
			// And it must not pass the dropped continuation again.
			if c.NumArgs() != 3 {
				t.Errorf("rewired recursive call has %d args, want 3", c.NumArgs())
			}
		}
		if c.Callee() == sum {
			t.Error("specialized scope must not call the general version")
		}
	}
	if !found {
		t.Error("tail recursion was not rewired to the specialized entry")
	}
	if err := ir.Verify(w); err != nil {
		t.Fatal(err)
	}
}

func TestInlineCall(t *testing.T) {
	w := ir.NewWorld()
	d := buildDouble(w)
	i64 := w.PrimType(ir.PrimI64)
	mem := w.MemType()
	retT := w.FnType(mem, i64)
	main := w.Continuation(w.FnType(mem, retT), "main")
	main.SetExtern(true)
	k := w.Continuation(w.FnType(mem, i64), "k")
	main.Jump(d, main.Param(0), w.LitI64(7), k)
	k.Jump(main.Param(1), k.Param(0), k.Param(1))

	if !inlineCallWith(main, nil) {
		t.Fatal("inline failed")
	}
	// After inlining, main jumps a parameterless copy whose body goes
	// straight to k with the folded constant.
	inlined, ok := main.Callee().(*ir.Continuation)
	if !ok || inlined.NumParams() != 0 {
		t.Fatalf("callee after inline = %v", main.Callee())
	}
	if inlined.Callee() != k {
		t.Fatalf("inlined body must jump k, got %v", inlined.Callee())
	}
	if v, _ := ir.LitValue(inlined.Arg(1)); v != 14 {
		t.Fatalf("inlined body must yield 14, got %v", inlined.Arg(1))
	}
	if err := ir.Verify(w); err != nil {
		t.Fatal(err)
	}
}

func TestLowerToCFF(t *testing.T) {
	w := ir.NewWorld()
	d := buildDouble(w)
	a := buildApply(w)
	i64 := w.PrimType(ir.PrimI64)
	mem := w.MemType()
	retT := w.FnType(mem, i64)
	main := w.Continuation(w.FnType(mem, retT), "main")
	main.SetExtern(true)
	k := w.Continuation(w.FnType(mem, i64), "k")
	main.Jump(a, main.Param(0), d, w.LitI64(5), k)
	k.Jump(main.Param(1), k.Param(0), k.Param(1))

	if ir.IsCFFType(a.FnType()) {
		t.Fatal("apply must violate CFF before lowering")
	}
	stats := optimize(t, w, "cff").CFF
	if stats.Specialized == 0 {
		t.Fatal("no call was specialized")
	}
	if !InCFF(w) {
		t.Fatalf("world not in CFF; offenders: %v", HigherOrderConts(w))
	}
	// The generic apply must be gone.
	if w.Find("apply") != nil {
		t.Error("generic apply should be unreachable and removed")
	}
	if err := ir.Verify(w); err != nil {
		t.Fatal(err)
	}
}

func TestPartialEvalUnrollsPower(t *testing.T) {
	// pow(mem, x, n, ret) = n == 0 ? ret(1) : x * pow(x, n-1)
	w := ir.NewWorld()
	i64 := w.PrimType(ir.PrimI64)
	mem := w.MemType()
	retT := w.FnType(mem, i64)
	powT := w.FnType(mem, i64, i64, retT)
	pow := w.Continuation(powT, "pow")
	pow.AlwaysInline = true
	thenB := w.Continuation(w.FnType(mem), "then")
	elseB := w.Continuation(w.FnType(mem), "else")
	mulK := w.Continuation(w.FnType(mem, i64), "mulk")
	m, x, n, ret := pow.Param(0), pow.Param(1), pow.Param(2), pow.Param(3)
	pow.Branch(m, w.Cmp(ir.OpEq, n, w.LitI64(0)), thenB, elseB)
	thenB.Jump(ret, thenB.Param(0), w.LitI64(1))
	elseB.Jump(pow, elseB.Param(0), x, w.Arith(ir.OpSub, n, w.LitI64(1)), mulK)
	mulK.Jump(ret, mulK.Param(0), w.Arith(ir.OpMul, x, mulK.Param(1)))

	main := w.Continuation(w.FnType(mem, retT), "main")
	main.SetExtern(true)
	k := w.Continuation(w.FnType(mem, i64), "k")
	main.Jump(pow, main.Param(0), w.LitI64(3), w.LitI64(4), k)
	k.Jump(main.Param(1), k.Param(0), k.Param(1))

	if optimize(t, w, "pe").PE.Specialized == 0 {
		t.Fatal("partial evaluation did nothing")
	}
	optimize(t, w, "cleanup,inline-once,cleanup")

	// 3^4 = 81 must be computable; walk main's scope and require that no
	// call to the general pow remains and the branch conditions are gone.
	s := analysis.NewScope(main)
	for _, c := range s.Conts {
		if c.Callee() == pow {
			t.Error("residual call to general pow after PE")
		}
	}
	if err := ir.Verify(w); err != nil {
		t.Fatal(err)
	}
}

func TestCleanupRemovesUnreachable(t *testing.T) {
	w := ir.NewWorld()
	d := buildDouble(w)
	dead := buildApply(w) // never called, not extern
	i64 := w.PrimType(ir.PrimI64)
	mem := w.MemType()
	retT := w.FnType(mem, i64)
	main := w.Continuation(w.FnType(mem, retT), "main")
	main.SetExtern(true)
	main.Jump(d, main.Param(0), w.LitI64(1), main.Param(1))

	before := len(w.Continuations())
	stats := optimize(t, w, "cleanup").Cleanup
	if stats.RemovedConts == 0 {
		t.Fatal("cleanup removed nothing")
	}
	if w.Find("apply") != nil {
		t.Error("dead apply must be removed")
	}
	if w.Find("double") == nil || w.Find("main") == nil {
		t.Error("reachable continuations must survive")
	}
	if len(w.Continuations()) >= before {
		t.Error("continuation count must shrink")
	}
	_ = dead
}

func TestCleanupEtaReduces(t *testing.T) {
	w := ir.NewWorld()
	i64 := w.PrimType(ir.PrimI64)
	mem := w.MemType()
	retT := w.FnType(mem, i64)
	d := buildDouble(w)
	// fwd(mem, x, ret) = double(mem, x, ret) — an eta-redex.
	fwd := w.Continuation(w.FnType(mem, i64, retT), "fwd")
	fwd.Jump(d, fwd.Param(0), fwd.Param(1), fwd.Param(2))
	main := w.Continuation(w.FnType(mem, retT), "main")
	main.SetExtern(true)
	main.Jump(fwd, main.Param(0), w.LitI64(3), main.Param(1))

	stats := optimize(t, w, "cleanup").Cleanup
	if stats.EtaReduced == 0 {
		t.Fatal("eta reduction did not fire")
	}
	if main.Callee() != d {
		t.Fatalf("main must now call double directly, got %v", main.Callee())
	}
	if err := ir.Verify(w); err != nil {
		t.Fatal(err)
	}
}

func TestCleanupEtaKeepsCapturedParams(t *testing.T) {
	// k(mem, v) = g(mem, v) but g's body ALSO uses k's v — unsafe to reduce.
	w := ir.NewWorld()
	i64 := w.PrimType(ir.PrimI64)
	mem := w.MemType()
	g := w.Continuation(w.FnType(mem, i64), "g")
	k := w.Continuation(w.FnType(mem, i64), "k")
	sink := w.Continuation(w.FnType(mem, i64, i64), "sink")
	sink.SetExtern(true)
	k.Jump(g, k.Param(0), k.Param(1))
	g.Jump(sink, g.Param(0), g.Param(1), k.Param(1)) // captures k's param!
	caller := w.Continuation(w.FnType(mem), "caller")
	caller.SetExtern(true)
	caller.Jump(k, caller.Param(0), w.LitI64(9))

	optimize(t, w, "cleanup")
	if caller.Callee() != k {
		t.Fatal("eta reduction must not fire when the callee captures the params")
	}
}

func TestCleanupDeadParams(t *testing.T) {
	w := ir.NewWorld()
	i64 := w.PrimType(ir.PrimI64)
	mem := w.MemType()
	retT := w.FnType(mem, i64)
	// f(mem, unused, x, ret) = ret(mem, x)
	f := w.Continuation(w.FnType(mem, i64, i64, retT), "f")
	f.Jump(f.Param(3), f.Param(0), f.Param(2))
	main := w.Continuation(w.FnType(mem, retT), "main")
	main.SetExtern(true)
	main.Jump(f, main.Param(0), w.LitI64(99), w.LitI64(5), main.Param(1))

	stats := optimize(t, w, "cleanup").Cleanup
	if stats.DeadParams == 0 {
		t.Fatal("dead param elimination did not fire")
	}
	callee := main.Callee().(*ir.Continuation)
	if callee.NumParams() != 3 {
		t.Fatalf("callee still has %d params, want 3", callee.NumParams())
	}
	if err := ir.Verify(w); err != nil {
		t.Fatal(err)
	}
}

func TestMem2RegStraightLine(t *testing.T) {
	// f(mem, n, ret): s := slot; store s, n*2; v := load s; ret(mem, v)
	w := ir.NewWorld()
	i64 := w.PrimType(ir.PrimI64)
	mem := w.MemType()
	retT := w.FnType(mem, i64)
	f := w.Continuation(w.FnType(mem, i64, retT), "f")
	f.SetExtern(true)
	m0 := f.Param(0)
	slot := w.Slot(m0, i64)
	m1, ptr := w.ExtractAt(slot, 0), w.ExtractAt(slot, 1)
	m2 := w.Store(m1, ptr, w.Arith(ir.OpMul, f.Param(1), w.LitI64(2)))
	ld := w.Load(m2, ptr)
	f.Jump(f.Param(2), w.ExtractAt(ld, 0), w.ExtractAt(ld, 1))

	stats := optimize(t, w, "mem2reg").Mem2Reg
	if stats.PromotedSlots != 1 {
		t.Fatalf("promoted %d slots, want 1", stats.PromotedSlots)
	}
	if stats.PhiParams != 0 {
		t.Fatalf("straight-line code needs no φs, got %d", stats.PhiParams)
	}
	// f must now jump ret directly with the computed value and original mem.
	if f.Callee() != f.Param(2) {
		t.Fatalf("f should jump its ret param, got %v", f.Callee())
	}
	if f.Arg(0) != m0 {
		t.Error("mem must flow through unchanged")
	}
	if mul, ok := f.Arg(1).(*ir.PrimOp); !ok || mul.OpKind() != ir.OpMul {
		t.Errorf("returned value must be the stored mul, got %v", f.Arg(1))
	}
	if err := ir.Verify(w); err != nil {
		t.Fatal(err)
	}
}

// buildSlotLoop builds a counting loop that keeps its induction variable in
// a slot — the paper's running example for SSA construction.
func buildSlotLoop(w *ir.World) *ir.Continuation {
	i64 := w.PrimType(ir.PrimI64)
	mem := w.MemType()
	retT := w.FnType(mem, i64)
	f := w.Continuation(w.FnType(mem, i64, retT), "count")
	f.SetExtern(true)
	head := w.Continuation(w.FnType(mem), "head")
	body := w.Continuation(w.FnType(mem), "body")
	done := w.Continuation(w.FnType(mem), "done")

	m0 := f.Param(0)
	slot := w.Slot(m0, i64)
	m1, ptr := w.ExtractAt(slot, 0), w.ExtractAt(slot, 1)
	m2 := w.Store(m1, ptr, w.LitI64(0))
	f.Jump(head, m2)

	hl := w.Load(head.Param(0), ptr)
	hm, hv := w.ExtractAt(hl, 0), w.ExtractAt(hl, 1)
	head.Branch(hm, w.Cmp(ir.OpLt, hv, f.Param(1)), body, done)

	bl := w.Load(body.Param(0), ptr)
	bm, bv := w.ExtractAt(bl, 0), w.ExtractAt(bl, 1)
	bs := w.Store(bm, ptr, w.Arith(ir.OpAdd, bv, w.LitI64(1)))
	body.Jump(head, bs)

	dl := w.Load(done.Param(0), ptr)
	done.Jump(f.Param(2), w.ExtractAt(dl, 0), w.ExtractAt(dl, 1))
	return f
}

func TestMem2RegLoop(t *testing.T) {
	w := ir.NewWorld()
	f := buildSlotLoop(w)
	stats := optimize(t, w, "mem2reg").Mem2Reg
	if stats.PromotedSlots != 1 {
		t.Fatalf("promoted %d slots, want 1", stats.PromotedSlots)
	}
	if stats.PhiParams != 1 {
		t.Fatalf("loop must introduce exactly 1 φ param (at head), got %d", stats.PhiParams)
	}
	if err := ir.Verify(w); err != nil {
		t.Fatal(err)
	}
	// No loads/stores/slots must remain anywhere reachable from f.
	s := analysis.NewScope(f)
	for _, p := range s.ReachablePrimOps() {
		switch p.OpKind() {
		case ir.OpLoad, ir.OpStore, ir.OpSlot:
			t.Errorf("residual %s after promotion", p.OpKind())
		}
	}
}

func TestMem2RegDoesNotPromoteEscaping(t *testing.T) {
	// The slot address is passed to an extern function: must not promote.
	w := ir.NewWorld()
	i64 := w.PrimType(ir.PrimI64)
	mem := w.MemType()
	ptrT := w.PtrType(i64)
	retT := w.FnType(mem, i64)
	sink := w.Continuation(w.FnType(mem, ptrT, w.FnType(mem)), "sink")
	sink.SetExtern(true)

	f := w.Continuation(w.FnType(mem, retT), "f")
	f.SetExtern(true)
	k := w.Continuation(w.FnType(mem), "k")
	slot := w.Slot(f.Param(0), i64)
	m1, ptr := w.ExtractAt(slot, 0), w.ExtractAt(slot, 1)
	f.Jump(sink, m1, ptr, k)
	ldk := w.Load(k.Param(0), ptr)
	k.Jump(f.Param(1), w.ExtractAt(ldk, 0), w.ExtractAt(ldk, 1))

	stats := optimize(t, w, "mem2reg").Mem2Reg
	if stats.PromotedSlots != 0 {
		t.Fatal("escaping slot must not be promoted")
	}
	if err := ir.Verify(w); err != nil {
		t.Fatal(err)
	}
}

func TestClosureConvert(t *testing.T) {
	// main passes a local continuation capturing main's param as a
	// non-return argument to an extern function: a closure must appear.
	w := ir.NewWorld()
	i64 := w.PrimType(ir.PrimI64)
	mem := w.MemType()
	retT := w.FnType(mem, i64)
	fT := w.FnType(mem, i64, retT)
	hof := w.Continuation(w.FnType(mem, fT, retT), "hof")
	hof.SetExtern(true)
	hof.NoInline = true
	kh := w.Continuation(w.FnType(mem, i64), "kh")
	hof.Jump(hof.Param(1), hof.Param(0), w.LitI64(10), kh)
	kh.Jump(hof.Param(2), kh.Param(0), kh.Param(1))

	main := w.Continuation(w.FnType(mem, i64, retT), "main")
	main.SetExtern(true)
	adder := w.Continuation(fT, "adder")
	adder.Jump(adder.Param(2), adder.Param(0),
		w.Arith(ir.OpAdd, adder.Param(1), main.Param(1))) // captures main's param
	main.Jump(hof, main.Param(0), adder, main.Param(2))

	stats := optimize(t, w, "closure").Closure
	if stats.Closures != 1 {
		t.Fatalf("closures = %d, want 1", stats.Closures)
	}
	if stats.Lifted != 1 {
		t.Fatalf("lifted = %d, want 1 (adder captures main's param)", stats.Lifted)
	}
	// main must now pass a Closure primop.
	clo, ok := main.Arg(1).(*ir.PrimOp)
	if !ok || clo.OpKind() != ir.OpClosure {
		t.Fatalf("main's argument must be a closure, got %v", main.Arg(1))
	}
	code, ok := clo.Op(0).(*ir.Continuation)
	if !ok {
		t.Fatal("closure code must be a continuation")
	}
	if !analysis.NewScope(code).TopLevel() {
		t.Error("lifted closure code must be top-level")
	}
	if clo.NumOps() != 2 || clo.Op(1) != main.Param(1) {
		t.Errorf("closure must capture main's param, ops=%v", clo.Ops())
	}
	if err := ir.Verify(w); err != nil {
		t.Fatal(err)
	}
}

func TestClosureConvertLeavesRetConts(t *testing.T) {
	w := ir.NewWorld()
	d := buildDouble(w)
	i64 := w.PrimType(ir.PrimI64)
	mem := w.MemType()
	retT := w.FnType(mem, i64)
	main := w.Continuation(w.FnType(mem, retT), "main")
	main.SetExtern(true)
	k := w.Continuation(w.FnType(mem, i64), "k")
	main.Jump(d, main.Param(0), w.LitI64(7), k)
	k.Jump(main.Param(1), k.Param(0), k.Param(1))

	stats := optimize(t, w, "closure").Closure
	if stats.Closures != 0 {
		t.Fatalf("return continuations must not become closures, got %d", stats.Closures)
	}
}

func TestOptimizePipelineEndToEnd(t *testing.T) {
	// Higher-order pipeline: main applies a function twice via a generic
	// twice(f, x) = f(f(x)); after full optimization the world is in CFF
	// with zero closures.
	w := ir.NewWorld()
	d := buildDouble(w)
	i64 := w.PrimType(ir.PrimI64)
	mem := w.MemType()
	retT := w.FnType(mem, i64)
	fT := w.FnType(mem, i64, retT)

	twice := w.Continuation(w.FnType(mem, fT, i64, retT), "twice")
	k1 := w.Continuation(w.FnType(mem, i64), "k1")
	twice.Jump(twice.Param(1), twice.Param(0), twice.Param(2), k1)
	k1.Jump(twice.Param(1), k1.Param(0), k1.Param(1), twice.Param(3))

	main := w.Continuation(w.FnType(mem, retT), "main")
	main.SetExtern(true)
	main.Jump(twice, main.Param(0), d, w.LitI64(5), main.Param(1))

	stats := optimize(t, w, O2)
	if !InCFF(w) {
		t.Fatalf("world must be in CFF after optimization: %v", HigherOrderConts(w))
	}
	if stats.Closure.Closures != 0 {
		t.Errorf("full optimization must leave no closures, got %d", stats.Closure.Closures)
	}
	if err := ir.Verify(w); err != nil {
		t.Fatal(err)
	}

	// Unoptimized lowering of the same program must produce closures.
	w2 := ir.NewWorld()
	d2 := buildDouble(w2)
	i64b := w2.PrimType(ir.PrimI64)
	memb := w2.MemType()
	retTb := w2.FnType(memb, i64b)
	fTb := w2.FnType(memb, i64b, retTb)
	twice2 := w2.Continuation(w2.FnType(memb, fTb, i64b, retTb), "twice")
	k1b := w2.Continuation(w2.FnType(memb, i64b), "k1")
	twice2.Jump(twice2.Param(1), twice2.Param(0), twice2.Param(2), k1b)
	k1b.Jump(twice2.Param(1), k1b.Param(0), k1b.Param(1), twice2.Param(3))
	main2 := w2.Continuation(w2.FnType(memb, retTb), "main")
	main2.SetExtern(true)
	main2.Jump(twice2, main2.Param(0), d2, w2.LitI64(5), main2.Param(1))

	stats2 := optimize(t, w2, O0)
	if stats2.Closure.Closures == 0 {
		t.Error("unoptimized lowering must introduce closures")
	}
	if err := ir.Verify(w2); err != nil {
		t.Fatal(err)
	}
}

func TestContify(t *testing.T) {
	// helper called from both arms of a branch, returning to the same join
	// continuation — contification must fuse it into the caller.
	w := ir.NewWorld()
	i64 := w.PrimType(ir.PrimI64)
	mem := w.MemType()
	retT := w.FnType(mem, i64)

	helper := w.Continuation(w.FnType(mem, i64, retT), "helper")
	helper.Jump(helper.Param(2), helper.Param(0), w.Arith(ir.OpMul, helper.Param(1), w.LitI64(3)))

	main := w.Continuation(w.FnType(mem, i64, retT), "main")
	main.SetExtern(true)
	thenB := w.Continuation(w.FnType(mem), "then")
	elseB := w.Continuation(w.FnType(mem), "else")
	join := w.Continuation(w.FnType(mem, i64), "join")
	main.Branch(main.Param(0), w.Cmp(ir.OpLt, main.Param(1), w.LitI64(0)), thenB, elseB)
	thenB.Jump(helper, thenB.Param(0), w.LitI64(1), join)
	elseB.Jump(helper, elseB.Param(0), w.LitI64(2), join)
	join.Jump(main.Param(2), join.Param(0), join.Param(1))

	if n := optimize(t, w, "contify").Contified; n != 1 {
		t.Fatalf("contified %d, want 1", n)
	}
	if err := ir.Verify(w); err != nil {
		t.Fatal(err)
	}
	// The specialized helper is now a basic block of main (its return
	// parameter is gone); main must be the only returning continuation
	// left, and the generic helper removed.
	for _, c := range w.Continuations() {
		if c.IsIntrinsic() || c == main {
			continue
		}
		if c.IsReturning() {
			t.Errorf("%s still returning after contification", c.Name())
		}
	}
	if w.Find("helper") != nil {
		t.Error("generic helper should be removed")
	}
	s := analysis.NewScope(main)
	if !s.Contains(w.Find("helper.cont")) {
		t.Error("contified helper must be local control flow of main")
	}
	_ = join
}

func TestContifySkipsDisagreeingSites(t *testing.T) {
	w := ir.NewWorld()
	i64 := w.PrimType(ir.PrimI64)
	mem := w.MemType()
	retT := w.FnType(mem, i64)

	helper := w.Continuation(w.FnType(mem, i64, retT), "helper")
	helper.Jump(helper.Param(2), helper.Param(0), helper.Param(1))

	main := w.Continuation(w.FnType(mem, i64, retT), "main")
	main.SetExtern(true)
	k1 := w.Continuation(w.FnType(mem, i64), "k1")
	k2 := w.Continuation(w.FnType(mem, i64), "k2")
	main.Jump(helper, main.Param(0), w.LitI64(1), k1)
	k1.Jump(helper, k1.Param(0), k1.Param(1), k2)
	k2.Jump(main.Param(2), k2.Param(0), k2.Param(1))

	if n := optimize(t, w, "contify").Contified; n != 0 {
		t.Fatalf("contified %d, want 0 (sites disagree)", n)
	}
}

// buildCountLoop builds main(mem, n, ret) with a counting loop and returns
// (main, head): head(mem, i, acc) sums 0..n-1.
func buildCountLoop(w *ir.World) (*ir.Continuation, *ir.Continuation) {
	i64 := w.PrimType(ir.PrimI64)
	mem := w.MemType()
	retT := w.FnType(mem, i64)
	main := w.Continuation(w.FnType(mem, i64, retT), "main")
	main.SetExtern(true)
	head := w.Continuation(w.FnType(mem, i64, i64), "head")
	body := w.Continuation(w.FnType(mem), "body")
	done := w.Continuation(w.FnType(mem), "done")

	main.Jump(head, main.Param(0), w.LitI64(0), w.LitI64(0))
	i, acc := head.Param(1), head.Param(2)
	head.Branch(head.Param(0), w.Cmp(ir.OpLt, i, main.Param(1)), body, done)
	body.Jump(head, body.Param(0), w.Arith(ir.OpAdd, i, w.LitI64(1)), w.Arith(ir.OpAdd, acc, i))
	done.Jump(main.Param(2), done.Param(0), acc)
	return main, head
}

// optimize runs a named spec over w, failing the test on a pipeline error.
func optimize(t *testing.T, w *ir.World, spec string) Stats {
	t.Helper()
	st, _, err := RunPipeline(w, spec)
	if err != nil {
		t.Fatal(err)
	}
	return st
}
