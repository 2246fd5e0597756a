package vmbackend

import (
	"testing"

	"thorin/internal/analysis"
	"thorin/internal/ir"
	"thorin/internal/transform"
	"thorin/internal/vm"
)

// compileAndRun optimizes w with spec, compiles it, and runs main.
func compileAndRun(t *testing.T, w *ir.World, spec string, args ...vm.Value) ([]vm.Value, *vm.VM) {
	t.Helper()
	optimize(t, w, spec)
	if err := ir.Verify(w); err != nil {
		t.Fatalf("verify after optimize: %v", err)
	}
	prog, err := Compile(w, "main", Config{Mode: analysis.ScheduleSmart})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	m := vm.New(prog, nil)
	m.MaxSteps = 100_000_000
	res, err := m.Run(args...)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res, m
}

// optimize runs a pipeline spec over w, failing the test on an error.
func optimize(t *testing.T, w *ir.World, spec string) {
	t.Helper()
	if _, _, err := transform.RunPipeline(w, spec); err != nil {
		t.Fatalf("optimize: %v", err)
	}
}

// buildMain wraps body(mem, n, ret) as main(mem, n, ret: fn(mem,i64)).
func newMainWorld() (*ir.World, *ir.Continuation) {
	w := ir.NewWorld()
	i64 := w.PrimType(ir.PrimI64)
	mem := w.MemType()
	retT := w.FnType(mem, i64)
	main := w.Continuation(w.FnType(mem, i64, retT), "main")
	main.SetExtern(true)
	return w, main
}

func TestCompileStraightLine(t *testing.T) {
	w, main := newMainWorld()
	x := main.Param(1)
	v := w.Arith(ir.OpAdd, w.Arith(ir.OpMul, x, x), w.LitI64(1))
	main.Jump(main.Param(2), main.Param(0), v)

	res, _ := compileAndRun(t, w, transform.O2, vm.Value{I: 6})
	if res[0].I != 37 {
		t.Fatalf("6*6+1 = %d, want 37", res[0].I)
	}
}

func TestCompileBranch(t *testing.T) {
	w, main := newMainWorld()
	i64 := w.PrimType(ir.PrimI64)
	mem := w.MemType()
	thenB := w.Continuation(w.FnType(mem), "then")
	elseB := w.Continuation(w.FnType(mem), "else")
	x := main.Param(1)
	main.Branch(main.Param(0), w.Cmp(ir.OpLt, x, w.LitI64(0)), thenB, elseB)
	neg := w.Arith(ir.OpSub, w.LitI64(0), x)
	thenB.Jump(main.Param(2), thenB.Param(0), neg)
	elseB.Jump(main.Param(2), elseB.Param(0), x)
	_ = i64

	res, _ := compileAndRun(t, w, transform.O2, vm.Value{I: -42})
	if res[0].I != 42 {
		t.Fatalf("abs(-42) = %d, want 42", res[0].I)
	}
}

func TestCompileLoop(t *testing.T) {
	// main(n): sum 0..n-1 via block loop.
	w, main := newMainWorld()
	i64 := w.PrimType(ir.PrimI64)
	mem := w.MemType()
	head := w.Continuation(w.FnType(mem, i64, i64), "head")
	body := w.Continuation(w.FnType(mem), "body")
	done := w.Continuation(w.FnType(mem), "done")

	main.Jump(head, main.Param(0), w.LitI64(0), w.LitI64(0))
	i, acc := head.Param(1), head.Param(2)
	head.Branch(head.Param(0), w.Cmp(ir.OpLt, i, main.Param(1)), body, done)
	body.Jump(head, body.Param(0), w.Arith(ir.OpAdd, i, w.LitI64(1)), w.Arith(ir.OpAdd, acc, i))
	done.Jump(main.Param(2), done.Param(0), acc)

	res, m := compileAndRun(t, w, transform.O2, vm.Value{I: 100})
	if res[0].I != 4950 {
		t.Fatalf("sum(100) = %d, want 4950", res[0].I)
	}
	if m.Counters.DirectCalls+m.Counters.IndirectCalls != 0 {
		t.Errorf("a local loop must not emit calls: %+v", m.Counters)
	}
}

// buildFib builds the doubly recursive fib over the returning-call
// convention.
func buildFib(w *ir.World) *ir.Continuation {
	i64 := w.PrimType(ir.PrimI64)
	mem := w.MemType()
	retT := w.FnType(mem, i64)
	fib := w.Continuation(w.FnType(mem, i64, retT), "fib")
	base := w.Continuation(w.FnType(mem), "base")
	rec := w.Continuation(w.FnType(mem), "rec")
	k1 := w.Continuation(w.FnType(mem, i64), "k1")
	k2 := w.Continuation(w.FnType(mem, i64), "k2")

	n, ret := fib.Param(1), fib.Param(2)
	fib.Branch(fib.Param(0), w.Cmp(ir.OpLt, n, w.LitI64(2)), base, rec)
	base.Jump(ret, base.Param(0), n)
	rec.Jump(fib, rec.Param(0), w.Arith(ir.OpSub, n, w.LitI64(1)), k1)
	k1.Jump(fib, k1.Param(0), w.Arith(ir.OpSub, n, w.LitI64(2)), k2)
	k2.Jump(ret, k2.Param(0), w.Arith(ir.OpAdd, k1.Param(1), k2.Param(1)))
	return fib
}

func TestCompileRecursion(t *testing.T) {
	w, main := newMainWorld()
	fib := buildFib(w)
	main.Jump(fib, main.Param(0), main.Param(1), main.Param(2))

	res, m := compileAndRun(t, w, transform.O2, vm.Value{I: 20})
	if res[0].I != 6765 {
		t.Fatalf("fib(20) = %d, want 6765", res[0].I)
	}
	if m.Counters.DirectCalls == 0 && m.Counters.TailCalls == 0 {
		t.Error("recursion must perform calls")
	}
	if m.Counters.IndirectCalls != 0 {
		t.Error("first-order recursion must not use closures")
	}
}

func TestCompileHigherOrderOptimized(t *testing.T) {
	// apply(f, x) with a known f: mangling must remove all indirect calls.
	w, main := newMainWorld()
	i64 := w.PrimType(ir.PrimI64)
	mem := w.MemType()
	retT := w.FnType(mem, i64)
	fT := w.FnType(mem, i64, retT)

	sq := w.Continuation(fT, "sq")
	sq.Jump(sq.Param(2), sq.Param(0), w.Arith(ir.OpMul, sq.Param(1), sq.Param(1)))

	apply := w.Continuation(w.FnType(mem, fT, i64, retT), "apply")
	apply.Jump(apply.Param(1), apply.Param(0), apply.Param(2), apply.Param(3))

	main.Jump(apply, main.Param(0), sq, main.Param(1), main.Param(2))

	res, m := compileAndRun(t, w, transform.O2, vm.Value{I: 9})
	if res[0].I != 81 {
		t.Fatalf("sq(9) = %d, want 81", res[0].I)
	}
	if m.Counters.IndirectCalls != 0 || m.Counters.ClosureAllocs != 0 {
		t.Errorf("optimized higher-order call must be direct: %+v", m.Counters)
	}
}

func TestCompileHigherOrderUnoptimized(t *testing.T) {
	// Same program at -O0: the call must go through a closure.
	w, main := newMainWorld()
	i64 := w.PrimType(ir.PrimI64)
	mem := w.MemType()
	retT := w.FnType(mem, i64)
	fT := w.FnType(mem, i64, retT)

	sq := w.Continuation(fT, "sq")
	sq.Jump(sq.Param(2), sq.Param(0), w.Arith(ir.OpMul, sq.Param(1), sq.Param(1)))

	apply := w.Continuation(w.FnType(mem, fT, i64, retT), "apply")
	apply.Jump(apply.Param(1), apply.Param(0), apply.Param(2), apply.Param(3))

	main.Jump(apply, main.Param(0), sq, main.Param(1), main.Param(2))

	res, m := compileAndRun(t, w, transform.O0, vm.Value{I: 9})
	if res[0].I != 81 {
		t.Fatalf("sq(9) = %d, want 81", res[0].I)
	}
	if m.Counters.ClosureAllocs == 0 || m.Counters.IndirectCalls == 0 {
		t.Errorf("unoptimized higher-order call must use a closure: %+v", m.Counters)
	}
}

func TestCompileCapturingClosure(t *testing.T) {
	// addn = |y| main.x + y passed to an applier; exercises lifting.
	w, main := newMainWorld()
	i64 := w.PrimType(ir.PrimI64)
	mem := w.MemType()
	retT := w.FnType(mem, i64)
	fT := w.FnType(mem, i64, retT)

	apply := w.Continuation(w.FnType(mem, fT, i64, retT), "apply")
	apply.NoInline = true
	apply.Jump(apply.Param(1), apply.Param(0), apply.Param(2), apply.Param(3))

	addn := w.Continuation(fT, "addn")
	addn.Jump(addn.Param(2), addn.Param(0), w.Arith(ir.OpAdd, addn.Param(1), main.Param(1)))

	main.Jump(apply, main.Param(0), addn, w.LitI64(100), main.Param(2))

	res, _ := compileAndRun(t, w, transform.O0, vm.Value{I: 7})
	if res[0].I != 107 {
		t.Fatalf("addn(100) = %d, want 107", res[0].I)
	}
}

func TestCompileMemory(t *testing.T) {
	// main(n): arr := alloc(n); arr[i] = i*i for all i; return arr[n-1].
	w, main := newMainWorld()
	i64 := w.PrimType(ir.PrimI64)
	mem := w.MemType()
	head := w.Continuation(w.FnType(mem, i64), "head")
	body := w.Continuation(w.FnType(mem), "body")
	done := w.Continuation(w.FnType(mem), "done")

	n := main.Param(1)
	al := w.Alloc(main.Param(0), i64, n)
	am, arr := w.ExtractAt(al, 0), w.ExtractAt(al, 1)
	main.Jump(head, am, w.LitI64(0))

	i := head.Param(1)
	head.Branch(head.Param(0), w.Cmp(ir.OpLt, i, n), body, done)
	st := w.Store(body.Param(0), w.Lea(arr, i), w.Arith(ir.OpMul, i, i))
	body.Jump(head, st, w.Arith(ir.OpAdd, i, w.LitI64(1)))

	last := w.Arith(ir.OpSub, n, w.LitI64(1))
	ld := w.Load(done.Param(0), w.Lea(arr, last))
	done.Jump(main.Param(2), w.ExtractAt(ld, 0), w.ExtractAt(ld, 1))

	res, m := compileAndRun(t, w, transform.O2, vm.Value{I: 10})
	if res[0].I != 81 {
		t.Fatalf("arr[9] = %d, want 81", res[0].I)
	}
	if m.Counters.ArrayAllocs != 1 {
		t.Errorf("array allocs = %d, want 1", m.Counters.ArrayAllocs)
	}
}

func TestCompileSlotMem2Reg(t *testing.T) {
	// A slot-based loop: at -O2 the slot is promoted (no loads or stores
	// at runtime); at -O0 it is not.
	build := func() *ir.World {
		w := ir.NewWorld()
		i64 := w.PrimType(ir.PrimI64)
		mem := w.MemType()
		retT := w.FnType(mem, i64)
		main := w.Continuation(w.FnType(mem, i64, retT), "main")
		main.SetExtern(true)
		head := w.Continuation(w.FnType(mem, i64), "head")
		body := w.Continuation(w.FnType(mem), "body")
		done := w.Continuation(w.FnType(mem), "done")

		sl := w.Slot(main.Param(0), i64)
		sm, ptr := w.ExtractAt(sl, 0), w.ExtractAt(sl, 1)
		st0 := w.Store(sm, ptr, w.LitI64(0))
		main.Jump(head, st0, w.LitI64(0))

		i := head.Param(1)
		head.Branch(head.Param(0), w.Cmp(ir.OpLt, i, main.Param(1)), body, done)
		ld := w.Load(body.Param(0), ptr)
		lm, lv := w.ExtractAt(ld, 0), w.ExtractAt(ld, 1)
		st := w.Store(lm, ptr, w.Arith(ir.OpAdd, lv, i))
		body.Jump(head, st, w.Arith(ir.OpAdd, i, w.LitI64(1)))

		dl := w.Load(done.Param(0), ptr)
		done.Jump(main.Param(2), w.ExtractAt(dl, 0), w.ExtractAt(dl, 1))
		return w
	}

	resOpt, mOpt := compileAndRun(t, build(), transform.O2, vm.Value{I: 50})
	resNo, mNo := compileAndRun(t, build(), transform.O0, vm.Value{I: 50})
	if resOpt[0].I != 1225 || resNo[0].I != 1225 {
		t.Fatalf("sum(50) = %d / %d, want 1225", resOpt[0].I, resNo[0].I)
	}
	if mOpt.Counters.Loads != 0 || mOpt.Counters.Stores != 0 {
		t.Errorf("mem2reg must remove all loads/stores: %+v", mOpt.Counters)
	}
	if mNo.Counters.Loads == 0 || mNo.Counters.Stores == 0 {
		t.Error("unoptimized build must keep loads/stores")
	}
}

func TestCompilePrint(t *testing.T) {
	w, main := newMainWorld()
	mem := w.MemType()
	k := w.Continuation(w.FnType(mem), "k")
	main.Jump(w.PrintI64(), main.Param(0), main.Param(1), k)
	k.Jump(main.Param(2), k.Param(0), w.LitI64(0))

	optimize(t, w, transform.O2)
	prog, err := Compile(w, "main", Config{})
	if err != nil {
		t.Fatal(err)
	}
	var out testWriter
	m := vm.New(prog, &out)
	if _, err := m.Run(vm.Value{I: 123}); err != nil {
		t.Fatal(err)
	}
	if string(out) != "123\n" {
		t.Fatalf("printed %q", string(out))
	}
}

type testWriter []byte

func (w *testWriter) Write(p []byte) (int, error) {
	*w = append(*w, p...)
	return len(p), nil
}

func TestScheduleModesProduceSameResults(t *testing.T) {
	for _, mode := range []analysis.Mode{analysis.ScheduleEarly, analysis.ScheduleLate, analysis.ScheduleSmart} {
		w, main := newMainWorld()
		fib := buildFib(w)
		main.Jump(fib, main.Param(0), main.Param(1), main.Param(2))
		optimize(t, w, transform.O2)
		prog, err := Compile(w, "main", Config{Mode: mode})
		if err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		m := vm.New(prog, nil)
		res, err := m.Run(vm.Value{I: 15})
		if err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		if res[0].I != 610 {
			t.Errorf("mode %v: fib(15) = %d, want 610", mode, res[0].I)
		}
	}
}

// buildCountLoop builds main(mem, n, ret) summing 0..n-1 through a loop
// header block; returns (main, head).
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

func TestLoopPeeling(t *testing.T) {
	w := ir.NewWorld()
	_, head := buildCountLoop(w)

	peeled := transform.PeelAt(w, head)
	if err := ir.Verify(w); err != nil {
		t.Fatal(err)
	}
	// The peeled copy's back edge must target the original head.
	s := analysis.NewScope(peeled)
	backToOriginal := false
	for _, c := range s.Conts {
		if c.HasBody() && c.Callee() == head {
			backToOriginal = true
		}
	}
	if !backToOriginal {
		t.Error("peeled copy must re-enter the original loop")
	}
	// Semantics preserved.
	res, _ := compileAndRun(t, w, transform.O0, vm.Value{I: 100})
	if res[0].I != 4950 {
		t.Fatalf("peeled sum(100) = %d, want 4950", res[0].I)
	}
}

func TestLoopUnrolling(t *testing.T) {
	for _, factor := range []int{2, 4} {
		w := ir.NewWorld()
		_, head := buildCountLoop(w)
		copies := transform.Unroll(w, head, factor)
		if len(copies) != factor {
			t.Fatalf("got %d copies", len(copies))
		}
		if err := ir.Verify(w); err != nil {
			t.Fatal(err)
		}
		// The copies must form a cycle: copy i re-enters copy (i+1)%factor.
		for i, c := range copies {
			next := copies[(i+1)%factor]
			s := analysis.NewScope(c)
			cycle := false
			for _, cc := range s.Conts {
				if cc.HasBody() && cc.Callee() == next {
					cycle = true
				}
			}
			if !cycle {
				t.Errorf("factor %d: copy %d does not continue into copy %d", factor, i, (i+1)%factor)
			}
		}
		// Semantics preserved for sizes that do and do not divide evenly.
		for _, n := range []int64{0, 1, 7, 100} {
			res, _ := compileAndRun(t, w, transform.O0, vm.Value{I: n})
			want := n * (n - 1) / 2
			if res[0].I != want {
				t.Fatalf("factor %d: unrolled sum(%d) = %d, want %d", factor, n, res[0].I, want)
			}
		}
	}
}
