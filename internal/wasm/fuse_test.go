package wasm

import (
	"errors"
	"fmt"
	"slices"
	"testing"
)

// fusedModule exports f(x, y), whose body holds every fused pair:
//
//	do { acc = h(acc + x + 1); i = i + 1 } while i < y  // br_if into a pair
//	return acc / y + x * 5                              // traps right after a pair if y == 0
//
// with h(a) = a + 1, so fuel also crosses a call and a return.
func fusedModule() *Module {
	m := &Module{}
	hi := m.AddType(FuncType{Params: []ValType{I64}, Results: []ValType{I64}})
	fi := m.AddType(FuncType{Params: []ValType{I64, I64}, Results: []ValType{I64}})
	h := []byte{OpLocalGet, 0, OpI64Const, 1, OpI64Add, OpEnd}
	var f []byte
	f = append(f, OpBlock, BlockEmpty, OpLoop, BlockEmpty)
	f = append(f, OpLocalGet, 2, OpLocalGet, 0, OpI64Add) // local.get;local.get
	f = append(f, OpI64Const, 1, OpI64Add)                // i64.const;i64.add
	f = append(f, OpCall, 0)
	f = append(f, OpLocalSet, 2, OpLocalGet, 3) // local.set;local.get
	f = append(f, OpI64Const, 1, OpI64Add, OpLocalTee, 3)
	f = append(f, OpLocalGet, 1, OpI64LtS, OpBrIf, 0, OpEnd, OpEnd)
	f = append(f, OpLocalGet, 2, OpLocalGet, 1, OpI64DivS)          // the trap
	f = append(f, OpLocalGet, 0, OpI64Const, 5, OpI64Mul, OpI64Add) // local.get;i64.const
	f = append(f, OpEnd)
	m.Funcs = append(m.Funcs,
		Func{TypeIdx: hi, Code: h},
		Func{TypeIdx: fi, Locals: []ValType{I64, I64}, Code: f},
	)
	m.Exports = append(m.Exports, Export{Name: "f", Kind: ExtFunc, Idx: 1})
	return m
}

// unfuse restores the original first opcode of every fused pair.
func unfuse(code []instr) {
	for i := range code {
		for _, p := range fusedPairs {
			if code[i].op == p.fused {
				code[i].op = p.first
			}
		}
	}
}

// outcome is everything an invocation leaves observable.
type outcome struct {
	res   []uint64
	err   error
	fuel  int64
	stack []uint64
}

func invokeWith(in *Instance, fuel int64, args ...uint64) outcome {
	in.Fuel = fuel
	res, err := in.Invoke("f", args...)
	return outcome{res, err, in.Fuel, slices.Clone(in.stack[:in.sp])}
}

func (o outcome) equal(p outcome) bool {
	return fmt.Sprint(o.err) == fmt.Sprint(p.err) && o.fuel == p.fuel &&
		slices.Equal(o.res, p.res) && slices.Equal(o.stack, p.stack)
}

// checkEveryBudget runs f(args) on fused and on unfused at every fuel
// budget from 0 to the full cost and compares what each run leaves.
func checkEveryBudget(t *testing.T, fused, unfused *Instance, args ...uint64) {
	t.Helper()
	const plenty = 1 << 40
	full := invokeWith(unfused, plenty, args...)
	cost := plenty - full.fuel
	if cost <= 0 {
		t.Fatalf("f%v cost no fuel", args)
	}
	for budget := int64(0); budget <= cost; budget++ {
		want := invokeWith(unfused, budget, args...)
		got := invokeWith(fused, budget, args...)
		if !got.equal(want) {
			t.Fatalf("f%v with %d fuel: fused %+v, unfused %+v", args, budget, got, want)
		}
		if out := errors.Is(got.err, ErrFuel); out != (budget < cost) {
			t.Fatalf("f%v with %d of %d fuel: got %v", args, budget, cost, got.err)
		}
	}
}

// TestFusedPairsChargeExactly checks that fusion is invisible: at every
// budget the fused body stops before the same original instruction as the
// unfused one, with the same result or error, remaining fuel and value
// stack.
func TestFusedPairsChargeExactly(t *testing.T) {
	fused := instantiate(t, fusedModule())
	unfused := instantiate(t, fusedModule())
	for i := range unfused.bodies {
		unfuse(unfused.bodies[i].code)
	}
	for _, p := range fusedPairs {
		if !slices.ContainsFunc(fused.bodies[1].code, func(in instr) bool { return in.op == p.fused }) {
			t.Fatalf("the body of f holds no fused %#x", p.fused)
		}
	}
	if slices.Equal(fused.bodies[1].code, unfused.bodies[1].code) {
		t.Fatal("unfuse changed nothing")
	}
	if res, err := fused.Invoke("f", 3, 4); err != nil || res[0] != 20 {
		t.Fatalf("f(3, 4) = %v, %v; want 20", res, err)
	}
	var trap *Trap
	if _, err := fused.Invoke("f", 3, 0); !errors.As(err, &trap) {
		t.Fatalf("f(3, 0) = %v, want a divide-by-zero trap", err)
	}
	checkEveryBudget(t, fused, unfused, 3, 4)
	checkEveryBudget(t, fused, unfused, 3, 0)
}

// TestBranchIntoSecondHalf runs a branch that lands on the second instr of
// a fused pair, which must then run alone. No valid body branches there:
// every branch target follows a block, loop, if, else or end, and none of
// those starts a pair. So the body is predecoded by hand, with the block's
// end resolved to the pair's first instr.
func TestBranchIntoSecondHalf(t *testing.T) {
	code := func() []instr {
		return []instr{
			{op: OpI64Const, imm: 10, y: -1},
			{op: OpBlock, x: 3, y: -1}, // br 0 continues at x+1 = 4
			{op: OpBr, imm: 0, y: -1},
			{op: OpLocalGet, imm: 0, y: -1}, // fused with the next
			{op: OpLocalGet, imm: 1, y: -1},
			{op: OpI64Add, y: -1},
			{op: OpEnd, y: -1},
		}
	}
	fused := instantiate(t, fusedModule())
	unfused := instantiate(t, fusedModule())
	fused.bodies[1].code, unfused.bodies[1].code = code(), code()
	fuse(fused.bodies[1].code)
	if fused.bodies[1].code[3].op != opLocalGetLocalGet {
		t.Fatalf("local.get;local.get was not fused: %#x", fused.bodies[1].code[3].op)
	}
	if res, err := fused.Invoke("f", 3, 4); err != nil || res[0] != 14 {
		t.Fatalf("f(3, 4) = %v, %v; want 14 (10 + y)", res, err)
	}
	checkEveryBudget(t, fused, unfused, 3, 4)
}
