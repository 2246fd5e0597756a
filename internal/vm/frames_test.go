package vm

import "testing"

// buildReuse builds main() = f(1)*1000 + f(0), where f(x) writes 99 to its
// result register only when x != 0. Both calls of f take the same register
// slots, so the second returns 0 only if released registers are zeroed.
func buildReuse() *Program {
	f := &Func{
		Name: "f", NumRegs: 4, ParamRegs: []int{0},
		Blocks: []Block{
			{Name: "entry", Start: 0},
			{Name: "set", Start: 3},
			{Name: "done", Start: 5},
		},
		Code: []Instr{
			{Op: OpConstI, A: 2, Imm: 0},
			{Op: OpNeI, A: 3, B: 0, C: 2},
			{Op: OpBr, A: 3, B: 1, C: 2},
			{Op: OpConstI, A: 1, Imm: 99},
			{Op: OpJmp, Imm: 2},
			{Op: OpRet, Args: []int{1}},
		},
	}
	main := &Func{
		Name: "main", NumRegs: 7,
		Blocks: []Block{
			{Name: "entry", Start: 0},
			{Name: "k1", Start: 2, ParamRegs: []int{1}},
			{Name: "k2", Start: 4, ParamRegs: []int{3}},
		},
		Code: []Instr{
			{Op: OpConstI, A: 0, Imm: 1},
			{Op: OpCall, Imm: 1, Args: []int{0}, Rets: []int{1}, C: 1},
			{Op: OpConstI, A: 2, Imm: 0},
			{Op: OpCall, Imm: 1, Args: []int{2}, Rets: []int{3}, C: 2},
			{Op: OpConstI, A: 4, Imm: 1000},
			{Op: OpMulI, A: 5, B: 1, C: 4},
			{Op: OpAddI, A: 6, B: 5, C: 3},
			{Op: OpRet, Args: []int{6}},
		},
	}
	return &Program{Funcs: []*Func{main, f}, Main: 0}
}

func TestReusedFramesStartZeroed(t *testing.T) {
	m := New(buildReuse(), nil)
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res[0].I != 99000 {
		t.Fatalf("f(1)*1000 + f(0) = %d, want 99000", res[0].I)
	}
	// Top-level calls on one VM reuse the arena's first slot.
	for _, c := range []struct{ x, want int64 }{{1, 99}, {0, 0}} {
		res, err := m.Call(1, Value{I: c.x})
		if err != nil {
			t.Fatal(err)
		}
		if res[0].I != c.want {
			t.Fatalf("f(%d) = %d, want %d", c.x, res[0].I, c.want)
		}
	}
}

// buildCallLoop builds main(k): calls leaf(x) = x + 1 k times in a loop.
func buildCallLoop() *Program {
	leaf := &Func{
		Name: "leaf", NumRegs: 3, ParamRegs: []int{0},
		Blocks: []Block{{Name: "entry", Start: 0}},
		Code: []Instr{
			{Op: OpConstI, A: 1, Imm: 1},
			{Op: OpAddI, A: 2, B: 0, C: 1},
			{Op: OpRet, Args: []int{2}},
		},
	}
	main := &Func{
		Name: "main", NumRegs: 8, ParamRegs: []int{0},
		Blocks: []Block{
			{Name: "entry", Start: 0},
			{Name: "head", Start: 3, ParamRegs: []int{3, 4}}, // i, acc
			{Name: "body", Start: 5},
			{Name: "k", Start: 6, ParamRegs: []int{6}},
			{Name: "done", Start: 8},
		},
		Code: []Instr{
			{Op: OpConstI, A: 1, Imm: 0},
			{Op: OpConstI, A: 2, Imm: 1},
			{Op: OpJmp, Imm: 1, Args: []int{1, 1}},
			{Op: OpLtI, A: 5, B: 3, C: 0},
			{Op: OpBr, A: 5, B: 2, C: 4},
			{Op: OpCall, Imm: 1, Args: []int{4}, Rets: []int{6}, C: 3},
			{Op: OpAddI, A: 7, B: 3, C: 2},
			{Op: OpJmp, Imm: 1, Args: []int{7, 6}},
			{Op: OpRet, Args: []int{4}},
		},
	}
	return &Program{Funcs: []*Func{main, leaf}, Main: 0}
}

// allocsPerRun reports the allocations of one m.Run(n) on a warmed VM.
func allocsPerRun(t *testing.T, prog *Program, n int64) float64 {
	t.Helper()
	m := New(prog, nil)
	arg := []Value{{I: n}}
	var err error
	allocs := testing.AllocsPerRun(5, func() {
		var res []Value
		res, err = m.Run(arg...)
		if err == nil && res[0].I != n {
			t.Fatalf("run(%d) = %d", n, res[0].I)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return allocs
}

func TestCallsDoNotAllocate(t *testing.T) {
	small := allocsPerRun(t, buildCallLoop(), 100)
	large := allocsPerRun(t, buildCallLoop(), 10_000)
	if small != large {
		t.Fatalf("allocations grow with the call count: %v at k=100, %v at k=10000", small, large)
	}
}

// buildTailLoop builds loop(n) = n == 0 ? n : loop(n - 1) with tail calls;
// it returns 0 for every n.
func buildTailLoop() *Program {
	loop := &Func{
		Name: "loop", NumRegs: 4, ParamRegs: []int{0},
		Blocks: []Block{
			{Name: "entry", Start: 0},
			{Name: "rec", Start: 3},
			{Name: "done", Start: 6},
		},
		Code: []Instr{
			{Op: OpConstI, A: 1, Imm: 0},
			{Op: OpEqI, A: 2, B: 0, C: 1},
			{Op: OpBr, A: 2, B: 2, C: 1},
			{Op: OpConstI, A: 3, Imm: 1},
			{Op: OpSubI, A: 3, B: 0, C: 3},
			{Op: OpTailCall, Imm: 0, Args: []int{3}},
			{Op: OpRet, Args: []int{1}},
		},
	}
	return &Program{Funcs: []*Func{loop}, Main: 0}
}

func TestTailCallLoopRunsInConstantSpace(t *testing.T) {
	depth := func(n int64) (float64, int64) {
		m := New(buildTailLoop(), nil)
		arg := []Value{{I: n}}
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := m.Run(arg...); err != nil {
				t.Fatal(err)
			}
		})
		return allocs, m.Counters.MaxStackDepth
	}
	smallAllocs, smallDepth := depth(100)
	largeAllocs, largeDepth := depth(100_000)
	if smallAllocs != largeAllocs {
		t.Errorf("allocations grow with the tail-call count: %v at n=1e2, %v at n=1e5", smallAllocs, largeAllocs)
	}
	if smallDepth != 1 || largeDepth != 1 {
		t.Errorf("MaxStackDepth = %d at n=1e2, %d at n=1e5, want 1", smallDepth, largeDepth)
	}
}
