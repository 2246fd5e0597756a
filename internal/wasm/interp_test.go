package wasm

import (
	"errors"
	"testing"
)

func instantiate(t *testing.T, m *Module) *Instance {
	t.Helper()
	if err := Validate(m); err != nil {
		t.Fatalf("validate: %v", err)
	}
	in, err := NewInstance(m, nil)
	if err != nil {
		t.Fatalf("instantiate: %v", err)
	}
	return in
}

// TestInstanceSurvivesRepeatedTraps traps 10,001 times at call depth 2
// (outer calls div, which divides by zero) and then makes one good call.
// A trap unwinds no frame, so the instance must reset on every Invoke.
func TestInstanceSurvivesRepeatedTraps(t *testing.T) {
	m := &Module{}
	ti := m.AddType(FuncType{Params: []ValType{I64, I64}, Results: []ValType{I64}})
	m.Funcs = append(m.Funcs,
		Func{TypeIdx: ti, Code: []byte{OpLocalGet, 0, OpLocalGet, 1, OpI64DivS, OpEnd}},
		Func{TypeIdx: ti, Code: []byte{OpLocalGet, 0, OpLocalGet, 1, OpCall, 0, OpEnd}},
	)
	m.Exports = append(m.Exports, Export{Name: "outer", Kind: ExtFunc, Idx: 1})
	in := instantiate(t, m)
	for i := 0; i < 10_001; i++ {
		var trap *Trap
		if _, err := in.Invoke("outer", 1, 0); !errors.As(err, &trap) {
			t.Fatalf("trap %d: got %v, want a divide-by-zero trap", i, err)
		}
	}
	res, err := in.Invoke("outer", 84, 2)
	if err != nil || len(res) != 1 || res[0] != 42 {
		t.Fatalf("outer(84, 2) after traps = %v, %v; want 42", res, err)
	}
}

// TestReusedFramesStartZeroed runs f(x), which sets its declared local to
// 99 only when x != 0 and returns it. Consecutive calls of f take the same
// locals slots, so f(0) returns 0 only if every frame's locals start zeroed.
func TestReusedFramesStartZeroed(t *testing.T) {
	m := &Module{}
	ti := m.AddType(FuncType{Params: []ValType{I64}, Results: []ValType{I64}})
	gi := m.AddType(FuncType{Results: []ValType{I64}})
	var f []byte
	f = append(f, OpLocalGet, 0, OpI64Eqz, OpI32Eqz, OpIf, BlockEmpty)
	f = append(f, OpI64Const, 0xE3, 0x00, OpLocalSet, 1) // 99
	f = append(f, OpEnd, OpLocalGet, 1, OpEnd)
	// g() = f(1) * 1000 + f(0)
	var g []byte
	g = append(g, OpI64Const, 1, OpCall, 0, OpI64Const, 0xE8, 0x07, OpI64Mul) // 1000
	g = append(g, OpI64Const, 0, OpCall, 0, OpI64Add, OpEnd)
	m.Funcs = append(m.Funcs,
		Func{TypeIdx: ti, Locals: []ValType{I64}, Code: f},
		Func{TypeIdx: gi, Code: g},
	)
	m.Exports = append(m.Exports,
		Export{Name: "f", Kind: ExtFunc, Idx: 0},
		Export{Name: "g", Kind: ExtFunc, Idx: 1},
	)
	in := instantiate(t, m)
	if res, err := in.Invoke("g"); err != nil || res[0] != 99000 {
		t.Fatalf("g() = %v, %v; want 99000", res, err)
	}
	for _, c := range []struct{ x, want uint64 }{{1, 99}, {0, 0}} {
		if res, err := in.Invoke("f", c.x); err != nil || res[0] != c.want {
			t.Fatalf("f(%d) = %v, %v; want %d", c.x, res, err, c.want)
		}
	}
}

// callLoopModule exports loop(k), which calls leaf(x) = x + 1 k times and
// returns k.
func callLoopModule() *Module {
	m := &Module{}
	ti := m.AddType(FuncType{Params: []ValType{I64}, Results: []ValType{I64}})
	leaf := []byte{OpLocalGet, 0, OpI64Const, 1, OpI64Add, OpEnd}
	var c []byte
	// local 0 = k (counts down), local 1 = acc
	c = append(c, OpBlock, BlockEmpty, OpLoop, BlockEmpty)
	c = append(c, OpLocalGet, 0, OpI64Eqz, OpBrIf, 1)
	c = append(c, OpLocalGet, 1, OpCall, 0, OpLocalSet, 1)
	c = append(c, OpLocalGet, 0, OpI64Const, 1, OpI64Sub, OpLocalSet, 0)
	c = append(c, OpBr, 0, OpEnd, OpEnd)
	c = append(c, OpLocalGet, 1, OpEnd)
	m.Funcs = append(m.Funcs,
		Func{TypeIdx: ti, Code: leaf},
		Func{TypeIdx: ti, Locals: []ValType{I64}, Code: c},
	)
	m.Exports = append(m.Exports, Export{Name: "loop", Kind: ExtFunc, Idx: 1})
	return m
}

func TestCallsDoNotAllocate(t *testing.T) {
	in := instantiate(t, callLoopModule())
	allocs := func(k uint64) float64 {
		var err error
		n := testing.AllocsPerRun(5, func() {
			var res []uint64
			res, err = in.Invoke("loop", k)
			if err == nil && res[0] != k {
				t.Fatalf("loop(%d) = %d", k, res[0])
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	if small, large := allocs(100), allocs(10_000); small != large {
		t.Fatalf("allocations grow with the call count: %v at k=100, %v at k=10000", small, large)
	}
}

// TestCallDepthLimit runs a self-recursive f(n) = n == 0 ? 0 : f(n-1) + 1.
// f(19999) holds 20,000 frames, the limit, and succeeds; f(20000) needs
// one more and traps. The instance must then complete a good call.
func TestCallDepthLimit(t *testing.T) {
	m := &Module{}
	ti := m.AddType(FuncType{Params: []ValType{I64}, Results: []ValType{I64}})
	var c []byte
	c = append(c, OpLocalGet, 0, OpI64Eqz, OpIf, byte(I64))
	c = append(c, OpI64Const, 0)
	c = append(c, OpElse)
	c = append(c, OpLocalGet, 0, OpI64Const, 1, OpI64Sub, OpCall, 0, OpI64Const, 1, OpI64Add)
	c = append(c, OpEnd, OpEnd)
	m.Funcs = append(m.Funcs, Func{TypeIdx: ti, Code: c})
	m.Exports = append(m.Exports, Export{Name: "f", Kind: ExtFunc, Idx: 0})
	in := instantiate(t, m)
	if res, err := in.Invoke("f", maxFrames-1); err != nil || res[0] != maxFrames-1 {
		t.Fatalf("f(%d) = %v, %v; want %d", maxFrames-1, res, err, maxFrames-1)
	}
	var trap *Trap
	if _, err := in.Invoke("f", maxFrames); !errors.As(err, &trap) || trap.Msg != "call stack exhausted" {
		t.Fatalf("f(%d) = %v, want the call stack exhausted trap", maxFrames, err)
	}
	if res, err := in.Invoke("f", 7); err != nil || res[0] != 7 {
		t.Fatalf("f(7) after the trap = %v, %v; want 7", res, err)
	}
}

// TestNoHostCallPastFuel runs three host calls, the k-th one the 2k-th
// instr of a body that costs 7, at every budget up to that cost. A call
// is charged before it runs, so a budget of b makes exactly the calls at
// instrs up to b, and only a budget of 7 or more succeeds.
func TestNoHostCallPastFuel(t *testing.T) {
	m := &Module{}
	ti := m.AddType(FuncType{Params: []ValType{I64}})
	fi := m.AddType(FuncType{})
	m.Imports = append(m.Imports, Import{Module: "env", Name: "tick", TypeIdx: ti})
	var code []byte
	for k := byte(1); k <= 3; k++ {
		code = append(code, OpI64Const, k, OpCall, 0)
	}
	m.Funcs = append(m.Funcs, Func{TypeIdx: fi, Code: append(code, OpEnd)})
	m.Exports = append(m.Exports, Export{Name: "f", Kind: ExtFunc, Idx: 1})
	var ticks []uint64
	in, err := NewInstance(m, map[string]HostFunc{"env.tick": {
		Type: FuncType{Params: []ValType{I64}},
		Fn: func(args []uint64) ([]uint64, error) {
			ticks = append(ticks, args[0])
			return nil, nil
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	const cost = 7
	for budget := int64(0); budget <= cost; budget++ {
		ticks = nil
		in.Fuel = budget
		_, err := in.Invoke("f")
		if errors.Is(err, ErrFuel) != (budget < cost) {
			t.Fatalf("budget %d of %d: got %v", budget, cost, err)
		}
		if want := min(int(budget/2), 3); len(ticks) != want {
			t.Fatalf("budget %d made host calls %v, want %d", budget, ticks, want)
		}
	}
}
