package bench

import (
	"errors"
	"testing"

	"thorin/internal/analysis"
	"thorin/internal/backend"
	wasmbackend "thorin/internal/backend/wasm"
	"thorin/internal/driver"
	"thorin/internal/impala"
	"thorin/internal/vm"
	"thorin/internal/wasm"
)

// limitN is the argument each suite program is checked at: the oracle n
// the repository benchmark (perfbench) checks compiled programs at.
var limitN = map[string]int64{
	"fib": 12, "mapreduce": 300, "filter": 300, "compose": 200, "mandelbrot": 8,
	"nbody": 20, "spectralnorm": 8, "qsort": 100, "matmul": 8, "nqueens": 5,
}

// TestEngineLimitsAreExact pins the VM step limit and the wasm fuel budget
// to one unit per instruction, checked before the instruction runs: a
// budget of exactly the counted cost C succeeds with the reference
// interpreter's result, and C-1 runs out.
func TestEngineLimitsAreExact(t *testing.T) {
	two := 2
	spec, err := (&driver.Request{Opt: &two}).ResolvedSpec()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range Suite {
		for _, v := range []struct{ name, src string }{
			{"functional", p.Functional}, {"imperative", p.Imperative},
		} {
			n := limitN[p.Name]
			t.Run(p.Name+"/"+v.name, func(t *testing.T) {
				want := interpret(t, v.src, n)
				compile := func(target backend.Target) *driver.Result {
					res, err := driver.CompileSpec(v.src, spec, analysis.ScheduleSmart,
						driver.Config{Jobs: 1, Target: target})
					if err != nil {
						t.Fatal(err)
					}
					return res
				}

				prog := compile(backend.VM).Program
				_, ctr, err := driver.ExecSteps(prog, nil, 0, n)
				if err != nil {
					t.Fatal(err)
				}
				c := ctr.Instructions
				if got, _, err := driver.ExecSteps(prog, nil, c, n); err != nil || got != want {
					t.Errorf("vm with %d steps = %d, %v; want %d", c, got, err, want)
				}
				if _, _, err := driver.ExecSteps(prog, nil, c-1, n); !errors.Is(err, vm.ErrStepLimit) {
					t.Errorf("vm with %d steps: got %v, want %v", c-1, err, vm.ErrStepLimit)
				}

				mod := compile(backend.Wasm).Wasm
				c = fuelSpent(t, mod, n)
				if got, err := driver.ExecWasm(mod, nil, c, n); err != nil || got != want {
					t.Errorf("wasm with %d fuel = %d, %v; want %d", c, got, err, want)
				}
				if _, err := driver.ExecWasm(mod, nil, c-1, n); !errors.Is(err, wasm.ErrFuel) {
					t.Errorf("wasm with %d fuel: got %v, want %v", c-1, err, wasm.ErrFuel)
				}
			})
		}
	}
}

// interpret runs src's main(n) on the reference interpreter.
func interpret(t *testing.T, src string, n int64) int64 {
	t.Helper()
	prog, err := impala.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := impala.Check(prog); err != nil {
		t.Fatal(err)
	}
	in, err := impala.NewInterp(prog, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	v, err := in.Run(n)
	if err != nil {
		t.Fatal(err)
	}
	return v.I
}

// fuelSpent runs mod's main(n) and returns the fuel it spent.
func fuelSpent(t *testing.T, mod []byte, n int64) int64 {
	t.Helper()
	m, err := wasm.Decode(mod)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := wasm.NewInstance(m, wasmbackend.Host(nil))
	if err != nil {
		t.Fatal(err)
	}
	const budget = 1 << 40
	inst.Fuel = budget
	if _, err := inst.Invoke("main", uint64(n)); err != nil {
		t.Fatal(err)
	}
	return budget - inst.Fuel
}
