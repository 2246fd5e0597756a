package bench

import (
	"errors"
	"testing"

	"thorin/internal/analysis"
	"thorin/internal/backend"
	wasmbackend "thorin/internal/backend/wasm"
	"thorin/internal/driver"
	"thorin/internal/impala"
	"thorin/internal/transform"
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

// TestBackendCountsAreExact pins the dynamic cost of every suite program
// (functional variant, -O2, jobs 1) on both backends: the VM's instruction
// count and the wasm fuel spent, one unit per executed instruction. The
// two machines must also agree on the result. Both counts are
// deterministic, so any change to lowering, instruction selection or the
// emitters shows up here as an exact diff.
func TestBackendCountsAreExact(t *testing.T) {
	want := map[string]struct{ n, vmInstrs, fuel, result int64 }{
		"fib":          {22, 429847, 687755, 17711},
		"mapreduce":    {3000, 126024, 567133, 8995503500},
		"filter":       {3000, 84024, 436092, 500499},
		"compose":      {2000, 26009, 54011, 3988000},
		"mandelbrot":   {40, 816468, 2151836, 423},
		"nbody":        {100, 93490, 532449, 4665475},
		"spectralnorm": {40, 390362, 1256975, 1261175052},
		"qsort":        {500, 86351, 459541, 272606},
		"matmul":       {40, 1109149, 4727535, 2299028},
		"nqueens":      {8, 1687469, 5809703, 92},
	}
	if len(want) != len(Suite) {
		t.Fatalf("%d pinned programs, suite has %d", len(want), len(Suite))
	}
	for _, p := range Suite {
		w, ok := want[p.Name]
		if !ok {
			t.Errorf("%s: no pinned counts", p.Name)
			continue
		}
		compile := func(target backend.Target) *driver.Result {
			res, err := driver.CompileSpec(p.Functional, transform.O2, analysis.ScheduleSmart,
				driver.Config{Jobs: 1, Target: target})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		vmGot, ctr, err := driver.ExecSteps(compile(backend.VM).Program, nil, 0, w.n)
		if err != nil {
			t.Fatal(err)
		}
		mod := compile(backend.Wasm).Wasm
		fuel := fuelSpent(t, mod, w.n)
		wasmGot, err := driver.ExecWasm(mod, nil, fuel, w.n)
		if err != nil {
			t.Fatal(err)
		}
		if vmGot != wasmGot {
			t.Errorf("%s(%d): vm = %d, wasm = %d", p.Name, w.n, vmGot, wasmGot)
		}
		if ctr.Instructions != w.vmInstrs || fuel != w.fuel || vmGot != w.result {
			t.Errorf("%s(%d): %d VM instructions, %d fuel, result %d; want %d, %d, %d",
				p.Name, w.n, ctr.Instructions, fuel, vmGot, w.vmInstrs, w.fuel, w.result)
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
