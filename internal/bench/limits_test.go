package bench

import (
	"errors"
	"testing"

	"thorin/internal/analysis"
	"thorin/internal/backend"
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
// to one unit per instruction: a budget of exactly the counted cost C
// succeeds with the reference interpreter's result, and C-1 runs out.
// Both engines charge the budget once per straight-line run, so a run
// that runs out may have executed past C-1 instructions; only this
// boundary is exact.
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

				r := compile(backend.VM)
				c := spent(t, r, n)
				if got, _, err := driver.Exec(r.Target, r.Program, r.Wasm, nil, c, n); err != nil || got != want {
					t.Errorf("vm with %d steps = %d, %v; want %d", c, got, err, want)
				}
				if _, _, err := driver.Exec(r.Target, r.Program, r.Wasm, nil, c-1, n); !errors.Is(err, vm.ErrStepLimit) {
					t.Errorf("vm with %d steps: got %v, want %v", c-1, err, vm.ErrStepLimit)
				}

				r = compile(backend.Wasm)
				c = spent(t, r, n)
				if got, _, err := driver.Exec(r.Target, r.Program, r.Wasm, nil, c, n); err != nil || got != want {
					t.Errorf("wasm with %d fuel = %d, %v; want %d", c, got, err, want)
				}
				if _, _, err := driver.Exec(r.Target, r.Program, r.Wasm, nil, c-1, n); !errors.Is(err, wasm.ErrFuel) {
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
		r := compile(backend.VM)
		vmGot, ctr, err := driver.Exec(r.Target, r.Program, r.Wasm, nil, 0, w.n)
		if err != nil {
			t.Fatal(err)
		}
		r = compile(backend.Wasm)
		wasmGot, wctr, err := driver.Exec(r.Target, r.Program, r.Wasm, nil, 0, w.n)
		if err != nil {
			t.Fatal(err)
		}
		fuel := wctr.Instructions
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

// spent runs r's main(n) under the default budget and returns the
// steps or fuel it cost.
func spent(t *testing.T, r *driver.Result, n int64) int64 {
	t.Helper()
	_, ctr, err := driver.Exec(r.Target, r.Program, r.Wasm, nil, 0, n)
	if err != nil {
		t.Fatal(err)
	}
	return ctr.Instructions
}
