package bench

import (
	"testing"

	"thorin/internal/analysis"
	"thorin/internal/backend"
	"thorin/internal/driver"
	"thorin/internal/transform"
)

// The execution benchmarks time one engine on both variants of every suite
// program, compiled at -O2 before the timer starts. `make bench-diff`
// A/B-times them with the Optimize benchmarks; run them directly with
//
//	go test -short -run '^$' -bench 'Exec' -benchmem ./internal/bench
//
// (-short runs each program at its oracle size, limitN, instead of execN).

func BenchmarkExecVM(b *testing.B)   { benchExec(b, backend.VM) }
func BenchmarkExecWasm(b *testing.B) { benchExec(b, backend.Wasm) }

// execN is the argument each suite program runs at in the full
// benchmarks, the sizes of perfbench's execute workload.
var execN = map[string]int64{
	"fib": 20, "mapreduce": 4000, "filter": 6000, "compose": 32000, "mandelbrot": 32,
	"nbody": 120, "spectralnorm": 28, "qsort": 600, "matmul": 20, "nqueens": 7,
}

// benchExec runs every suite program once per iteration on target.
func benchExec(b *testing.B, target backend.Target) {
	sizes := execN
	if testing.Short() {
		sizes = limitN
	}
	type run struct {
		res *driver.Result
		n   int64
	}
	var runs []run
	for _, p := range Suite {
		for _, src := range []string{p.Functional, p.Imperative} {
			res, err := driver.CompileSpec(src, transform.O2, analysis.ScheduleSmart,
				driver.Config{Jobs: 1, Target: target})
			if err != nil {
				b.Fatal(err)
			}
			runs = append(runs, run{res, sizes[p.Name]})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range runs {
			if _, _, err := driver.Exec(r.res.Target, r.res.Program, r.res.Wasm, nil, 0, r.n); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// TestVMAddressingAllocatesNothing pins that forming an address allocates
// nothing. Imperative matmul runs a lea for every array access, O(n³) of
// them, yet must allocate exactly as much at n = 16 as at n = 8: its three
// arrays, the VM and the result.
func TestVMAddressingAllocatesNothing(t *testing.T) {
	res, err := driver.CompileSpec(Find("matmul").Imperative, transform.O2, analysis.ScheduleSmart,
		driver.Config{Jobs: 1, Target: backend.VM})
	if err != nil {
		t.Fatal(err)
	}
	run := func(n int64) (allocs float64, loads int64) {
		allocs = testing.AllocsPerRun(3, func() {
			_, ctr, err := driver.Exec(res.Target, res.Program, res.Wasm, nil, 0, n)
			if err != nil {
				t.Fatal(err)
			}
			loads = ctr.Loads
		})
		return allocs, loads
	}
	small, smallLoads := run(8)
	large, largeLoads := run(16)
	if largeLoads <= smallLoads {
		t.Fatalf("%d loads at n=16, %d at n=8: the workload no longer addresses memory", largeLoads, smallLoads)
	}
	if small != large {
		t.Fatalf("allocations grow with the address count: %v at n=8, %v at n=16", small, large)
	}
}
