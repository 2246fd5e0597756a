package driver_test

// Parallel-determinism tests: compiling with the parallel scope scheduler
// must be bit-for-bit identical to the sequential compile — same printed IR
// (hence same gids, same canonical operand orders), same bytecode behavior,
// same VM counters — at every jobs level. This is the contract that makes
// -jobs safe to default on.

import (
	"bytes"
	"testing"

	"thorin/internal/analysis"
	"thorin/internal/bench"
	"thorin/internal/driver"
	"thorin/internal/ir"
	"thorin/internal/transform"
	"thorin/internal/vm"
)

// jobsN mirrors the small sizes of the equivalence sweep.
var jobsN = map[string]int64{
	"fib": 15, "mapreduce": 400, "filter": 400, "compose": 400,
	"mandelbrot": 8, "nbody": 40, "spectralnorm": 8, "qsort": 250,
	"matmul": 6, "nqueens": 5,
}

type jobsArm struct {
	irText   string
	value    int64
	output   string
	counters vm.Counters
}

func compileAt(t *testing.T, src, spec string, jobs int, n int64) jobsArm {
	t.Helper()
	res, err := driver.CompileSpec(src, spec, analysis.ScheduleSmart,
		driver.Config{Jobs: jobs, VerifyEach: true})
	if err != nil {
		t.Fatalf("jobs=%d: %v", jobs, err)
	}
	var irBuf, outBuf bytes.Buffer
	ir.Print(&irBuf, res.World)
	m := vm.New(res.Program, &outBuf)
	m.MaxSteps = 4_000_000_000
	vals, err := m.Run(vm.Value{I: n})
	if err != nil {
		t.Fatalf("jobs=%d: vm: %v", jobs, err)
	}
	var v int64
	if len(vals) > 0 {
		v = vals[0].I
	}
	return jobsArm{irText: irBuf.String(), value: v, output: outBuf.String(), counters: m.Counters}
}

func TestParallelJobsIdentical(t *testing.T) {
	spec := transform.O2
	for _, prog := range bench.Suite {
		n := jobsN[prog.Name]
		if n == 0 {
			n = 10
		}
		for _, variant := range []struct{ name, src string }{
			{"functional", prog.Functional},
			{"imperative", prog.Imperative},
		} {
			t.Run(prog.Name+"/"+variant.name, func(t *testing.T) {
				ref := compileAt(t, variant.src, spec, 1, n)
				for _, jobs := range []int{2, 8} {
					got := compileAt(t, variant.src, spec, jobs, n)
					if got.irText != ref.irText {
						t.Fatalf("jobs=%d: printed IR differs from jobs=1", jobs)
					}
					if got.value != ref.value || got.output != ref.output {
						t.Fatalf("jobs=%d: result %d/%q, want %d/%q",
							jobs, got.value, got.output, ref.value, ref.output)
					}
					if got.counters != ref.counters {
						t.Fatalf("jobs=%d: counters %+v, want %+v", jobs, got.counters, ref.counters)
					}
				}
			})
		}
	}
}

// TestParallelJobsIdenticalManyFns runs the same check on the synthetic
// many-function workload the speedup table uses, where the parallel phase
// actually has enough independent top-level scopes to matter.
func TestParallelJobsIdenticalManyFns(t *testing.T) {
	src := bench.GenManyFns(24)
	spec := transform.O1
	ref := compileAt(t, src, spec, 1, 50)
	for _, jobs := range []int{2, 4, 8} {
		got := compileAt(t, src, spec, jobs, 50)
		if got.irText != ref.irText {
			t.Fatalf("jobs=%d: printed IR differs from jobs=1", jobs)
		}
		if got.value != ref.value || got.counters != ref.counters {
			t.Fatalf("jobs=%d: execution differs from jobs=1", jobs)
		}
	}
	if ref.value == 0 {
		t.Fatal("synthetic workload returned 0; generator is broken")
	}
}
