package thorin

// Benchmark harness: one benchmark family per table/figure of the paper's
// evaluation (see DESIGN.md for the experiment index). Run with
//
//	go test -bench=. -benchmem
//
// Wall-clock numbers measure this substrate (a bytecode VM); the
// per-operation metrics (instrs/op, closures/op, φs, IR node counts) are the
// deterministic quantities the experiment conclusions rest on.

import (
	"fmt"
	"testing"

	"thorin/internal/analysis"
	"thorin/internal/backend"
	"thorin/internal/bench"
	"thorin/internal/driver"
	"thorin/internal/impala"
	"thorin/internal/pm"
	"thorin/internal/ssa"
	"thorin/internal/transform"
	"thorin/internal/vm"
)

// sizeOf keeps `go test -bench=.` at laptop scale.
func sizeOf(p *bench.Program) int64 {
	if n, ok := bench.FastSizes[p.Name]; ok {
		return n
	}
	return p.DefaultN
}

// compileArm compiles one (source, pipeline) pair once.
func compileArm(b *testing.B, src string, p bench.Pipeline) *vm.Program {
	b.Helper()
	switch p {
	case bench.Baseline:
		prog, _, err := driver.CompileSSA(src)
		if err != nil {
			b.Fatal(err)
		}
		return prog
	default:
		res, err := driver.CompileSpec(src, p.Spec(), analysis.ScheduleSmart, driver.Config{})
		if err != nil {
			b.Fatal(err)
		}
		return res.Program
	}
}

// execArm runs a compiled program once and returns the counters.
func execArm(b *testing.B, prog *vm.Program, n int64) vm.Counters {
	b.Helper()
	_, c, err := driver.Exec(backend.VM, prog, nil, nil, 0, n)
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// BenchmarkTable1IRSize measures frontend IR construction per benchmark and
// reports the IR sizes of both frontends (Table 1).
func BenchmarkTable1IRSize(b *testing.B) {
	for i := range bench.Suite {
		p := &bench.Suite[i]
		b.Run(p.Name, func(b *testing.B) {
			var conts, primops int
			for i := 0; i < b.N; i++ {
				w, err := impala.Compile(p.Functional)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := transform.CleanupWith(w, nil); err != nil {
					b.Fatal(err)
				}
				m := driver.MeasureIR(w)
				conts, primops = m.Continuations, m.PrimOps
			}
			_, mod, err := driver.CompileSSA(p.Functional)
			if err != nil {
				b.Fatal(err)
			}
			phis, instrs := 0, 0
			for _, f := range mod.Funcs {
				phis += f.NumPhis()
				instrs += f.NumInstrs()
			}
			b.ReportMetric(float64(conts), "conts")
			b.ReportMetric(float64(primops), "primops")
			b.ReportMetric(float64(instrs), "ssa-instrs")
			b.ReportMetric(float64(phis), "ssa-phis")
		})
	}
}

// BenchmarkTable2Closures runs each functional benchmark unoptimized and
// optimized, reporting runtime closure allocations and indirect calls
// (Table 2).
func BenchmarkTable2Closures(b *testing.B) {
	for i := range bench.Suite {
		p := &bench.Suite[i]
		n := sizeOf(p)
		for _, arm := range []bench.Pipeline{bench.ThorinO0, bench.ThorinOpt} {
			b.Run(fmt.Sprintf("%s/%s", p.Name, arm), func(b *testing.B) {
				prog := compileArm(b, p.Functional, arm)
				var c vm.Counters
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					c = execArm(b, prog, n)
				}
				b.ReportMetric(float64(c.ClosureAllocs), "closures/op")
				b.ReportMetric(float64(c.IndirectCalls), "icalls/op")
			})
		}
	}
}

// BenchmarkFigureRuntime is the headline comparison: wall time and executed
// instructions of every arm of every benchmark (Figure "runtime").
func BenchmarkFigureRuntime(b *testing.B) {
	arms := []struct {
		name       string
		functional bool
		pipe       bench.Pipeline
	}{
		{"imp-ssa", false, bench.Baseline},
		{"imp-thorinO2", false, bench.ThorinOpt},
		{"fun-thorinO2", true, bench.ThorinOpt},
		{"fun-nomangle", true, bench.ThorinNoMangle},
		{"fun-thorinO0", true, bench.ThorinO0},
		{"fun-ssa", true, bench.Baseline},
	}
	for i := range bench.Suite {
		p := &bench.Suite[i]
		n := sizeOf(p)
		for _, arm := range arms {
			src := p.Imperative
			if arm.functional {
				src = p.Functional
			}
			b.Run(fmt.Sprintf("%s/%s", p.Name, arm.name), func(b *testing.B) {
				prog := compileArm(b, src, arm.pipe)
				var c vm.Counters
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					c = execArm(b, prog, n)
				}
				b.ReportMetric(float64(c.Instructions), "instrs/op")
			})
		}
	}
}

// BenchmarkFigureSweep measures per-element overhead growth with input size
// for the two most closure-heavy benchmarks (Figure "sweep").
func BenchmarkFigureSweep(b *testing.B) {
	for _, name := range []string{"mapreduce", "compose"} {
		p := bench.Find(name)
		for _, n := range []int64{1000, 10000, 100000} {
			for _, arm := range []bench.Pipeline{bench.ThorinOpt, bench.ThorinO0, bench.Baseline} {
				b.Run(fmt.Sprintf("%s/n%d/%s", name, n, arm), func(b *testing.B) {
					prog := compileArm(b, p.Functional, arm)
					var c vm.Counters
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						c = execArm(b, prog, n)
					}
					b.ReportMetric(float64(c.Instructions)/float64(n), "instrs/elem")
				})
			}
		}
	}
}

// BenchmarkTable3SSA compares φ-functions placed by the classical SSA
// construction with the parameters mem2reg introduces on the CPS graph
// (Table 3). The timed section is the SSA construction itself.
func BenchmarkTable3SSA(b *testing.B) {
	for i := range bench.Suite {
		p := &bench.Suite[i]
		b.Run(p.Name, func(b *testing.B) {
			var phis int
			for i := 0; i < b.N; i++ {
				prog, err := impala.Parse(p.Imperative)
				if err != nil {
					b.Fatal(err)
				}
				if err := impala.Check(prog); err != nil {
					b.Fatal(err)
				}
				mod, err := ssa.Build(prog)
				if err != nil {
					b.Fatal(err)
				}
				phis = 0
				for _, f := range mod.Funcs {
					phis += f.NumPhis()
				}
			}
			res, err := driver.CompileSpec(p.Imperative, transform.O1, analysis.ScheduleSmart, driver.Config{})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(phis), "ssa-phis")
			b.ReportMetric(float64(res.Stats.Mem2Reg.PhiParams), "m2r-params")
		})
	}
}

// BenchmarkTable4Compile measures whole-pipeline compile time over synthetic
// higher-order chains (Table 4).
func BenchmarkTable4Compile(b *testing.B) {
	for _, depth := range []int{25, 50, 100, 200} {
		src := bench.GenChain(depth)
		b.Run(fmt.Sprintf("thorin/depth%d", depth), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := driver.CompileSpec(src, transform.O2, analysis.ScheduleSmart, driver.Config{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("ssa/depth%d", depth), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := driver.CompileSSA(src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPassTimings measures the full -O2 pipeline per benchmark and
// reports a per-pass wall-time breakdown from the pass manager's
// instrumentation (Table 5). Fix-group iterations are aggregated per pass;
// the runs metric shows how many times each pass actually fired.
func BenchmarkPassTimings(b *testing.B) {
	for i := range bench.Suite {
		p := &bench.Suite[i]
		b.Run(p.Name, func(b *testing.B) {
			var res *driver.Result
			var err error
			for i := 0; i < b.N; i++ {
				res, err = driver.CompileSpec(p.Functional, transform.O2, analysis.ScheduleSmart, driver.Config{})
				if err != nil {
					b.Fatal(err)
				}
			}
			for _, t := range res.Report.PassTotals() {
				b.ReportMetric(float64(t.Time.Microseconds()), t.Name+"-µs/op")
				b.ReportMetric(float64(t.Runs), t.Name+"-runs")
			}
		})
	}
}

// BenchmarkAblationConsing reports IR node counts with and without
// hash-consing (ablation A1).
func BenchmarkAblationConsing(b *testing.B) {
	for i := range bench.Suite {
		p := &bench.Suite[i]
		b.Run(p.Name, func(b *testing.B) {
			var on, off int
			for i := 0; i < b.N; i++ {
				w1, err := impala.Compile(p.Functional)
				if err != nil {
					b.Fatal(err)
				}
				w2, err := impala.CompileNoCons(p.Functional)
				if err != nil {
					b.Fatal(err)
				}
				on, off = w1.NumPrimOps(), w2.NumPrimOps()
			}
			b.ReportMetric(float64(on), "consed")
			b.ReportMetric(float64(off), "unconsed")
		})
	}
}

// BenchmarkAblationSchedule compares the three primop placement strategies
// (ablation A1).
func BenchmarkAblationSchedule(b *testing.B) {
	modes := []struct {
		name string
		mode analysis.Mode
	}{{"early", analysis.ScheduleEarly}, {"late", analysis.ScheduleLate}, {"smart", analysis.ScheduleSmart}}
	for _, name := range []string{"mandelbrot", "matmul", "nbody"} {
		p := bench.Find(name)
		n := sizeOf(p)
		for _, m := range modes {
			b.Run(fmt.Sprintf("%s/%s", name, m.name), func(b *testing.B) {
				res, err := driver.CompileSpec(p.Imperative, transform.O2, m.mode, driver.Config{})
				if err != nil {
					b.Fatal(err)
				}
				var c vm.Counters
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					c = execArm(b, res.Program, n)
				}
				b.ReportMetric(float64(c.Instructions), "instrs/op")
			})
		}
	}
}

// BenchmarkAblationMem2Reg compares runtime memory traffic with and without
// slot promotion (ablation A1).
func BenchmarkAblationMem2Reg(b *testing.B) {
	for _, name := range []string{"mapreduce", "mandelbrot", "qsort"} {
		p := bench.Find(name)
		n := sizeOf(p)
		withoutMem2Reg, _, err := pm.StripPass(transform.O2, "mem2reg")
		if err != nil {
			b.Fatal(err)
		}
		for _, arm := range []struct{ label, spec string }{{"with", transform.O2}, {"without", withoutMem2Reg}} {
			spec := arm.spec
			b.Run(fmt.Sprintf("%s/%s", name, arm.label), func(b *testing.B) {
				res, err := driver.CompileSpec(p.Imperative, spec, analysis.ScheduleSmart, driver.Config{})
				if err != nil {
					b.Fatal(err)
				}
				var c vm.Counters
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					c = execArm(b, res.Program, n)
				}
				b.ReportMetric(float64(c.Loads+c.Stores), "memops/op")
			})
		}
	}
}
