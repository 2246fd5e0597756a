package bench

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"thorin/internal/analysis"
	"thorin/internal/driver"
	"thorin/internal/impala"
	"thorin/internal/pm"
	"thorin/internal/transform"
)

// Sizes optionally overrides per-benchmark problem sizes (nil = defaults).
type Sizes map[string]int64

// FastSizes are the reduced problem sizes of `thorin-bench -fast` and of the
// root package's go-test benchmarks: laptop scale, seconds per table.
var FastSizes = Sizes{
	"fib": 18, "mapreduce": 3000, "filter": 3000, "compose": 3000,
	"mandelbrot": 16, "nbody": 200, "spectralnorm": 16, "qsort": 1000,
	"matmul": 12, "nqueens": 7,
}

func (s Sizes) of(p *Program) int64 {
	if s != nil {
		if n, ok := s[p.Name]; ok {
			return n
		}
	}
	return p.DefaultN
}

// Table1 prints the benchmark and IR statistics table: source size and the
// sizes of the unoptimized IRs produced by both frontends. The graph IR
// counts continuations + hash-consed primop nodes; the baseline counts SSA
// instructions + φ-functions.
func Table1(w io.Writer, sizes Sizes) error {
	fmt.Fprintf(w, "Table 1: benchmark suite and IR statistics (functional variants)\n")
	fmt.Fprintf(w, "%-14s %6s %6s | %8s %9s | %9s %6s\n",
		"benchmark", "LoC-f", "LoC-i", "θ-conts", "θ-primops", "ssa-instr", "ssa-φ")
	for i := range Suite {
		p := &Suite[i]
		world, err := impala.Compile(p.Functional)
		if err != nil {
			return fmt.Errorf("%s: %w", p.Name, err)
		}
		if _, err := transform.CleanupWith(world, nil); err != nil {
			return fmt.Errorf("%s: %w", p.Name, err)
		}
		ir := driver.MeasureIR(world)

		_, mod, err := driver.CompileSSA(p.Functional)
		if err != nil {
			return fmt.Errorf("%s: %w", p.Name, err)
		}
		ssaInstrs, ssaPhis := 0, 0
		for _, f := range mod.Funcs {
			ssaInstrs += f.NumInstrs()
			ssaPhis += f.NumPhis()
		}
		fmt.Fprintf(w, "%-14s %6d %6d | %8d %9d | %9d %6d\n",
			p.Name, LinesOfCode(p.Functional), LinesOfCode(p.Imperative),
			ir.Continuations, ir.PrimOps, ssaInstrs, ssaPhis)
	}
	return nil
}

// Table2 prints the closure-elimination table: runtime closure allocations
// and indirect calls of the functional variants before and after conversion
// to control-flow form, plus the number of continuations still violating
// CFF after optimization.
func Table2(w io.Writer, sizes Sizes) error {
	fmt.Fprintf(w, "Table 2: higher-order overhead before/after lambda mangling (functional variants)\n")
	fmt.Fprintf(w, "%-14s %8s | %10s %10s | %10s %10s | %6s\n",
		"benchmark", "n", "O0-clos", "O0-icalls", "O2-clos", "O2-icalls", "resid")
	for i := range Suite {
		p := &Suite[i]
		n := sizes.of(p)
		o0, err := Run(p.Functional, ThorinO0, n)
		if err != nil {
			return fmt.Errorf("%s: %w", p.Name, err)
		}
		o2, err := Run(p.Functional, ThorinOpt, n)
		if err != nil {
			return fmt.Errorf("%s: %w", p.Name, err)
		}
		fmt.Fprintf(w, "%-14s %8d | %10d %10d | %10d %10d | %6d\n",
			p.Name, n,
			o0.Counters.ClosureAllocs, o0.Counters.IndirectCalls,
			o2.Counters.ClosureAllocs, o2.Counters.IndirectCalls,
			o2.IR.HigherOrder)
	}
	return nil
}

// FigureRuntime prints the headline runtime comparison: executed VM
// instructions of each arm, normalized to the imperative variant compiled
// through the classical SSA baseline ( = 1.00).
func FigureRuntime(w io.Writer, sizes Sizes) error {
	fmt.Fprintf(w, "Figure 'runtime': executed instructions normalized to imperative/ssa-baseline\n")
	fmt.Fprintf(w, "%-14s %8s | %9s %9s | %9s %9s %9s %9s\n",
		"benchmark", "n", "imp/ssa", "imp/θO2", "fun/θO2", "fun/nomng", "fun/θO0", "fun/ssa")
	for i := range Suite {
		p := &Suite[i]
		n := sizes.of(p)
		ref, err := Run(p.Imperative, Baseline, n)
		if err != nil {
			return fmt.Errorf("%s: %w", p.Name, err)
		}
		norm := func(r RunResult) float64 {
			return float64(r.Counters.Instructions) / float64(ref.Counters.Instructions)
		}
		cells := []float64{1.0}
		for _, arm := range []struct {
			src string
			p   Pipeline
		}{
			{p.Imperative, ThorinOpt},
			{p.Functional, ThorinOpt},
			{p.Functional, ThorinNoMangle},
			{p.Functional, ThorinO0},
			{p.Functional, Baseline},
		} {
			r, err := Run(arm.src, arm.p, n)
			if err != nil {
				return fmt.Errorf("%s %s: %w", p.Name, arm.p, err)
			}
			if r.Checksum != ref.Checksum {
				return fmt.Errorf("%s %s: checksum mismatch", p.Name, arm.p)
			}
			cells = append(cells, norm(r))
		}
		fmt.Fprintf(w, "%-14s %8d | %9.2f %9.2f | %9.2f %9.2f %9.2f %9.2f\n",
			p.Name, n, cells[0], cells[1], cells[2], cells[3], cells[4], cells[5])
	}
	return nil
}

// FigureSweep prints the input-size sweep for two higher-order benchmarks:
// instructions per element, showing that the un-mangled overhead is
// per-element (structural) rather than constant.
func FigureSweep(w io.Writer) error {
	fmt.Fprintf(w, "Figure 'sweep': instructions per element over input size (functional variants)\n")
	fmt.Fprintf(w, "%-12s %8s | %10s %10s %10s\n",
		"benchmark", "n", "θO2", "θO0", "ssa")
	for _, name := range []string{"mapreduce", "compose"} {
		p := Find(name)
		for _, n := range []int64{1000, 3000, 10000, 30000, 100000} {
			var per [3]float64
			for i, pipe := range []Pipeline{ThorinOpt, ThorinO0, Baseline} {
				r, err := Run(p.Functional, pipe, n)
				if err != nil {
					return fmt.Errorf("%s n=%d %s: %w", name, n, pipe, err)
				}
				per[i] = float64(r.Counters.Instructions) / float64(n)
			}
			fmt.Fprintf(w, "%-12s %8d | %10.2f %10.2f %10.2f\n", name, n, per[0], per[1], per[2])
		}
	}
	return nil
}

// Table3 prints the SSA-construction comparison: φ-functions placed by the
// classical Braun construction vs. continuation parameters introduced by
// mem2reg on the CPS graph, for the imperative variants (where mutable
// variables dominate).
func Table3(w io.Writer) error {
	fmt.Fprintf(w, "Table 3: φ-functions (classical SSA) vs parameters introduced by mem2reg (graph IR)\n")
	fmt.Fprintf(w, "%-14s | %8s | %12s\n", "benchmark", "ssa-φ", "m2r-params")
	for i := range Suite {
		p := &Suite[i]
		base, err := Run(p.Imperative, Baseline, 1)
		if err != nil {
			return fmt.Errorf("%s: %w", p.Name, err)
		}
		th, err := Run(p.Imperative, ThorinNoMangle, 1)
		if err != nil {
			return fmt.Errorf("%s: %w", p.Name, err)
		}
		fmt.Fprintf(w, "%-14s | %8d | %12d\n", p.Name, base.SSAPhis, th.Mem2RegPhis)
	}
	return nil
}

// TablePasses prints the per-pass compile-time breakdown of the full
// pipeline (functional variants, -O2), from the pass manager's
// instrumentation: how often each pass ran (fix iterations included), how
// long it took in total, and how many rewrites it applied.
func TablePasses(w io.Writer) error {
	fmt.Fprintf(w, "Table 5: per-pass compile time (functional variants, θO2)\n")
	header := false
	for i := range Suite {
		p := &Suite[i]
		res, err := driver.CompileSpec(p.Functional, transform.O2, analysis.ScheduleSmart, driver.Config{})
		if err != nil {
			return fmt.Errorf("%s: %w", p.Name, err)
		}
		totals := res.Report.PassTotals()
		if !header {
			fmt.Fprintf(w, "%-14s |", "benchmark")
			for _, t := range totals {
				fmt.Fprintf(w, " %11s", t.Name)
			}
			fmt.Fprintf(w, " | %9s\n", "total")
			header = true
		}
		fmt.Fprintf(w, "%-14s |", p.Name)
		for _, t := range totals {
			fmt.Fprintf(w, " %9dµs", t.Time.Microseconds())
		}
		fmt.Fprintf(w, " | %7dµs\n", res.Report.Total.Microseconds())
	}
	return nil
}

// Table4 prints compile-time scaling over synthetic higher-order call
// chains of increasing depth.
func Table4(w io.Writer) error {
	fmt.Fprintf(w, "Table 4: compile time over higher-order chain depth\n")
	fmt.Fprintf(w, "%8s | %12s %10s | %12s\n", "depth", "θO2-time", "θO2-conts", "ssa-time")
	for _, depth := range []int{25, 50, 100, 200, 400} {
		src := GenChain(depth)
		start := time.Now()
		res, err := driver.CompileSpec(src, transform.O2, analysis.ScheduleSmart, driver.Config{})
		if err != nil {
			return fmt.Errorf("depth %d: %w", depth, err)
		}
		tTime := time.Since(start)

		start = time.Now()
		if _, _, err := driver.CompileSSA(src); err != nil {
			return fmt.Errorf("depth %d ssa: %w", depth, err)
		}
		sTime := time.Since(start)
		fmt.Fprintf(w, "%8d | %12s %10d | %12s\n",
			depth, tTime.Round(time.Microsecond), res.IRStats.Continuations,
			sTime.Round(time.Microsecond))
	}
	return nil
}

// TableJobs prints compile-time scaling of the parallel scope scheduler: a
// synthetic module of many independent top-level functions is compiled with
// 1, 2, 4, and 8 analysis workers. The output IR is identical at every jobs
// level (see TestParallelJobsIdentical); only wall-clock time may change.
// Each cell is the minimum over a few repetitions, which filters scheduler
// and GC noise better than the mean.
func TableJobs(w io.Writer) error {
	procs := runtime.GOMAXPROCS(0)
	fmt.Fprintf(w, "Table 6: compile time vs analysis workers (-jobs), %d independent functions, GOMAXPROCS=%d\n",
		jobsTableFns, procs)
	fmt.Fprintf(w, "%8s | %12s %12s | %8s %8s\n",
		"jobs", "compile", "par-phase", "speedup", "par-spd")
	src := GenManyFns(jobsTableFns)
	spec := transform.O1
	var baseTotal, basePar time.Duration
	for _, jobs := range []int{1, 2, 4, 8} {
		total, par, err := compileJobs(src, spec, jobs)
		if err != nil {
			return fmt.Errorf("jobs=%d: %w", jobs, err)
		}
		if jobs == 1 {
			baseTotal, basePar = total, par
		}
		fmt.Fprintf(w, "%8d | %12s %12s | %7.2fx %7.2fx\n",
			jobs, total.Round(time.Microsecond), par.Round(time.Microsecond),
			float64(baseTotal)/float64(total), float64(basePar)/float64(par))
	}
	if procs < 4 {
		fmt.Fprintf(w, "(host has GOMAXPROCS=%d: workers time-slice, so no wall-clock speedup is possible here)\n", procs)
	}
	return nil
}

// jobsTableFns sizes the TableJobs workload: enough independent top-level
// scopes that an 8-worker analysis phase stays saturated.
const jobsTableFns = 64

// compileJobs compiles src with the given worker count and returns the best
// total compile time and the best parallel-phase time (the summed wall clock
// of the scope-level passes that actually ran with workers) over a few reps.
func compileJobs(src, spec string, jobs int) (total, par time.Duration, err error) {
	const reps = 5
	for r := 0; r < reps; r++ {
		start := time.Now()
		res, cerr := driver.CompileSpec(src, spec, analysis.ScheduleSmart,
			driver.Config{Jobs: jobs})
		if cerr != nil {
			return 0, 0, cerr
		}
		d := time.Since(start)
		var p time.Duration
		for _, run := range res.Report.Runs {
			if run.Parallelism > 0 {
				p += run.Time
			}
		}
		if r == 0 || d < total {
			total = d
		}
		if r == 0 || p < par {
			par = p
		}
	}
	return total, par, nil
}

// AblationConsing prints IR node counts with and without hash-consing
// (global value numbering as a by-product of construction).
func AblationConsing(w io.Writer) error {
	fmt.Fprintf(w, "Ablation: hash-consing (IR nodes after lowering, functional variants)\n")
	fmt.Fprintf(w, "%-14s | %10s %10s | %7s\n", "benchmark", "consed", "unconsed", "ratio")
	for i := range Suite {
		p := &Suite[i]
		on, err := impala.Compile(p.Functional)
		if err != nil {
			return err
		}
		off, err := impala.CompileNoCons(p.Functional)
		if err != nil {
			return err
		}
		a, b := on.NumPrimOps(), off.NumPrimOps()
		fmt.Fprintf(w, "%-14s | %10d %10d | %6.2fx\n", p.Name, a, b, float64(b)/float64(a))
	}
	return nil
}

// AblationSchedule prints executed instructions per scheduling mode
// (imperative variants, fully optimized).
func AblationSchedule(w io.Writer, sizes Sizes) error {
	fmt.Fprintf(w, "Ablation: primop scheduling mode (imperative variants, θO2, executed instructions)\n")
	fmt.Fprintf(w, "%-14s %8s | %12s %12s %12s\n", "benchmark", "n", "early", "late", "smart")
	for i := range Suite {
		p := &Suite[i]
		n := sizes.of(p)
		var cells [3]int64
		for mi, mode := range []analysis.Mode{analysis.ScheduleEarly, analysis.ScheduleLate, analysis.ScheduleSmart} {
			res, err := driver.CompileSpec(p.Imperative, transform.O2, mode, driver.Config{})
			if err != nil {
				return fmt.Errorf("%s: %w", p.Name, err)
			}
			_, c, err := driver.ExecSteps(res.Program, nil, 0, n)
			if err != nil {
				return fmt.Errorf("%s: %w", p.Name, err)
			}
			cells[mi] = c.Instructions
		}
		fmt.Fprintf(w, "%-14s %8d | %12d %12d %12d\n", p.Name, n, cells[0], cells[1], cells[2])
	}
	return nil
}

// AblationMem2Reg prints runtime memory traffic with and without slot
// promotion (imperative variants).
func AblationMem2Reg(w io.Writer, sizes Sizes) error {
	withoutMem2Reg, _, err := pm.StripPass(transform.O2, "mem2reg")
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Ablation: mem2reg (imperative variants, loads+stores executed)\n")
	fmt.Fprintf(w, "%-14s %8s | %12s %12s\n", "benchmark", "n", "with", "without")
	for i := range Suite {
		p := &Suite[i]
		n := sizes.of(p)
		var cells [2]int64
		for oi, spec := range []string{transform.O2, withoutMem2Reg} {
			res, err := driver.CompileSpec(p.Imperative, spec, analysis.ScheduleSmart, driver.Config{})
			if err != nil {
				return fmt.Errorf("%s: %w", p.Name, err)
			}
			_, c, err := driver.ExecSteps(res.Program, nil, 0, n)
			if err != nil {
				return fmt.Errorf("%s: %w", p.Name, err)
			}
			cells[oi] = c.Loads + c.Stores
		}
		fmt.Fprintf(w, "%-14s %8d | %12d %12d\n", p.Name, n, cells[0], cells[1])
	}
	return nil
}
