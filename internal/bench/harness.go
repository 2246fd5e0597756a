package bench

import (
	"fmt"
	"strings"
	"time"

	"thorin/internal/analysis"
	"thorin/internal/driver"
	"thorin/internal/pm"
	"thorin/internal/transform"
	"thorin/internal/vm"
)

// Pipeline identifies one compilation configuration of the evaluation.
type Pipeline int

// The four pipelines compared by the experiments.
const (
	// ThorinOpt is the full graph-IR pipeline: partial evaluation, lambda
	// mangling to control-flow form, slot promotion, inlining.
	ThorinOpt Pipeline = iota
	// ThorinNoMangle runs the classical optimizations but never specializes
	// higher-order calls — the ablation isolating lambda mangling.
	ThorinNoMangle
	// ThorinO0 lowers the CPS graph directly (closure-converting whatever
	// is higher-order).
	ThorinO0
	// Baseline is the classical CFG/SSA pipeline with φ-functions and
	// closure records.
	Baseline
)

func (p Pipeline) String() string {
	switch p {
	case ThorinOpt:
		return "thorin-O2"
	case ThorinNoMangle:
		return "thorin-nomangle"
	case ThorinO0:
		return "thorin-O0"
	case Baseline:
		return "ssa-baseline"
	}
	return "?"
}

// Spec returns the pass-manager spec of a Thorin pipeline.
func (p Pipeline) Spec() string {
	switch p {
	case ThorinOpt:
		return transform.O2
	case ThorinNoMangle:
		// -O1: only slot promotion runs; single-use inlining is itself an
		// instance of lambda mangling, so it is off too.
		return transform.O1
	default:
		return transform.O0
	}
}

// RunResult is the outcome of compiling and executing one benchmark variant
// through one pipeline.
type RunResult struct {
	Checksum    int64
	Counters    vm.Counters
	CompileTime time.Duration
	// IR size after optimization (Thorin pipelines only).
	IR driver.IRStats
	// Report is the pass manager's per-pass instrumentation of the
	// compilation (Thorin pipelines only).
	Report *pm.Report
	// Mem2RegPhis counts the continuation parameters introduced by slot
	// promotion (Thorin pipelines only).
	Mem2RegPhis int
	// SSAPhis / SSAInstrs describe the baseline module (Baseline only).
	SSAPhis   int
	SSAInstrs int
}

// Run compiles src through pipeline p and executes main(n).
func Run(src string, p Pipeline, n int64) (RunResult, error) {
	var out RunResult
	start := time.Now()
	switch p {
	case Baseline:
		prog, mod, err := driver.CompileSSA(src)
		if err != nil {
			return out, err
		}
		out.CompileTime = time.Since(start)
		for _, f := range mod.Funcs {
			out.SSAPhis += f.NumPhis()
			out.SSAInstrs += f.NumInstrs()
		}
		out.Checksum, out.Counters, err = driver.ExecSteps(prog, nil, 0, n)
		return out, err
	default:
		res, err := driver.CompileSpec(src, p.Spec(), analysis.ScheduleSmart, driver.Config{})
		if err != nil {
			return out, err
		}
		out.CompileTime = time.Since(start)
		out.IR = res.IRStats
		out.Report = res.Report
		out.Mem2RegPhis = res.Stats.Mem2Reg.PhiParams
		out.Checksum, out.Counters, err = driver.ExecSteps(res.Program, nil, 0, n)
		return out, err
	}
}

// Verify runs every variant of prog through every pipeline at size n and
// checks that all checksums agree; it returns the agreed checksum.
func Verify(prog *Program, n int64) (int64, error) {
	type arm struct {
		src  string
		p    Pipeline
		name string
	}
	var arms []arm
	for _, p := range []Pipeline{ThorinOpt, ThorinNoMangle, ThorinO0, Baseline} {
		arms = append(arms, arm{prog.Functional, p, "functional/" + p.String()})
		arms = append(arms, arm{prog.Imperative, p, "imperative/" + p.String()})
	}
	var sum int64
	for i, a := range arms {
		r, err := Run(a.src, a.p, n)
		if err != nil {
			return 0, fmt.Errorf("%s %s: %w", prog.Name, a.name, err)
		}
		if i == 0 {
			sum = r.Checksum
		} else if r.Checksum != sum {
			return 0, fmt.Errorf("%s: %s returned %d, expected %d",
				prog.Name, a.name, r.Checksum, sum)
		}
	}
	return sum, nil
}

// LinesOfCode counts the non-blank source lines of a benchmark variant.
func LinesOfCode(src string) int {
	n := 0
	for _, line := range strings.Split(src, "\n") {
		if strings.TrimSpace(line) != "" {
			n++
		}
	}
	return n
}

// GenManyFns builds a synthetic program of count independent top-level
// functions, each with slot-heavy imperative control flow, plus a main that
// sums them all. Every function is its own top-level scope, so this is the
// workload where the pass manager's parallel analysis phase has maximal
// independent work (the -jobs speedup table, TableJobs).
func GenManyFns(count int) string {
	var sb strings.Builder
	for i := 0; i < count; i++ {
		fmt.Fprintf(&sb, `fn f%d(n: i64) -> i64 {
	let mut acc = %d;
	let mut i = 0;
	while i < n {
		let mut t = i * %d + 1;
		if t %% 3 == 0 { t = t / 2; } else { t = t * 2 + 1; }
		let mut j = 0;
		while j < 4 {
			acc = acc + t %% (j + 2);
			j = j + 1;
		}
		acc = acc + t;
		i = i + 1;
	}
	acc
}
`, i, i, i+2)
	}
	sb.WriteString("fn main(n: i64) -> i64 {\n\tlet mut sum = 0;\n")
	for i := 0; i < count; i++ {
		fmt.Fprintf(&sb, "\tsum = sum + f%d(n);\n", i)
	}
	sb.WriteString("\tsum\n}\n")
	return sb.String()
}

// GenChain builds a synthetic program of depth higher-order wrappers for the
// compile-time scaling experiment (Table 4): each wrapper passes the
// function value one level down, so conversion to control-flow form must
// specialize the entire chain.
func GenChain(depth int) string {
	var sb strings.Builder
	sb.WriteString("fn work(x: i64) -> i64 { x * 2 + 1 }\n")
	fmt.Fprintf(&sb, "fn h0(f: fn(i64) -> i64, x: i64) -> i64 { f(x) }\n")
	for i := 1; i < depth; i++ {
		fmt.Fprintf(&sb, "fn h%d(f: fn(i64) -> i64, x: i64) -> i64 { h%d(f, x) + 1 }\n", i, i-1)
	}
	fmt.Fprintf(&sb, "fn main(n: i64) -> i64 { h%d(work, n) }\n", depth-1)
	return sb.String()
}
