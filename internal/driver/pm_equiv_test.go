package driver_test

// Pipeline-equivalence tests: driving the compiler through the pass manager
// must be observationally identical to the frozen pre-pass-manager pipeline
// (transform.OptimizeLegacy) — same VM results and output, same post-opt IR
// statistics — for every benchmark program and optimization level.
//
// One documented exception: on compose/functional at -O2 the fix(...) group
// converges only in its second iteration — inlining and slot promotion from
// iteration one expose two more contifiable functions — and the fixpoint
// pipeline eliminates the residual closures and indirect calls the
// hardcoded single-shot pipeline left behind. For that arm the test asserts
// the divergence is a strict improvement instead of equality.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"thorin/internal/analysis"
	vmbackend "thorin/internal/backend/vm"
	"thorin/internal/bench"
	"thorin/internal/driver"
	"thorin/internal/impala"
	"thorin/internal/ir"
	"thorin/internal/pm"
	"thorin/internal/transform"
	"thorin/internal/vm"
)

// equivN keeps the sweep fast (same spirit as the bench suite's smallN).
var equivN = map[string]int64{
	"fib": 15, "mapreduce": 400, "filter": 400, "compose": 400,
	"mandelbrot": 8, "nbody": 40, "spectralnorm": 8, "qsort": 250,
	"matmul": 6, "nqueens": 5,
}

// fixpointWins lists the arms where the fix group needs a second changing
// iteration and ends up with strictly better IR than the legacy pipeline
// (see the package comment). Everywhere else equality is required.
var fixpointWins = map[string]bool{
	"compose/functional/O2": true,
}

// compileLegacy runs the frozen hardcoded pipeline.
func compileLegacy(src string, opts transform.LegacyOptions) (*vm.Program, driver.IRStats, error) {
	w, err := impala.Compile(src)
	if err != nil {
		return nil, driver.IRStats{}, err
	}
	transform.OptimizeLegacy(w, opts)
	if err := ir.Verify(w); err != nil {
		return nil, driver.IRStats{}, fmt.Errorf("legacy pipeline produced invalid IR: %w", err)
	}
	prog, err := vmbackend.Compile(w, "main", vmbackend.Config{Mode: analysis.ScheduleSmart})
	if err != nil {
		return nil, driver.IRStats{}, err
	}
	return prog, driver.MeasureIR(w), nil
}

func execOut(t *testing.T, prog *vm.Program, n int64) (int64, string, vm.Counters) {
	t.Helper()
	var out bytes.Buffer
	v, c, err := driver.ExecSteps(prog, &out, 0, n)
	if err != nil {
		t.Fatal(err)
	}
	return v, out.String(), c
}

func TestPipelineEquivalence(t *testing.T) {
	levels := []struct {
		name, spec string
		opts       transform.LegacyOptions
	}{
		{"O2", transform.O2, transform.LegacyOptions{Mangle: true, Mem2Reg: true, PartialEval: true, InlineOnce: true, Contify: true}},
		{"O1", transform.O1, transform.LegacyOptions{Mem2Reg: true}},
		{"O0", transform.O0, transform.LegacyOptions{}},
		{"mangle-only", mangleOnlySpec, transform.LegacyOptions{Mangle: true, Mem2Reg: true}},
	}
	for i := range bench.Suite {
		p := &bench.Suite[i]
		n := equivN[p.Name]
		if n == 0 {
			t.Fatalf("no problem size for %s", p.Name)
		}
		variants := []struct{ name, src string }{
			{"functional", p.Functional},
			{"imperative", p.Imperative},
		}
		for _, v := range variants {
			for _, lvl := range levels {
				t.Run(p.Name+"/"+v.name+"/"+lvl.name, func(t *testing.T) {
					res, err := driver.CompileSpec(v.src, lvl.spec,
						analysis.ScheduleSmart, driver.Config{VerifyEach: true})
					if err != nil {
						t.Fatal(err)
					}
					legacyProg, legacyIR, err := compileLegacy(v.src, lvl.opts)
					if err != nil {
						t.Fatal(err)
					}
					pmVal, pmOut, pmC := execOut(t, res.Program, n)
					lgVal, lgOut, lgC := execOut(t, legacyProg, n)
					if pmVal != lgVal {
						t.Errorf("results diverge: pm=%d legacy=%d", pmVal, lgVal)
					}
					if pmOut != lgOut {
						t.Errorf("printed output diverges:\npm:     %q\nlegacy: %q", pmOut, lgOut)
					}
					if fixpointWins[p.Name+"/"+v.name+"/"+lvl.name] {
						// The known fixpoint win must be a strict improvement.
						if res.IRStats.HigherOrder >= legacyIR.HigherOrder {
							t.Errorf("expected the fixpoint to eliminate higher-order conts: pm=%+v legacy=%+v",
								res.IRStats, legacyIR)
						}
						if pmC.IndirectCalls >= lgC.IndirectCalls || pmC.ClosureAllocs >= lgC.ClosureAllocs {
							t.Errorf("expected fewer indirect calls and closures: pm=%+v legacy=%+v", pmC, lgC)
						}
						return
					}
					if res.IRStats != legacyIR {
						t.Errorf("IRStats diverge: pm=%+v legacy=%+v", res.IRStats, legacyIR)
					}
					if pmC != lgC {
						t.Errorf("VM counters diverge: pm=%+v legacy=%+v", pmC, lgC)
					}
				})
			}
		}
	}
}

// mangleOnlySpec isolates lambda mangling for the equivalence sweep: CFF
// conversion plus slot promotion, nothing else.
const mangleOnlySpec = "cleanup,fix(cff,mem2reg),cleanup,closure"

// TestCanonicalSpecs pins the named -O specs byte for byte (they enter
// every cache key and crash bundle), and the -O2-without-mem2reg spec the
// mem2reg ablation derives with pm.StripPass.
func TestCanonicalSpecs(t *testing.T) {
	cases := []struct {
		level int
		want  string
	}{
		{2, "cleanup,pe,fix(cff,contify,mem2reg,inline-once),cleanup,closure"},
		{0, "cleanup,cleanup,closure"},
		{1, "cleanup,fix(mem2reg),cleanup,closure"},
	}
	for _, tc := range cases {
		if got, err := transform.OptSpec(tc.level); err != nil || got != tc.want {
			t.Errorf("OptSpec(%d) = %q, %v; want %q", tc.level, got, err, tc.want)
		}
	}
	if _, err := transform.OptSpec(3); err == nil {
		t.Error("OptSpec(3) accepted")
	}
	const want = "cleanup,pe,fix(cff,contify,inline-once),cleanup,closure"
	if got, found, err := pm.StripPass(transform.O2, "mem2reg"); err != nil || !found || got != want {
		t.Errorf("O2 without mem2reg = %q (found=%v, err=%v), want %q", got, found, err, want)
	}
}

// TestFixpointSecondIterationIsNoop asserts via the pass report that the
// canonical O2 fix group converges after one iteration on every benchmark
// and example program: the second iteration applies zero rewrites. This is
// what makes dropping the hardcoded pipeline's redundant post-mangling
// Cleanup safe. The one arm where iteration two legitimately rewrites
// (compose — the known fixpoint win) must instead converge by iteration
// three.
func TestFixpointSecondIterationIsNoop(t *testing.T) {
	srcs := map[string]string{}
	for i := range bench.Suite {
		p := &bench.Suite[i]
		srcs["bench/"+p.Name+"/functional"] = p.Functional
		srcs["bench/"+p.Name+"/imperative"] = p.Imperative
	}
	matches, err := filepath.Glob(filepath.Join("..", "..", "examples", "*.imp"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) == 0 {
		t.Fatal("no example .imp programs found")
	}
	for _, m := range matches {
		src, err := os.ReadFile(m)
		if err != nil {
			t.Fatal(err)
		}
		srcs["examples/"+strings.TrimSuffix(filepath.Base(m), ".imp")] = string(src)
	}
	spec := transform.O2
	for name, src := range srcs {
		t.Run(name, func(t *testing.T) {
			res, err := driver.CompileSpec(src, spec, analysis.ScheduleSmart, driver.Config{})
			if err != nil {
				t.Fatal(err)
			}
			rep := res.Report
			if len(rep.IterRuns(1)) == 0 {
				t.Fatal("fix group never ran")
			}
			if rep.Saturated {
				t.Error("fix group must converge")
			}
			if fixpointWins[strings.TrimPrefix(name, "bench/")+"/O2"] {
				if !rep.IterChanged(2) || rep.IterChanged(3) {
					t.Errorf("the known fixpoint win must rewrite in iteration 2 and settle by 3")
				}
				return
			}
			for _, run := range rep.IterRuns(2) {
				if run.Rewrites != 0 || run.Changed {
					t.Errorf("second fix iteration must be a no-op, but %s applied %d rewrites (changed=%v)",
						run.Label(), run.Rewrites, run.Changed)
				}
			}
		})
	}
}
