package driver_test

// Tests of the named pipeline specs: their exact text, their results
// against the Impala reference interpreter, and how the O2 fix group
// converges on every benchmark and example program.

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"thorin/internal/analysis"
	"thorin/internal/bench"
	"thorin/internal/driver"
	"thorin/internal/impala"
	"thorin/internal/pm"
	"thorin/internal/transform"
)

// equivN keeps the sweep fast (same spirit as the bench suite's smallN).
var equivN = map[string]int64{
	"fib": 15, "mapreduce": 400, "filter": 400, "compose": 400,
	"mandelbrot": 8, "nbody": 40, "spectralnorm": 8, "qsort": 250,
	"matmul": 6, "nqueens": 5,
}

// interpret runs src's main(n) on the Impala reference interpreter and
// returns its result and printed output.
func interpret(t *testing.T, src string, n int64) (int64, string) {
	t.Helper()
	prog, err := impala.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := impala.Check(prog); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	in, err := impala.NewInterp(prog, &out, 0)
	if err != nil {
		t.Fatal(err)
	}
	v, err := in.Run(n)
	if err != nil {
		t.Fatal(err)
	}
	return v.I, out.String()
}

// TestPipelineEquivalence compiles both variants of every benchmark program
// under each spec of the VM golden corpus (O2, O1, O0 and mangle-only) with
// verify-each on, and requires the VM's result and printed output to equal
// the Impala reference interpreter's. TestVMGoldenArtifacts pins the bytes
// of the same grid; this test checks that those bytes compute the right
// thing, so a deliberate re-bless of the goldens stays checked.
func TestPipelineEquivalence(t *testing.T) {
	levels := []struct{ name, spec string }{
		{"O2", transform.O2},
		{"O1", transform.O1},
		{"O0", transform.O0},
		{"mangle-only", mangleOnlySpec},
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
			wantVal, wantOut := interpret(t, v.src, n)
			for _, lvl := range levels {
				t.Run(p.Name+"/"+v.name+"/"+lvl.name, func(t *testing.T) {
					res, err := driver.CompileSpec(v.src, lvl.spec,
						analysis.ScheduleSmart, driver.Config{VerifyEach: true})
					if err != nil {
						t.Fatal(err)
					}
					var out bytes.Buffer
					got, _, err := driver.ExecSteps(res.Program, &out, 0, n)
					if err != nil {
						t.Fatal(err)
					}
					if got != wantVal {
						t.Errorf("result %d, interpreter %d", got, wantVal)
					}
					if out.String() != wantOut {
						t.Errorf("printed output diverges:\nvm:          %q\ninterpreter: %q", out.String(), wantOut)
					}
				})
			}
		}
	}
}

// fixpointWins lists the arms where the O2 fix group rewrites in its second
// iteration: on compose/functional, inlining and slot promotion from
// iteration one expose two more contifiable functions, which removes the
// residual closures and indirect calls a single pass sequence leaves behind.
// TestBackendCountsAreExact in internal/bench pins the resulting VM
// instruction count. Everywhere else iteration two must be a no-op.
var fixpointWins = map[string]bool{
	"compose/functional/O2": true,
}

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
