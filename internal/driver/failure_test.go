package driver

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"thorin/internal/analysis"
	"thorin/internal/impala"
	"thorin/internal/pm"
)

// faultyPass panics on every run; it stands in for a buggy optimizer pass
// in the failure-policy tests.
type faultyPass struct{}

func (faultyPass) Name() string { return "d-panic" }
func (faultyPass) Run(*pm.Context) (pm.Result, error) {
	panic("driver test pass exploding")
}

func init() { pm.Register(faultyPass{}) }

const failureSrc = `
fn main(n: i64) -> i64 {
	let mut acc = 0;
	for i in 0 .. 10 { acc = acc + i * n; }
	acc
}
`

const faultySpec = "cleanup,pe,d-panic,cleanup,closure"

// TestFailFastWritesBundleAndReplays: the default policy surfaces a named
// pass-panic error, leaves a reproduction bundle, and -replay on that
// bundle reproduces the identical failure.
func TestFailFastWritesBundleAndReplays(t *testing.T) {
	dir := t.TempDir()
	_, err := CompileSpec(failureSrc, faultySpec, analysis.ScheduleSmart, Config{
		VerifyEach: true,
		CrashDir:   dir,
	})
	if err == nil {
		t.Fatal("expected the compile to fail")
	}
	var pp *pm.PassPanicError
	if !errors.As(err, &pp) || pp.Pass != "d-panic" {
		t.Fatalf("want PassPanicError for d-panic, got %v", err)
	}
	if !strings.Contains(err.Error(), `pm: pass "d-panic" panicked`) {
		t.Errorf("error does not name the pass: %v", err)
	}
	if !strings.Contains(err.Error(), "crash bundle: ") {
		t.Fatalf("error does not reference the bundle: %v", err)
	}
	bundle, ok := CrashBundle(err)
	if !ok || bundle == "" {
		t.Fatalf("no structural bundle path on the error: %v", err)
	}
	for _, f := range []string{"repro.json", "input.imp", "input.thorin"} {
		if _, serr := os.Stat(filepath.Join(bundle, f)); serr != nil {
			t.Errorf("bundle missing %s: %v", f, serr)
		}
	}
	if got, _ := os.ReadFile(filepath.Join(bundle, "input.imp")); string(got) != failureSrc {
		t.Error("bundle input.imp does not match the compiled source")
	}
	// The replay must reproduce the same failure, attributed to the same
	// pass, without writing a second bundle.
	_, rerr := Replay(bundle)
	if rerr == nil {
		t.Fatal("replay unexpectedly succeeded")
	}
	if pass, ok := pm.FailedPass(rerr); !ok || pass != "d-panic" {
		t.Fatalf("replay failure not attributed to d-panic: %v", rerr)
	}
	entries, _ := os.ReadDir(dir)
	if len(entries) != 1 {
		t.Errorf("crash dir has %d bundles, want 1", len(entries))
	}
}

// TestDegradeProducesCorrectProgram: with OnPassFailure=Degrade the compile
// survives the faulting pass and the degraded program still computes what
// the reference interpreter computes — at jobs 1 and jobs 8.
func TestDegradeProducesCorrectProgram(t *testing.T) {
	prog, err := impala.Parse(failureSrc)
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
	ref, err := in.Run(7)
	if err != nil {
		t.Fatal(err)
	}
	want := ref.I
	for _, jobs := range []int{1, 8} {
		res, err := CompileSpec(failureSrc, faultySpec, analysis.ScheduleSmart, Config{
			VerifyEach:    true,
			Jobs:          jobs,
			OnPassFailure: Degrade,
		})
		if err != nil {
			t.Fatalf("jobs=%d: degradation failed: %v", jobs, err)
		}
		if !res.Degraded {
			t.Fatalf("jobs=%d: result not marked degraded", jobs)
		}
		if len(res.FailedPasses) != 1 || res.FailedPasses[0] != "d-panic" {
			t.Errorf("jobs=%d: FailedPasses = %v, want [d-panic]", jobs, res.FailedPasses)
		}
		if strings.Contains(res.Spec, "d-panic") {
			t.Errorf("jobs=%d: degraded spec %q still contains the faulting pass", jobs, res.Spec)
		}
		got, _, err := Exec(res.Target, res.Program, res.Wasm, nil, 0, 7)
		if err != nil {
			t.Fatalf("jobs=%d: degraded program failed to run: %v", jobs, err)
		}
		if got != want {
			t.Errorf("jobs=%d: degraded program computed %d, interpreter %d", jobs, got, want)
		}
	}
}

// TestDegradeKeepsHealthyPipelinesUntouched: a pipeline that does not fail
// must come back without the Degraded marker regardless of policy.
func TestDegradeKeepsHealthyPipelinesUntouched(t *testing.T) {
	res, err := CompileSpec(failureSrc, "cleanup,pe,cleanup,closure", analysis.ScheduleSmart, Config{
		OnPassFailure: Degrade,
		CrashDir:      t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded || res.CrashBundle != "" || len(res.FailedPasses) != 0 {
		t.Errorf("healthy compile marked degraded: %+v", res)
	}
}
