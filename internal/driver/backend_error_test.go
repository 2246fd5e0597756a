package driver

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"thorin/internal/analysis"
	"thorin/internal/backend"
	"thorin/internal/ir"
	"thorin/internal/pm"
	"thorin/internal/transform"
)

// failingBackend is an injected emitter that always fails with a typed
// backend error, standing in for an emission bug or unsupported IR shape.
type failingBackend struct{}

func (failingBackend) Target() backend.Target { return backend.Wasm }

func (failingBackend) Compile(w *ir.World, mainName string, cfg backend.Config) (*backend.Output, error) {
	return nil, backend.Errf(backend.Wasm, mainName, fmt.Errorf("injected emission failure"))
}

// TestBackendErrorCrashBundle: a backend failure is routed into a crash
// bundle exactly like a pass failure — the bundle's pass field names the
// emitter ("backend:<target>"), the returned error chain carries both the
// bundle path and the typed *backend.Error — and the bundle records its
// target and schedule, so replaying it reproduces the same failure.
func TestBackendErrorCrashBundle(t *testing.T) {
	restore := backend.Override(failingBackend{})
	defer restore()

	dir := t.TempDir()
	src := "fn main(n: i64) -> i64 { n + 1 }"
	_, err := CompileSpec(src, transform.O0, analysis.ScheduleLate, Config{
		Target:   backend.Wasm,
		CrashDir: dir,
	})
	if err == nil {
		t.Fatal("compile with injected backend failure succeeded")
	}

	var berr *backend.Error
	if !errors.As(err, &berr) {
		t.Fatalf("error chain has no *backend.Error: %v", err)
	}
	if berr.Target != backend.Wasm || berr.Func != "main" {
		t.Errorf("backend error names %s/%s, want wasm/main", berr.Target, berr.Func)
	}

	bundle, ok := CrashBundle(err)
	if !ok {
		t.Fatalf("no crash bundle recorded in %v", err)
	}
	js, rerr := os.ReadFile(filepath.Join(bundle, "repro.json"))
	if rerr != nil {
		t.Fatal(rerr)
	}
	var man crashManifest
	if jerr := json.Unmarshal(js, &man); jerr != nil {
		t.Fatal(jerr)
	}
	if man.Pass != "backend:wasm" {
		t.Errorf("bundle pass = %q, want backend:wasm", man.Pass)
	}
	if man.Target != "wasm" || man.Schedule != "late" {
		t.Errorf("bundle records target %q schedule %q, want wasm and late", man.Target, man.Schedule)
	}
	if !strings.Contains(man.Error, "injected emission failure") {
		t.Errorf("bundle error %q does not record the cause", man.Error)
	}
	if _, serr := os.Stat(filepath.Join(bundle, "input.imp")); serr != nil {
		t.Errorf("bundle is missing the source: %v", serr)
	}

	if _, rerr := Replay(bundle); !errors.As(rerr, &berr) || berr.Target != backend.Wasm {
		t.Errorf("replay did not reproduce the wasm backend failure: %v", rerr)
	}
}

// thirdRunPanics rewrites on each run and panics on its third run in one
// pipeline, so an iters=2 budget keeps it from failing.
type thirdRunPanics struct{}

func (thirdRunPanics) Name() string { return "d-third-run" }
func (thirdRunPanics) Run(ctx *pm.Context) (pm.Result, error) {
	n, _ := ctx.Get("d-third-run.runs").(int)
	ctx.Put("d-third-run.runs", n+1)
	if n+1 == 3 {
		panic("third run")
	}
	return pm.Result{Rewrites: 1}, nil
}

func init() { pm.Register(thirdRunPanics{}) }

// TestCrashBundlePerConfiguration: the same source and spec failing under
// two configurations — a wasm backend failure under an iters=2 budget, and
// a pass failure on the vm without it — leave two bundles, and each replays
// its own failure.
func TestCrashBundlePerConfiguration(t *testing.T) {
	restore := backend.Override(failingBackend{})
	defer restore()

	dir := t.TempDir()
	src := "fn main(n: i64) -> i64 { n + 1 }"
	const spec = "cleanup,fix(d-third-run),cleanup,closure"
	_, werr := CompileSpec(src, spec, analysis.ScheduleSmart, Config{
		Target:   backend.Wasm,
		Budget:   pm.Budget{MaxFixpointIters: 2},
		CrashDir: dir,
	})
	_, verr := CompileSpec(src, spec, analysis.ScheduleSmart, Config{Target: backend.VM, CrashDir: dir})
	wasmBundle, ok1 := CrashBundle(werr)
	vmBundle, ok2 := CrashBundle(verr)
	if !ok1 || !ok2 {
		t.Fatalf("want two bundled failures, got %v and %v", werr, verr)
	}
	if wasmBundle == vmBundle {
		t.Fatalf("both configurations wrote %s", wasmBundle)
	}
	var berr *backend.Error
	if _, err := Replay(wasmBundle); !errors.As(err, &berr) || berr.Target != backend.Wasm {
		t.Errorf("wasm bundle replayed to %v, want the wasm backend failure", err)
	}
	if _, err := Replay(vmBundle); err == nil {
		t.Error("vm bundle replay succeeded, want the pass failure")
	} else if pass, _ := pm.FailedPass(err); pass != "d-third-run" {
		t.Errorf("vm bundle replayed to %v, want a d-third-run failure", err)
	}
}

// TestReplayDefaultsForOldBundles: a bundle written before target and
// schedule were recorded replays on the vm with the smart schedule.
func TestReplayDefaultsForOldBundles(t *testing.T) {
	bundle := t.TempDir()
	man := `{"spec": "cleanup,cleanup,closure", "jobs": 1, "pass": "x", "error": "y"}`
	if err := os.WriteFile(filepath.Join(bundle, "repro.json"), []byte(man), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(bundle, "input.imp"), []byte("fn main(n: i64) -> i64 { n }"), 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := Replay(bundle)
	if err != nil {
		t.Fatal(err)
	}
	if res.Target != backend.VM || res.Program == nil {
		t.Errorf("old bundle replayed for target %q, want vm", res.Target)
	}
}

// TestBackendPanicContained: a panicking backend surfaces as a typed
// backend error, not a process crash, with the panic and stack recorded.
func TestBackendPanicContained(t *testing.T) {
	restore := backend.Override(panickingBackend{})
	defer restore()

	_, err := CompileSpec("fn main(n: i64) -> i64 { n }", transform.O0,
		analysis.ScheduleSmart, Config{Target: backend.Wasm})
	var berr *backend.Error
	if !errors.As(err, &berr) {
		t.Fatalf("panicking backend did not yield a *backend.Error: %v", err)
	}
	if berr.Target != backend.Wasm {
		t.Errorf("backend error names target %s, want wasm", berr.Target)
	}
	if !strings.Contains(err.Error(), "deliberate panic") {
		t.Errorf("error %q does not record the panic value", err)
	}
}

type panickingBackend struct{}

func (panickingBackend) Target() backend.Target { return backend.Wasm }

func (panickingBackend) Compile(w *ir.World, mainName string, cfg backend.Config) (*backend.Output, error) {
	panic("deliberate panic")
}
