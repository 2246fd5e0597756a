package server

import (
	"fmt"
	"net/http"
	"testing"

	"thorin/internal/backend"
	"thorin/internal/driver"
	"thorin/internal/ir"
)

// srvFailingBackend stands in for a wasm emitter with an emission bug.
type srvFailingBackend struct{}

func (srvFailingBackend) Target() backend.Target { return backend.Wasm }

func (srvFailingBackend) Compile(w *ir.World, mainName string, cfg backend.Config) (*backend.Output, error) {
	return nil, backend.Errf(backend.Wasm, mainName, fmt.Errorf("injected emission failure"))
}

// TestBackendFailure422: a code generation failure comes back as a
// structured 422 naming the backend target and function (not an optimizer
// pass), with the replayable crash bundle alongside — and the daemon keeps
// serving.
func TestBackendFailure422(t *testing.T) {
	restore := backend.Override(srvFailingBackend{})
	defer restore()

	crashDir := t.TempDir()
	_, c := startServer(t, Config{CrashDir: crashDir})

	_, _, err := c.Compile(&driver.Request{Source: fibSrc, Target: "wasm"})
	if err == nil {
		t.Fatal("compile with injected backend failure succeeded")
	}
	re, ok := err.(*RemoteError)
	if !ok {
		t.Fatalf("want *RemoteError, got %T: %v", err, err)
	}
	if re.Status != http.StatusUnprocessableEntity {
		t.Errorf("status = %d, want 422", re.Status)
	}
	if re.BackendTarget != "wasm" || re.BackendFunc != "main" {
		t.Errorf("backend attribution = %q/%q, want wasm/main", re.BackendTarget, re.BackendFunc)
	}
	if re.Pass != "" {
		t.Errorf("backend failure misattributed to pass %q", re.Pass)
	}
	if re.CrashBundle == "" {
		t.Error("no crash bundle in the structured error")
	}

	// The same source compiles fine for the healthy vm target: the failure
	// is per-target, and the two requests never share a cache key.
	resp, art, err := c.Compile(&driver.Request{Source: fibSrc})
	if err != nil {
		t.Fatalf("vm compile after wasm failure: %v", err)
	}
	if art.Target != "vm" || art.Program == nil {
		t.Fatalf("vm artifact target=%q program=%v", art.Target, art.Program != nil)
	}
	if got, _, err := driver.ExecSteps(art.Program, nil, 0, 10); err != nil || got != 55 {
		t.Fatalf("fib(10) = %d err=%v, want 55", got, err)
	}
	_ = resp
}
