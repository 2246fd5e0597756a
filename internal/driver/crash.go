package driver

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"thorin/internal/analysis"
	"thorin/internal/backend"
	"thorin/internal/impala"
	"thorin/internal/ir"
	"thorin/internal/pm"
)

// A crash bundle is a self-contained reproduction of one pass failure:
//
//	<dir>/crash-<hash>/
//	  repro.json    pipeline spec, target, schedule, jobs level, budget,
//	                failing pass, error
//	  input.imp     the Impala source that was being compiled
//	  input.thorin  frontend IR before the pipeline ran (best effort)
//
// The hash covers the source and every setting Replay reads except the jobs
// level, which does not change output: recompiling the same broken input
// under the same configuration overwrites its bundle instead of
// accumulating duplicates, and a failure under another target, schedule or
// budget gets a bundle of its own.

// BundledError is a fail-fast pass failure that left a crash bundle on
// disk. It wraps the underlying pipeline error (so pm.FailedPass and
// errors.Is/As still see it) and carries the bundle directory structurally,
// so consumers like the compile server can report the path without parsing
// the rendered message.
type BundledError struct {
	Err    error
	Bundle string
}

func (e *BundledError) Error() string {
	return fmt.Sprintf("%v (crash bundle: %s)", e.Err, e.Bundle)
}

func (e *BundledError) Unwrap() error { return e.Err }

// BundleWriteError is a fail-fast pass failure whose crash bundle could
// not be written (read-only crash dir, full disk). The original pass
// failure stays first-class — it wraps Err so pm.FailedPass and
// errors.Is/As keep working — and the write failure rides along instead of
// masking it.
type BundleWriteError struct {
	// Err is the pass failure the bundle was meant to record.
	Err error
	// WriteErr is why the bundle could not be written.
	WriteErr error
}

func (e *BundleWriteError) Error() string {
	return fmt.Sprintf("%v (crash bundle could not be written: %v)", e.Err, e.WriteErr)
}

func (e *BundleWriteError) Unwrap() error { return e.Err }

// CrashBundle returns the replayable crash-bundle path recorded in err's
// chain, if any.
func CrashBundle(err error) (string, bool) {
	var be *BundledError
	if errors.As(err, &be) {
		return be.Bundle, true
	}
	return "", false
}

// crashManifest is the serialized form of repro.json. Bundles written
// before target and schedule were recorded lack them and replay with the
// defaults, vm and smart.
type crashManifest struct {
	Spec             string `json:"spec"`
	Target           string `json:"target,omitempty"`
	Schedule         string `json:"schedule,omitempty"`
	Jobs             int    `json:"jobs"`
	VerifyEach       bool   `json:"verify_each,omitempty"`
	MaxFixpointIters int    `json:"max_fixpoint_iters,omitempty"`
	MaxNodes         int    `json:"max_nodes,omitempty"`
	Pass             string `json:"pass"`
	Error            string `json:"error"`
}

// WriteCrashBundle writes a reproduction bundle for a pass failure and
// returns the bundle directory.
func WriteCrashBundle(dir, src, spec string, mode analysis.Mode, cfg Config, pass string, failure error) (string, error) {
	// Record the canonical target name, so "" and "vm" write the same
	// bundle.
	target, _ := backend.ParseTarget(string(cfg.Target))
	man := crashManifest{
		Spec:             spec,
		Target:           string(target),
		Schedule:         mode.String(),
		VerifyEach:       cfg.VerifyEach,
		MaxFixpointIters: cfg.Budget.MaxFixpointIters,
		MaxNodes:         cfg.Budget.MaxNodes,
	}
	key, err := json.Marshal(man)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(append([]byte(src+"\x00"), key...))
	bundle := filepath.Join(dir, fmt.Sprintf("crash-%x", sum[:6]))
	if err := os.MkdirAll(bundle, 0o755); err != nil {
		return "", err
	}
	man.Jobs, man.Pass, man.Error = cfg.Jobs, pass, failure.Error()
	js, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(filepath.Join(bundle, "repro.json"), append(js, '\n'), 0o644); err != nil {
		return "", err
	}
	if err := os.WriteFile(filepath.Join(bundle, "input.imp"), []byte(src), 0o644); err != nil {
		return "", err
	}
	// The pre-pipeline IR dump is diagnostic sugar, not replay input; skip
	// it silently if the frontend itself misbehaves here.
	if w, err := impala.Compile(src); err == nil {
		var buf bytes.Buffer
		ir.Print(&buf, w)
		if err := os.WriteFile(filepath.Join(bundle, "input.thorin"), buf.Bytes(), 0o644); err != nil {
			return "", err
		}
	}
	return bundle, nil
}

// Replay re-runs the compilation recorded in a crash bundle with the same
// spec, target, schedule, jobs level and budget, failing fast. The
// expected outcome is the original error; a nil error means the bug no
// longer reproduces.
func Replay(bundle string) (*Result, error) {
	js, err := os.ReadFile(filepath.Join(bundle, "repro.json"))
	if err != nil {
		return nil, fmt.Errorf("driver: replay: %w", err)
	}
	var man crashManifest
	if err := json.Unmarshal(js, &man); err != nil {
		return nil, fmt.Errorf("driver: replay: bad repro.json: %w", err)
	}
	src, err := os.ReadFile(filepath.Join(bundle, "input.imp"))
	if err != nil {
		return nil, fmt.Errorf("driver: replay: %w", err)
	}
	mode, err := analysis.ParseMode(man.Schedule)
	if err != nil {
		return nil, fmt.Errorf("driver: replay: %w", err)
	}
	target, err := backend.ParseTarget(man.Target)
	if err != nil {
		return nil, fmt.Errorf("driver: replay: %w", err)
	}
	cfg := Config{
		Target:     target,
		VerifyEach: man.VerifyEach,
		Jobs:       man.Jobs,
		Budget: pm.Budget{
			MaxFixpointIters: man.MaxFixpointIters,
			MaxNodes:         man.MaxNodes,
		},
		// Replay diagnoses the recorded failure: fail fast, and do not
		// write a second bundle for the same crash.
		OnPassFailure: FailFast,
	}
	return CompileSpec(string(src), man.Spec, mode, cfg)
}
