// Package backend defines the target-neutral code generation surface: a
// Backend lowers a closure-converted Thorin world into a target program,
// and a process-wide registry maps target names to emitters. The shared
// lowering machinery (schedule, loop structure, CFF blocks, terminator
// classification) lives in the lower subpackage; each emitter consumes it
// and owns only its instruction selection and encoding.
package backend

import (
	"errors"
	"fmt"
	"sort"

	"thorin/internal/analysis"
	"thorin/internal/ir"
	"thorin/internal/vm"
)

// Target names a code generation target.
type Target string

const (
	// VM is the register-based bytecode target (internal/vm), the default.
	VM Target = "vm"
	// Wasm is the WebAssembly target: a real wasm binary executed by the
	// in-repo interpreter (internal/wasm).
	Wasm Target = "wasm"
)

// ParseTarget resolves a target name; "" selects the VM default.
func ParseTarget(s string) (Target, error) {
	switch s {
	case "", string(VM):
		return VM, nil
	case string(Wasm):
		return Wasm, nil
	}
	return "", fmt.Errorf("backend: unknown target %q (want %s)", s, TargetNames())
}

// Config controls code generation, shared by every backend.
type Config struct {
	// Mode selects primop placement (default ScheduleSmart).
	Mode analysis.Mode
}

// Output is what one backend run produces: exactly one payload field is
// set, matching the backend's target.
type Output struct {
	// VM is the bytecode program (Target VM).
	VM *vm.Program
	// Wasm is the encoded wasm module (Target Wasm).
	Wasm []byte
}

// Backend lowers a world in control-flow form into a target program.
// mainName selects the entry point; the world must be closure-converted
// (every emitted scope top-level), which the standard pipelines guarantee.
type Backend interface {
	Target() Target
	Compile(w *ir.World, mainName string, cfg Config) (*Output, error)
}

// registry maps target names to registered backends. Registration happens
// in each emitter package's init, so importing a backend package is what
// makes its target available.
var registry = map[Target]Backend{}

// Register installs b for its target; a duplicate target is a programming
// error and panics at init time.
func Register(b Backend) {
	if _, dup := registry[b.Target()]; dup {
		panic(fmt.Sprintf("backend: duplicate registration for target %q", b.Target()))
	}
	registry[b.Target()] = b
}

// Override installs b for its target regardless of prior registration and
// returns a function restoring the previous state. It is a test seam for
// injecting failing backends; production emitters register once via
// Register at init time.
func Override(b Backend) (restore func()) {
	t := b.Target()
	prev, had := registry[t]
	registry[t] = b
	return func() {
		if had {
			registry[t] = prev
		} else {
			delete(registry, t)
		}
	}
}

// Lookup returns the backend registered for t.
func Lookup(t Target) (Backend, error) {
	b, ok := registry[t]
	if !ok {
		return nil, fmt.Errorf("backend: no backend registered for target %q (registered: %s)", t, TargetNames())
	}
	return b, nil
}

// TargetNames lists the registered targets, sorted, for error messages.
func TargetNames() string {
	names := make([]string, 0, len(registry))
	for t := range registry {
		names = append(names, string(t))
	}
	sort.Strings(names)
	out := ""
	for i, n := range names {
		if i > 0 {
			out += "|"
		}
		out += n
	}
	return out
}

// Error is a typed backend failure: it names the target and, when the
// failure happened while emitting a particular function, that function —
// so crash bundles and server error responses identify the backend, not
// just a bare message.
type Error struct {
	// Target is the backend that failed.
	Target Target
	// Func is the continuation being emitted when the failure occurred,
	// "" for failures outside per-function emission (discovery, encoding,
	// validation).
	Func string
	// Err is the underlying cause.
	Err error
}

func (e *Error) Error() string {
	if e.Func != "" {
		return fmt.Sprintf("backend %s: function %s: %v", e.Target, e.Func, e.Err)
	}
	return fmt.Sprintf("backend %s: %v", e.Target, e.Err)
}

func (e *Error) Unwrap() error { return e.Err }

// Errf wraps err (or formats a new error) as a backend Error unless it
// already is one — inner emission helpers can fail with plain errors and
// the per-function boundary attributes them exactly once.
func Errf(t Target, fn string, err error) error {
	if err == nil {
		return nil
	}
	var be *Error
	if errors.As(err, &be) {
		return err
	}
	return &Error{Target: t, Func: fn, Err: err}
}
