// Package driver wires the full compilation pipeline together: Impala
// source → Thorin IR → optimizer → bytecode → VM. It is the programmatic
// equivalent of the thorinc command and the entry point used by the
// benchmark harness and the examples.
package driver

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime/debug"

	"thorin/internal/analysis"
	"thorin/internal/backend"
	_ "thorin/internal/backend/vm" // register the VM target
	wasmbackend "thorin/internal/backend/wasm"
	"thorin/internal/impala"
	"thorin/internal/ir"
	"thorin/internal/pm"
	"thorin/internal/ssa"
	"thorin/internal/transform"
	"thorin/internal/vm"
	"thorin/internal/wasm"
)

// Result bundles everything produced by one compilation.
type Result struct {
	World *ir.World
	// Target is the backend the program was compiled for.
	Target backend.Target
	// Program is the bytecode program (Target backend.VM; nil otherwise).
	Program *vm.Program
	// Wasm is the encoded wasm module (Target backend.Wasm; nil otherwise).
	Wasm  []byte
	Stats transform.Stats
	// IRStats are taken after optimization.
	IRStats IRStats
	// Report is the pass manager's per-pass instrumentation of the run.
	Report *pm.Report
	// Spec is the pipeline spec the result was actually compiled with. It
	// differs from the requested spec when graceful degradation stripped a
	// faulting pass.
	Spec string
	// Degraded is set when the requested pipeline failed and the result
	// comes from a reduced pipeline instead (see Config.OnPassFailure).
	Degraded bool
	// FailedPasses names the passes stripped during degradation, in the
	// order they failed.
	FailedPasses []string
	// CrashBundle is the path of the reproduction bundle written for the
	// first failure, if Config.CrashDir was set.
	CrashBundle string
	// CrashBundleErr reports why the bundle could not be written when the
	// write failed (CrashBundle is then empty); the pass failure that
	// triggered the bundle is never masked by it.
	CrashBundleErr string
}

// FailurePolicy selects how CompileSpec reacts when an optimizer pass
// fails (panics, returns an error, or leaves invalid IR).
type FailurePolicy int

const (
	// FailFast aborts the compile on the first pass failure. The returned
	// error names the pass and, when Config.CrashDir is set, the
	// reproduction bundle.
	FailFast FailurePolicy = iota
	// Degrade strips the faulting pass from the pipeline and recompiles
	// from source on a fresh world (the half-rewritten world cannot be
	// trusted), falling back to the minimal pipeline if passes keep
	// failing. The result is less optimized but verified correct.
	Degrade
)

// fallbackSpec is the last-resort pipeline for graceful degradation:
// cleanup is needed to drop dead IR and closure is needed because codegen
// requires closure-converted input.
const fallbackSpec = "cleanup,closure"

// Config controls the optimizer run beyond the pipeline spec itself.
type Config struct {
	// VerifyEach runs ir.Verify after every pass and fails the compile
	// naming the offending pass (a debug mode; the differential tests
	// enable it).
	VerifyEach bool
	// Jobs sets the worker count for the parallel analysis phase of
	// scope-level passes. 0 keeps the context default (1, or THORIN_JOBS).
	// The produced IR and program are identical at every jobs level.
	Jobs int
	// OnPassFailure picks between aborting (FailFast, the default) and
	// graceful degradation when a pass fails.
	OnPassFailure FailurePolicy
	// Budget bounds the optimizer run (fixpoint iterations, IR size); Ctx
	// bounds its wall clock. The zero value means unlimited.
	Budget pm.Budget
	// CrashDir, when non-empty, is the directory where a reproduction
	// bundle is written on pass failure (see WriteCrashBundle).
	CrashDir string
	// Target selects the code generation backend ("" and backend.VM mean
	// the bytecode VM; backend.Wasm emits a wasm module instead). The
	// target changes only the final emission step: frontend, pipeline and
	// schedule are shared, which is the point of the Backend split.
	Target backend.Target
	// DisableIncremental turns off whole-pass skipping in the pass manager
	// (pm.Context.Incremental), so every pass runs every time it is named.
	// The produced IR and program are byte-identical either way; this is the
	// escape hatch (and the reference mode the differential tests compare
	// against). thorinc exposes it as -incremental=off.
	DisableIncremental bool
	// Ctx, when non-nil, cancels the compile cooperatively: the pipeline
	// stops at the next pass boundary (or between parallel analysis
	// targets) with pm.ErrCanceled when the context is canceled, or
	// pm.ErrDeadline when it timed out. The compile server derives this
	// from the HTTP request context, so a disconnected client stops
	// consuming workers.
	Ctx context.Context
}

// IRStats summarizes the IR after a pipeline run.
type IRStats struct {
	Continuations int
	PrimOps       int
	HigherOrder   int // continuations violating control-flow form
}

// CompileSpec runs the frontend, an explicit pass-manager pipeline spec
// (e.g. "cleanup,pe,fix(cff,contify,mem2reg,inline-once),cleanup,closure")
// and the backend over src. Pass failures (panics included) are handled
// per cfg.OnPassFailure; with Config.CrashDir set, the first failure also
// leaves a reproduction bundle on disk.
func CompileSpec(src, spec string, mode analysis.Mode, cfg Config) (*Result, error) {
	res, err := compileOnce(src, spec, mode, cfg)
	if err == nil {
		return res, nil
	}
	pass, isPassFailure := pm.FailedPass(err)
	if !isPassFailure {
		// A backend failure (emission bug, unsupported IR shape, backend
		// panic) is as replayable as a pass failure and deserves the same
		// reproduction bundle; the synthetic pass name records which
		// emitter failed. It is not attributable to an optimizer pass, so
		// degradation below starts from the minimal pipeline.
		var berr *backend.Error
		if !errors.As(err, &berr) {
			return nil, err
		}
		pass = "backend:" + string(berr.Target)
	}
	var bundle string
	var bundleErr error
	if cfg.CrashDir != "" {
		// A failed bundle write (read-only dir, full disk) must not mask
		// the pass failure it was meant to record: both errors are
		// reported, the original one first.
		if p, werr := WriteCrashBundle(cfg.CrashDir, src, spec, mode, cfg, pass, err); werr == nil {
			bundle = p
		} else {
			bundleErr = werr
		}
	}
	if cfg.OnPassFailure != Degrade {
		if bundle != "" {
			return nil, &BundledError{Err: err, Bundle: bundle}
		}
		if bundleErr != nil {
			return nil, &BundleWriteError{Err: err, WriteErr: bundleErr}
		}
		return nil, err
	}
	// Graceful degradation: recompile from source with the faulting pass
	// stripped. Retries keep the budget and the run context, so a request
	// deadline still stops them.
	tried := make(map[string]bool)
	var failed []string
	cur := spec
	for attempt := 0; attempt < 8; attempt++ {
		// An abandoned request (canceled context) gains nothing from
		// retries: every recompile would stop at its first pass boundary.
		if cfg.Ctx != nil && cfg.Ctx.Err() != nil {
			return nil, fmt.Errorf("driver: graceful degradation abandoned: %w", err)
		}
		if p, ok := pm.FailedPass(err); ok && !tried[p] {
			tried[p] = true
			failed = append(failed, p)
			next, found, serr := pm.StripPass(cur, p)
			if serr != nil || !found || next == "" {
				next = fallbackSpec
			}
			cur = next
		} else if cur != fallbackSpec {
			// The failure is unattributable (frontend, codegen, budget) or
			// an already-stripped pass resurfaced; go straight to the
			// minimal pipeline.
			cur = fallbackSpec
		} else {
			break
		}
		res, rerr := compileOnce(src, cur, mode, cfg)
		if rerr == nil {
			res.Degraded = true
			res.FailedPasses = failed
			res.CrashBundle = bundle
			if bundleErr != nil {
				res.CrashBundleErr = bundleErr.Error()
			}
			return res, nil
		}
		err = rerr
	}
	return nil, fmt.Errorf("driver: graceful degradation failed: %w", err)
}

// compileOnce is one frontend → pipeline → verify → backend run with no
// failure handling.
func compileOnce(src, spec string, mode analysis.Mode, cfg Config) (*Result, error) {
	w, err := compileFrontend(src)
	if err != nil {
		return nil, err
	}
	return CompileWorld(w, spec, mode, cfg)
}

// CompileWorld runs spec over an already-built world (frontend output, a
// linked program or parsed textual IR) and finishes it with the backend,
// failing fast.
func CompileWorld(w *ir.World, spec string, mode analysis.Mode, cfg Config) (*Result, error) {
	ctx, rep, err := runPipeline(w, spec, cfg)
	if err != nil {
		return nil, err
	}
	out, target, err := compileBackend(w, mode, cfg.Target)
	if err != nil {
		return nil, err
	}
	return &Result{
		World:   w,
		Target:  target,
		Program: out.VM,
		Wasm:    out.Wasm,
		Stats:   transform.PipelineStats(ctx),
		IRStats: MeasureIR(w),
		Report:  rep,
		Spec:    spec,
	}, nil
}

// runPipeline parses spec, runs it over w under cfg and verifies the
// result. It is the one place a pass-manager context is built from a
// Config, so every compile path honours cfg.Ctx, the budget and the
// incremental and jobs knobs alike.
func runPipeline(w *ir.World, spec string, cfg Config) (*pm.Context, *pm.Report, error) {
	pl, err := pm.Parse(spec)
	if err != nil {
		return nil, nil, err
	}
	ctx := pm.NewContext(w)
	ctx.VerifyEach = cfg.VerifyEach
	ctx.Budget = cfg.Budget
	ctx.Ctx = cfg.Ctx
	if cfg.Jobs > 0 {
		ctx.Jobs = cfg.Jobs
	}
	if cfg.DisableIncremental {
		ctx.Incremental = false
	}
	rep, err := pl.Run(ctx)
	if err != nil {
		return nil, nil, err
	}
	if err := ir.Verify(w); err != nil {
		return nil, nil, fmt.Errorf("driver: optimizer produced invalid IR: %w", err)
	}
	return ctx, rep, nil
}

// compileFrontend runs the Impala frontend under panic containment.
func compileFrontend(src string) (w *ir.World, err error) {
	defer containFrontendPanic(&err)
	return impala.Compile(src)
}

// containFrontendPanic, deferred, turns a frontend panic into *err:
// emitter invariant violations on a checked program are bugs, but they
// must surface as errors, not take the process down.
func containFrontendPanic(err *error) {
	if r := recover(); r != nil {
		*err = fmt.Errorf("driver: frontend panicked: %v\n%s", r, debug.Stack())
	}
}

// compileBackend resolves the target's registered backend and runs it
// under the same panic containment as the optimizer passes: a backend
// panic becomes a typed backend error, not a crash.
func compileBackend(w *ir.World, mode analysis.Mode, target backend.Target) (out *backend.Output, t backend.Target, err error) {
	t, err = backend.ParseTarget(string(target))
	if err != nil {
		return nil, t, err
	}
	be, err := backend.Lookup(t)
	if err != nil {
		return nil, t, err
	}
	defer func() {
		if r := recover(); r != nil {
			err = backend.Errf(t, "", fmt.Errorf("panicked: %v\n%s", r, debug.Stack()))
		}
	}()
	out, err = be.Compile(w, "main", backend.Config{Mode: mode})
	return out, t, err
}

// MeasureIR counts continuations, primop nodes and CFF violations.
func MeasureIR(w *ir.World) IRStats {
	st := IRStats{PrimOps: w.NumPrimOps()}
	for _, c := range w.Continuations() {
		if c.IsIntrinsic() {
			continue
		}
		st.Continuations++
	}
	st.HigherOrder = len(transform.HigherOrderConts(w))
	return st
}

// CompileSSA runs the baseline classical SSA pipeline over src.
func CompileSSA(src string) (*vm.Program, *ssa.Module, error) {
	prog, err := impala.Parse(src)
	if err != nil {
		return nil, nil, err
	}
	if err := impala.Check(prog); err != nil {
		return nil, nil, err
	}
	return ssa.CompileProgram(prog)
}

// defaultBudget is the step/fuel budget Exec uses when given 0.
const defaultBudget = 4_000_000_000

// Exec runs main of a compiled program with i64 arguments and returns its
// first result. It is the one way to run a payload: the Target, Program
// and Wasm of a Result or Artifact (target backend.Wasm runs mod, any
// other target prog), or the SSA baseline's program with target
// backend.VM. budget bounds the run at one unit per instruction (0
// selects 4e9): a run that costs C succeeds with a budget of C, and a
// smaller one returns vm.ErrStepLimit or wasm.ErrFuel at the first
// control transfer past it, so nothing is printed past the budget. The
// counters are the VM's; on wasm, Instructions is the fuel spent and
// every other field is zero.
//
// A program is validated on its first run and a module on
// instantiation, so an invalid payload returns an error, never a panic.
// A trap of emitted wasm code, an index out of bounds included, returns
// a *wasmbackend.TrapError.
func Exec(target backend.Target, prog *vm.Program, mod []byte, out io.Writer, budget int64, args ...int64) (int64, vm.Counters, error) {
	if budget <= 0 {
		budget = defaultBudget
	}
	if target == backend.Wasm {
		return execWasm(mod, out, budget, args)
	}
	m := vm.New(prog, out)
	m.MaxSteps = budget
	vals := make([]vm.Value, len(args))
	for i, a := range args {
		vals[i] = vm.Value{I: a}
	}
	res, err := m.Run(vals...)
	if err != nil || len(res) == 0 {
		return 0, m.Counters, err
	}
	return res[0].I, m.Counters, nil
}

// execWasm is Exec's wasm half: decode, instantiate and invoke main.
func execWasm(mod []byte, out io.Writer, fuel int64, args []int64) (int64, vm.Counters, error) {
	m, err := wasm.Decode(mod)
	if err != nil {
		return 0, vm.Counters{}, err
	}
	inst, err := wasm.NewInstance(m, wasmbackend.Host(out))
	if err != nil {
		return 0, vm.Counters{}, err
	}
	inst.Fuel = fuel
	uargs := make([]uint64, len(args))
	for i, a := range args {
		uargs[i] = uint64(a)
	}
	res, err := inst.Invoke("main", uargs...)
	spent := vm.Counters{Instructions: fuel - inst.Fuel}
	if err != nil || len(res) == 0 {
		return 0, spent, wasmbackend.MapTrap(err)
	}
	return int64(res[0]), spent, nil
}

// ExecSteps is Exec on a VM program. perfbench calls it by name.
func ExecSteps(prog *vm.Program, out io.Writer, maxSteps int64, args ...int64) (int64, vm.Counters, error) {
	return Exec(backend.VM, prog, nil, out, maxSteps, args...)
}

// ExecWasm is Exec on a wasm module, without the counters. perfbench
// calls it by name.
func ExecWasm(mod []byte, out io.Writer, fuel int64, args ...int64) (int64, error) {
	return withoutCounters(Exec(backend.Wasm, nil, mod, out, fuel, args...))
}

func withoutCounters(v int64, _ vm.Counters, err error) (int64, error) { return v, err }
