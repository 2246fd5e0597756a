package driver

import (
	"context"
	"errors"
	"fmt"
	"time"

	"thorin/internal/analysis"
	"thorin/internal/backend"
	"thorin/internal/link"
	"thorin/internal/pm"
	"thorin/internal/transform"
)

// Version identifies the compiler build for artifact provenance and cache
// keying. Any change that can alter the produced program for the same
// (source, spec, schedule) input — IR semantics, pass behavior, codegen,
// bytecode format — must bump it, because a content-addressed artifact
// cache (internal/server) includes it in every key: bumping the version
// invalidates every cached artifact at once.
const Version = "thorin-go/8"

// Request is the wire-shaped form of one compilation: everything a client
// can ask for, expressed in plain strings and integers so it serializes to
// JSON and can be hashed into a stable cache key. The compile server and
// thorinc (in process and with -server) both speak this type; Resolve
// turns it into the concrete inputs Compile consumes.
type Request struct {
	// Source is the Impala program text. Exactly one of Source and Sources
	// must be set.
	Source string `json:"source"`
	// Sources are the module sources of a separate compilation: each must
	// open with `module NAME;`, module names must be unique, and exactly
	// one module must define main. The set is compiled per-module and
	// linked (see internal/link); order does not matter.
	Sources []string `json:"sources,omitempty"`
	// Link is the cross-module resolution mode for Sources: "trampoline"
	// (default) or "mangle". Ignored for single-source requests.
	Link string `json:"link,omitempty"`
	// Spec is an explicit pass-pipeline spec. When empty, Opt selects the
	// named spec of an -O level (transform.OptSpec), mirroring thorinc's
	// -passes/-O.
	Spec string `json:"spec,omitempty"`
	// Opt is the optimization level (0, 1, 2) used when Spec is empty.
	// The zero value means -O2, the thorinc default, so the empty Request
	// compiles like a plain `thorinc file.imp`.
	Opt *int `json:"opt,omitempty"`
	// Schedule picks the primop placement mode: "early", "late" or
	// "smart" (default).
	Schedule string `json:"schedule,omitempty"`
	// Target selects the code generation backend: "vm" (default) or
	// "wasm". The target changes the artifact payload, so it enters the
	// cache key.
	Target string `json:"target,omitempty"`
	// Jobs is the worker count for parallel scope analysis. It does not
	// enter the cache key: the produced program is byte-identical at
	// every jobs level.
	Jobs int `json:"jobs,omitempty"`
	// OnFailure picks the pass-failure policy: "fail" (default) or
	// "degrade".
	OnFailure string `json:"on_failure,omitempty"`
	// Budget is a pm.ParseBudget spec, e.g. "iters=8,nodes=200000".
	Budget string `json:"budget,omitempty"`
	// DeadlineMs, when positive, bounds the request's wall-clock compile
	// time in milliseconds: the compile is run under a context with this
	// timeout and stops cooperatively at the next pass boundary when it
	// expires (pm.ErrDeadline; the server answers 504). Like the nodes
	// budget it never enters the cache key — a deadline can only fail a
	// compile, never change a successful one's output.
	DeadlineMs int64 `json:"deadline_ms,omitempty"`
	// DisableIncremental turns off journal-driven pass skipping. Like
	// Jobs it never enters the cache key: output is identical either way.
	DisableIncremental bool `json:"disable_incremental,omitempty"`
}

// ResolvedSpec returns the pipeline spec the request will compile with:
// the explicit Spec if given, else the named spec for Opt.
func (r *Request) ResolvedSpec() (string, error) {
	if r.Spec != "" {
		return r.Spec, nil
	}
	opt := 2
	if r.Opt != nil {
		opt = *r.Opt
	}
	return transform.OptSpec(opt)
}

// Resolved is a checked Request in the form the compiler consumes. Every
// field is canonical, so two requests that resolve equal compile to the
// same program.
type Resolved struct {
	// Source and Sources are the request's; exactly one is set.
	Source  string
	Sources []string
	// Spec is the whole-program pipeline spec.
	Spec string
	// Mode is the primop schedule; Mode.String() is its canonical name.
	Mode analysis.Mode
	// Link is the cross-module resolution mode (used for Sources only).
	Link link.Mode
	// Config carries target, jobs, failure policy, budget, crash directory
	// and the incremental switch. Compile supplies Config.Ctx.
	Config Config
	// Deadline is the request's deadline_ms (0 = none); WithDeadline
	// applies it.
	Deadline time.Duration
}

// Resolve checks the request and resolves every knob exactly once. It is
// the single interpretation of the wire strings: thorinc builds a Request
// from its flags and resolves it here whether it compiles in process or on
// a daemon, and the daemon resolves what it receives the same way.
// crashDir is supplied by the caller (the daemon owns the bundle
// directory, not the client).
func (r *Request) Resolve(crashDir string) (*Resolved, error) {
	if r.Source == "" && len(r.Sources) == 0 {
		return nil, errors.New("driver: request has no source")
	}
	if r.Source != "" && len(r.Sources) > 0 {
		return nil, errors.New("driver: request has both source and sources")
	}
	spec, err := r.ResolvedSpec()
	if err != nil {
		return nil, err
	}
	// Parse now so an unknown pass is a bad request, refused before the
	// daemon admits it or runs the frontend.
	if _, err := pm.Parse(spec); err != nil {
		return nil, err
	}
	mode, err := analysis.ParseMode(r.Schedule)
	if err != nil {
		return nil, err
	}
	target, err := backend.ParseTarget(r.Target)
	if err != nil {
		return nil, err
	}
	linkMode := link.Trampoline
	if r.Link != "" {
		if linkMode, err = link.ParseMode(r.Link); err != nil {
			return nil, err
		}
	}
	cfg := Config{
		Jobs:               r.Jobs,
		CrashDir:           crashDir,
		DisableIncremental: r.DisableIncremental,
		Target:             target,
	}
	switch r.OnFailure {
	case "", "fail":
		cfg.OnPassFailure = FailFast
	case "degrade":
		cfg.OnPassFailure = Degrade
	default:
		return nil, fmt.Errorf("driver: bad on_failure %q (want fail or degrade)", r.OnFailure)
	}
	if r.Budget != "" {
		if cfg.Budget, err = pm.ParseBudget(r.Budget); err != nil {
			return nil, err
		}
	}
	return &Resolved{
		Source:   r.Source,
		Sources:  r.Sources,
		Spec:     spec,
		Mode:     mode,
		Link:     linkMode,
		Config:   cfg,
		Deadline: time.Duration(r.DeadlineMs) * time.Millisecond,
	}, nil
}

// WithDeadline returns parent bounded by the request's deadline, if it has
// one. The daemon applies it before admission, so time spent queueing for
// a compile slot counts against the deadline.
func (r *Resolved) WithDeadline(parent context.Context) (context.Context, context.CancelFunc) {
	if r.Deadline > 0 {
		return context.WithTimeout(parent, r.Deadline)
	}
	return context.WithCancel(parent)
}

// Compile runs a resolved request: a single source through CompileSpec, a
// module set through CompileModules. The compile observes ctx
// cooperatively, stopping at the next pass boundary with pm.ErrCanceled
// or pm.ErrDeadline; pass failures are handled per the request's failure
// policy and, with a crash directory, leave a reproduction bundle.
func Compile(ctx context.Context, r *Resolved) (*Result, error) {
	cfg := r.Config
	cfg.Ctx = ctx
	if len(r.Sources) > 0 {
		return CompileModules(r.Sources, r.Spec, r.Mode, r.Link, cfg)
	}
	return CompileSpec(r.Source, r.Spec, r.Mode, cfg)
}
