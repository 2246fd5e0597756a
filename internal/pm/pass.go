// Package pm is the pass manager: it treats the optimization pipeline as
// data. Passes are named units registered in a global registry; a Pipeline
// is parsed from a spec string such as
//
//	cleanup,pe,fix(cff,contify,mem2reg,inline-once),cleanup,closure
//
// where the fix(...) combinator iterates a pass group until the IR stops
// changing. The runner memoizes analyses in a shared cache between
// mutation-free pass runs and records per-pass instrumentation (wall time,
// rewrites applied, IR size deltas) into a Report.
package pm

import (
	"context"
	"os"
	"strconv"

	"thorin/internal/analysis"
	"thorin/internal/ir"
)

// Result is what one pass run reports back to the driver.
type Result struct {
	// Rewrites counts the rewrites the pass applied (its native unit:
	// specializations, promoted slots, inlined calls, ...). A non-zero
	// count marks the pass as changing for fixpoint purposes.
	Rewrites int
	// Changed forces the pass to count as changing even with zero
	// rewrites. The runner additionally fingerprints the world before and
	// after each run, so a pass that forgets to set either still triggers
	// invalidation when it allocates or removes nodes.
	Changed bool
	// Saturated reports that the pass hit an internal iteration bound while
	// still rewriting: it did NOT reach its fixpoint, so the incremental
	// runner must not skip its next occurrence even if the journal is quiet.
	Saturated bool
}

// Pass is one named unit of IR transformation (or inspection). A pass runs
// in exactly one of two ways, and Register rejects any other: a Runner
// transforms the world in one call, and a ScopeRewriter is driven by the
// runner through its per-scope phases.
// Implementations must be stateless: the same Pass value is shared by every
// pipeline that names it, and all per-run state lives in the Context.
type Pass interface {
	Name() string
}

// Runner is a pass that transforms the world in one call.
type Runner interface {
	Pass
	Run(ctx *Context) (Result, error)
}

// ScopeRewriter is a pass whose work decomposes into independent per-scope
// units, which is what the paper's implicit-scope design makes possible:
// each top-level continuation's scope is computable from the dependency
// graph alone, so its analysis needs no global ordering.
//
// The runner executes such passes in three phases:
//
//  1. Targets once, to enumerate the rewrite roots in deterministic order;
//  2. Analyze per target, in parallel across ctx.Jobs workers — Analyze
//     MUST be read-only on the world (planning only; creating IR nodes here
//     would make gid assignment, and hence printed IR, depend on worker
//     scheduling);
//  3. Commit per target, sequentially in Targets order, applying the plan.
//     Finish runs once after all commits (trailing cleanup).
//
// Because hash-consing makes node identity order-independent and all
// mutation is confined to the sequential phases, a ScopeRewriter produces
// byte-identical IR at every jobs level.
type ScopeRewriter interface {
	Pass
	// Targets returns the rewrite roots. Order defines commit order.
	Targets(ctx *Context) []*ir.Continuation
	// Analyze plans the rewrite of one target without mutating the world.
	// The plan may be nil (nothing to do for this target).
	Analyze(ctx *Context, c *ir.Continuation) (any, error)
	// Commit applies a plan produced by Analyze.
	Commit(ctx *Context, c *ir.Continuation, plan any) (Result, error)
	// Finish runs after the last commit (e.g. a trailing cleanup sweep).
	Finish(ctx *Context) (Result, error)
}

// Context carries the per-run state a pass may use: the world under
// transformation, the shared analysis cache, and an open blackboard for
// pass-family state (e.g. accumulated typed statistics).
type Context struct {
	World *ir.World
	// Cache memoizes scopes per continuation, validating every lookup
	// against the world's rewrite generation (stale entries rebuild
	// themselves). In non-incremental mode the runner additionally
	// invalidates it wholesale after every pass that changed the IR.
	Cache *analysis.Cache
	// VerifyEach makes the runner call ir.Verify after every pass and
	// abort the pipeline naming the offending pass.
	VerifyEach bool
	// Jobs is the number of workers used for the parallel analysis phase of
	// ScopeRewriter passes. Values below 2 run sequentially. The result is
	// identical at every jobs level; only wall-clock time changes.
	Jobs int
	// Budget bounds the run's fixpoint iterations and IR size. The zero
	// value imposes no extra limits.
	Budget Budget
	// Ctx, when non-nil, cancels the run cooperatively: the pipeline checks
	// it at every budget seam — before and after each pass (hence between
	// fixpoint iterations) and between targets inside the parallel analysis
	// phase — and stops with ErrCanceled (or ErrDeadline when the context
	// timed out). This is how an abandoned compile-server request frees its
	// jobs-pool workers instead of compiling into the void.
	Ctx context.Context
	// Incremental enables journal-driven work skipping (see incremental.go):
	// self-fixpointing passes whose input has not changed since they last ran
	// are recorded as Skipped instead of executed, and ScopeRewriter analysis
	// plans are memoized per target keyed by scope pointer identity. The
	// produced IR is byte-identical either way; only the work differs. On by
	// default; driver.Config.DisableIncremental (thorinc -incremental=off)
	// turns it off.
	Incremental bool

	data     map[string]any
	passDone map[string]*passRecord
	memos    map[string]map[*ir.Continuation]*planMemo
}

// NewContext creates a run context for w with a fresh analysis cache. The
// default parallelism is 1 (fully sequential); the THORIN_JOBS environment
// variable overrides it, which is how the race-detector CI target forces
// the parallel scheduler through every existing test path.
func NewContext(w *ir.World) *Context {
	jobs := 1
	if s := os.Getenv("THORIN_JOBS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			jobs = n
		}
	}
	return &Context{
		World:       w,
		Cache:       analysis.NewCache(),
		Jobs:        jobs,
		Incremental: true,
		data:        make(map[string]any),
		passDone:    make(map[string]*passRecord),
		memos:       make(map[string]map[*ir.Continuation]*planMemo),
	}
}

// Put stores a blackboard value under key.
func (c *Context) Put(key string, v any) { c.data[key] = v }

// Get returns the blackboard value under key, or nil.
func (c *Context) Get(key string) any { return c.data[key] }
