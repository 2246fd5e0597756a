package pm

import (
	"errors"
	"time"

	"thorin/internal/ir"
)

// DefaultMaxFixIters bounds every fix(...) group. A group that has not
// reached a fixpoint after this many iterations stops and is flagged
// Saturated in the report instead of looping forever.
const DefaultMaxFixIters = 32

// Pipeline is a parsed pass sequence ready to run.
type Pipeline struct {
	// Spec is the string the pipeline was parsed from.
	Spec string
	// MaxFixIters bounds each fix group (DefaultMaxFixIters when parsed).
	MaxFixIters int

	items []item
}

// fingerprint is the cheap world-change signal: any node allocation moves
// gen, any continuation or primop removal moves the counts.
type fingerprint struct {
	gen     int
	conts   int
	primops int
}

func snapshot(w *ir.World) fingerprint {
	return fingerprint{gen: w.Generation(), conts: w.NumContinuations(), primops: w.NumPrimOps()}
}

// Run executes the pipeline over ctx.World. It always returns the report
// accumulated so far, even when a pass or a verification fails.
func (p *Pipeline) Run(ctx *Context) (*Report, error) {
	rep := &Report{Spec: p.Spec}
	// Drain journal activity that predates this run (IR construction,
	// external mutations on a reused context): it dirties every pass record,
	// so nothing is skipped based on stale knowledge.
	ctx.noteDirty("")
	start := time.Now()
	_, err := p.runSeq(ctx, p.items, rep, "", 0)
	rep.Total = time.Since(start)
	rep.Cache = ctx.Cache.Stats()
	return rep, err
}

// runSeq runs one pass sequence, returning whether any pass changed the IR.
// path labels the enclosing fix nesting ("fix", "fix/fix", ...) and iter is
// the current iteration of the innermost enclosing group (0 = top level).
func (p *Pipeline) runSeq(ctx *Context, items []item, rep *Report, path string, iter int) (bool, error) {
	changed := false
	for _, it := range items {
		switch it := it.(type) {
		case passItem:
			ch, err := p.runPass(ctx, it.pass, rep, path, iter)
			changed = changed || ch
			if err != nil {
				return changed, err
			}
		case fixItem:
			ch, err := p.runFix(ctx, it, rep, path)
			changed = changed || ch
			if err != nil {
				return changed, err
			}
		}
	}
	return changed, nil
}

// runFix iterates a pass group until an iteration reports no change.
func (p *Pipeline) runFix(ctx *Context, f fixItem, rep *Report, path string) (bool, error) {
	sub := "fix"
	if path != "" {
		sub = path + "/fix"
	}
	max := p.MaxFixIters
	if ctx.Budget.MaxFixpointIters > 0 {
		max = ctx.Budget.MaxFixpointIters
	}
	if max <= 0 {
		max = DefaultMaxFixIters
	}
	changed := false
	for i := 1; ; i++ {
		ch, err := p.runSeq(ctx, f.items, rep, sub, i)
		changed = changed || ch
		if err != nil {
			return changed, err
		}
		if !ch {
			return changed, nil
		}
		if i == max {
			rep.Saturated = true
			return changed, nil
		}
	}
}

func (p *Pipeline) runPass(ctx *Context, pass Pass, rep *Report, path string, iter int) (bool, error) {
	if berr := ctx.Budget.check(ctx, "before pass "+pass.Name()); berr != nil {
		return false, berr
	}
	if ctx.Incremental {
		if _, ok := pass.(SelfFixpointing); ok && ctx.passClean(pass.Name()) {
			// The pass saturated on exactly this IR already and nothing was
			// journaled since: running it again is provably a no-op. Record
			// the skip (Rewrites 0, Changed false) and move on — no
			// verification, no invalidation.
			rep.Runs = append(rep.Runs, PassRun{Name: pass.Name(), Path: path, Iter: iter, Skipped: true})
			return false, nil
		}
	}
	before := snapshot(ctx.World)
	cacheBefore := ctx.Cache.Stats()
	start := time.Now()
	var res Result
	var err error
	var parallelism int
	var memoHits int
	var workers []WorkerStat
	switch pass := pass.(type) {
	case ScopeRewriter:
		res, parallelism, workers, memoHits, err = runScoped(ctx, pass)
	case Runner:
		// Panic containment boundary for ordinary passes: a panicking pass
		// fails its pipeline with a structured *PassPanicError instead of
		// crashing the process. ScopeRewriter phases are guarded per target
		// inside runScoped.
		err = guard(pass.Name(), "", func() error {
			var rerr error
			res, rerr = pass.Run(ctx)
			return rerr
		})
	}
	dur := time.Since(start)
	after := snapshot(ctx.World)
	cacheAfter := ctx.Cache.Stats()

	changed := res.Changed || res.Rewrites > 0 || after != before
	if changed && !ctx.Incremental {
		// Conservative invalidation rule for the non-incremental reference
		// mode: any reported or fingerprinted mutation voids every memoized
		// analysis. Incremental mode instead relies on the cache's per-lookup
		// stamp validation, which evicts exactly the entries that went stale.
		ctx.Cache.InvalidateAll()
	}
	// Update the skip records: journal activity dirties every other pass;
	// this pass just saturated on the result of its own rewrites, so it
	// stays clean unless it hit its round cap. A failed run dirties itself
	// too — its partial mutations are not a fixpoint of anything.
	if err == nil {
		ctx.noteDirty(pass.Name())
		ctx.markRun(pass.Name(), res.Saturated)
	} else {
		ctx.noteDirty("")
	}

	run := PassRun{
		Name:          pass.Name(),
		Path:          path,
		Iter:          iter,
		Time:          dur,
		Rewrites:      res.Rewrites,
		Changed:       changed,
		ContsBefore:   before.conts,
		ContsAfter:    after.conts,
		PrimOpsBefore: before.primops,
		PrimOpsAfter:  after.primops,
		CacheHits:     cacheAfter.Hits - cacheBefore.Hits,
		CacheMisses:   cacheAfter.Misses - cacheBefore.Misses,
		Parallelism:   parallelism,
		MemoHits:      memoHits,
		Workers:       workers,
	}
	if err != nil {
		run.Err = err.Error()
		rep.Runs = append(rep.Runs, run)
		var pp *PassPanicError
		if errors.As(err, &pp) {
			// Panics are already attributed to the pass; keep them typed so
			// the driver's failure policy and crash artifacts see the stack.
			return changed, err
		}
		return changed, &PassError{Pass: pass.Name(), Err: err}
	}
	if ctx.VerifyEach {
		if verr := ir.Verify(ctx.World); verr != nil {
			run.Err = verr.Error()
			rep.Runs = append(rep.Runs, run)
			return changed, &PassError{Pass: pass.Name(), Verify: true, Err: verr}
		}
	}
	rep.Runs = append(rep.Runs, run)
	if berr := ctx.Budget.check(ctx, "after pass "+pass.Name()); berr != nil {
		return changed, berr
	}
	return changed, nil
}
