package pm

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"thorin/internal/analysis"
	"thorin/internal/ir"
)

// WorkerStat records one worker's share of a parallel analysis phase.
type WorkerStat struct {
	Worker  int           `json:"worker"`
	Targets int           `json:"targets"`
	Time    time.Duration `json:"time_ns"`
}

// analyzeOne runs one Analyze under the panic containment boundary: a
// panicking target produces a *PassPanicError in its error slot while the
// worker that recovered keeps draining the queue, so a fault never leaks
// goroutines or deadlocks the scheduler.
//
// With a non-nil memo table (incremental mode, self-fixpointing pass) it
// first resolves the target's current scope through the validating cache: if
// the memoized entry holds the *same scope pointer*, nothing in the target's
// closure changed since the plan was computed and the memoized plan is
// returned without re-analyzing. The memo table is read-only during the
// (possibly parallel) analysis phase — writes happen after the sequential
// commit phase — and the cache itself is concurrency-safe, so workers need
// no extra locking. The validation runs here, on the worker, rather than in
// a sequential pre-phase: ScopeOf both validates and pins the pointer in one
// step, so any in-scope mutation before this moment already produced a fresh
// pointer and therefore a miss.
func analyzeOne(ctx *Context, sr ScopeRewriter, c *ir.Continuation, memo map[*ir.Continuation]*planMemo) (plan any, scope *analysis.Scope, hit bool, err error) {
	err = guard(sr.Name(), c.Name(), func() error {
		if memo != nil {
			scope = ctx.Cache.ScopeOf(c)
			if m := memo[c]; m != nil && m.scope == scope {
				plan, hit = m.plan, true
				return nil
			}
		}
		var aerr error
		plan, aerr = sr.Analyze(ctx, c)
		return aerr
	})
	return plan, scope, hit, err
}

// runScoped drives one ScopeRewriter pass: enumerate targets, analyze them
// (in parallel when ctx.Jobs > 1), then commit sequentially in target order
// and finish. Analysis errors — including recovered panics — are surfaced
// in deterministic target order so a failing pipeline reports the same
// error at every jobs level. An analysis phase that created a node or
// rewrote the graph fails the pass before any commit: node creation racing
// across workers would make gid assignment, and so the printed IR, depend
// on the worker schedule.
func runScoped(ctx *Context, sr ScopeRewriter) (res Result, parallelism int, stats []WorkerStat, memoHits int, err error) {
	var targets []*ir.Continuation
	if err := guard(sr.Name(), "", func() error {
		targets = sr.Targets(ctx)
		return nil
	}); err != nil {
		return Result{}, 0, nil, 0, err
	}
	var memo map[*ir.Continuation]*planMemo
	if ctx.Incremental {
		if _, ok := sr.(SelfFixpointing); ok {
			memo = ctx.memoFor(sr.Name())
		}
	}
	jobs := ctx.Jobs
	if jobs < 1 {
		jobs = 1
	}
	if jobs > len(targets) {
		jobs = len(targets)
	}
	if jobs < 1 {
		jobs = 1
	}

	plans := make([]any, len(targets))
	scopes := make([]*analysis.Scope, len(targets))
	hits := make([]bool, len(targets))
	errs := make([]error, len(targets))
	stats = make([]WorkerStat, jobs)
	gen, rewriteGen := ctx.World.Generation(), ctx.World.RewriteGen()

	// Cancellation seam for the analysis phase: each worker re-checks the
	// run context between targets, so an abandoned request stops consuming
	// the pool after at most one in-flight Analyze per worker.
	cancelLabel := "pass " + sr.Name() + " analyze"
	if jobs == 1 {
		start := time.Now()
		for i, c := range targets {
			if cerr := ctx.interrupted(cancelLabel); cerr != nil {
				errs[i] = cerr
				break
			}
			plans[i], scopes[i], hits[i], errs[i] = analyzeOne(ctx, sr, c, memo)
		}
		stats[0] = WorkerStat{Worker: 0, Targets: len(targets), Time: time.Since(start)}
	} else {
		// Dynamic work stealing over a shared index: scopes vary wildly in
		// size, so static partitioning would leave workers idle.
		var next atomic.Int64
		var wg sync.WaitGroup
		for wi := 0; wi < jobs; wi++ {
			wg.Add(1)
			go func(wi int) {
				defer wg.Done()
				start := time.Now()
				n := 0
				for {
					i := int(next.Add(1)) - 1
					if i >= len(targets) {
						break
					}
					if cerr := ctx.interrupted(cancelLabel); cerr != nil {
						errs[i] = cerr
						break
					}
					plans[i], scopes[i], hits[i], errs[i] = analyzeOne(ctx, sr, targets[i], memo)
					n++
				}
				stats[wi] = WorkerStat{Worker: wi, Targets: n, Time: time.Since(start)}
			}(wi)
		}
		wg.Wait()
	}
	for _, h := range hits {
		if h {
			memoHits++
		}
	}

	var total Result
	for i := range targets {
		if errs[i] != nil {
			return total, jobs, stats, memoHits, errs[i]
		}
	}
	if g, rg := ctx.World.Generation(), ctx.World.RewriteGen(); g != gen || rg != rewriteGen {
		return total, jobs, stats, memoHits, fmt.Errorf(
			"analysis phase mutated the world (generation %d -> %d, rewrite generation %d -> %d); Analyze must be read-only",
			gen, g, rewriteGen, rg)
	}
	for i, c := range targets {
		c := c
		// A canceled request stops between commits too: the half-committed
		// world is only ever discarded (the request is abandoned, or the
		// degrade path recompiles on a fresh world), never served.
		if cerr := ctx.interrupted("pass " + sr.Name() + " commit"); cerr != nil {
			return total, jobs, stats, memoHits, cerr
		}
		var cres Result
		err := guard(sr.Name(), c.Name(), func() error {
			var cerr error
			cres, cerr = sr.Commit(ctx, c, plans[i])
			return cerr
		})
		total.Rewrites += cres.Rewrites
		total.Changed = total.Changed || cres.Changed
		total.Saturated = total.Saturated || cres.Saturated
		if err != nil {
			return total, jobs, stats, memoHits, err
		}
	}
	var fres Result
	err = guard(sr.Name(), "", func() error {
		var ferr error
		fres, ferr = sr.Finish(ctx)
		return ferr
	})
	total.Rewrites += fres.Rewrites
	total.Changed = total.Changed || fres.Changed
	total.Saturated = total.Saturated || fres.Saturated
	if memo != nil && err == nil {
		// Store the plans computed this run. A target whose commit (or a
		// later target's commit) touched its scope gets a fresh scope
		// pointer on the next lookup, so its entry misses and re-analyzes;
		// untouched targets hit. Storing the pre-commit pointer is exactly
		// what makes that work.
		for i, c := range targets {
			if scopes[i] != nil {
				memo[c] = &planMemo{scope: scopes[i], plan: plans[i]}
			}
		}
	}
	return total, jobs, stats, memoHits, err
}
