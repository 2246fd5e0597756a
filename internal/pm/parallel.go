package pm

import (
	"sync"
	"sync/atomic"
	"time"

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
func analyzeOne(ctx *Context, sr ScopeRewriter, c *ir.Continuation) (plan any, err error) {
	err = guard(sr.Name(), c.Name(), func() error {
		var aerr error
		plan, aerr = sr.Analyze(ctx, c)
		return aerr
	})
	return plan, err
}

// analyzeAll runs Analyze on every target with jobs workers, filling plans
// and errs by target index, while the world is read-only.
func analyzeAll(ctx *Context, sr ScopeRewriter, targets []*ir.Continuation, jobs int, plans []any, errs []error) []WorkerStat {
	stats := make([]WorkerStat, jobs)
	ctx.World.SetReadOnly(true)
	defer ctx.World.SetReadOnly(false)

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
			plans[i], errs[i] = analyzeOne(ctx, sr, c)
		}
		stats[0] = WorkerStat{Worker: 0, Targets: len(targets), Time: time.Since(start)}
		return stats
	}
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
				plans[i], errs[i] = analyzeOne(ctx, sr, targets[i])
				n++
			}
			stats[wi] = WorkerStat{Worker: wi, Targets: n, Time: time.Since(start)}
		}(wi)
	}
	wg.Wait()
	return stats
}

// runScoped drives one ScopeRewriter pass: enumerate targets, analyze them
// (in parallel when ctx.Jobs > 1), then commit sequentially in target order
// and finish. Analysis errors — including recovered panics — are surfaced
// in deterministic target order so a failing pipeline reports the same
// error at every jobs level. The world is read-only during the analysis
// phase, so an Analyze that tries to create a node or rewrite the graph
// panics there and fails the pass by name before any commit: node creation
// racing across workers would make gid assignment, and so the printed IR,
// depend on the worker schedule.
func runScoped(ctx *Context, sr ScopeRewriter) (res Result, parallelism int, stats []WorkerStat, err error) {
	var targets []*ir.Continuation
	if err := guard(sr.Name(), "", func() error {
		targets = sr.Targets(ctx)
		return nil
	}); err != nil {
		return Result{}, 0, nil, err
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
	errs := make([]error, len(targets))
	stats = analyzeAll(ctx, sr, targets, jobs, plans, errs)
	var total Result
	for i := range targets {
		if errs[i] != nil {
			return total, jobs, stats, errs[i]
		}
	}
	for i, c := range targets {
		c := c
		// A canceled request stops between commits too: the half-committed
		// world is only ever discarded (the request is abandoned, or the
		// degrade path recompiles on a fresh world), never served.
		if cerr := ctx.interrupted("pass " + sr.Name() + " commit"); cerr != nil {
			return total, jobs, stats, cerr
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
			return total, jobs, stats, err
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
	return total, jobs, stats, err
}
