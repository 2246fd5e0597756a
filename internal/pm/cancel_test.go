package pm

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"thorin/internal/ir"
)

func init() {
	// A pass that always reports a change and cancels the run context (put
	// on the blackboard) once it has run its configured number of times —
	// the fixture for the between-pass / between-iteration cancellation
	// seams.
	Register(testPass{"t-cancel-tick", func(ctx *Context) Result {
		n, _ := ctx.Get("cancel.after").(int)
		runs, _ := ctx.Get("cancel.runs").(int)
		runs++
		ctx.Put("cancel.runs", runs)
		if runs >= n {
			ctx.Get("cancel.fn").(context.CancelFunc)()
		}
		return Result{Rewrites: 1}
	}})
}

// TestCancelBetweenPasses: a context canceled mid-pipeline stops the run at
// the next pass boundary with ErrCanceled; later passes never start.
func TestCancelBetweenPasses(t *testing.T) {
	pl, err := Parse("t-cancel-tick,t-cancel-tick,t-cancel-tick,t-cancel-tick")
	if err != nil {
		t.Fatal(err)
	}
	cctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctx := NewContext(ir.NewWorld())
	ctx.Ctx = cctx
	ctx.Put("cancel.after", 2)
	ctx.Put("cancel.fn", cancel)

	rep, rerr := pl.Run(ctx)
	if !errors.Is(rerr, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", rerr)
	}
	if runs := ctx.Get("cancel.runs").(int); runs != 2 {
		t.Errorf("pass ran %d times after cancellation at run 2", runs)
	}
	if len(rep.Runs) != 2 {
		t.Errorf("report holds %d runs, want 2", len(rep.Runs))
	}
}

// TestCancelBetweenFixIterations: cancellation inside a fix(...) group stops
// the iteration loop (the per-pass budget check is the seam), not just the
// top-level sequence.
func TestCancelBetweenFixIterations(t *testing.T) {
	pl, err := Parse("fix(t-cancel-tick)")
	if err != nil {
		t.Fatal(err)
	}
	cctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctx := NewContext(ir.NewWorld())
	ctx.Ctx = cctx
	ctx.Put("cancel.after", 3)
	ctx.Put("cancel.fn", cancel)

	_, rerr := pl.Run(ctx)
	if !errors.Is(rerr, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", rerr)
	}
	if runs := ctx.Get("cancel.runs").(int); runs != 3 {
		t.Errorf("fix iterated %d times after cancellation at iteration 3", runs)
	}
}

// TestContextDeadlineMapsToErrDeadline: an expired context reads as a
// deadline overrun, matching the wall-clock budget vocabulary, so callers
// distinguish "took too long" from "client went away".
func TestContextDeadlineMapsToErrDeadline(t *testing.T) {
	cctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	ctx := NewContext(ir.NewWorld())
	ctx.Ctx = cctx

	pl, err := Parse("t-nop")
	if err != nil {
		t.Fatal(err)
	}
	_, rerr := pl.Run(ctx)
	if !errors.Is(rerr, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", rerr)
	}
	if errors.Is(rerr, ErrCanceled) {
		t.Error("deadline expiry must not read as cancellation")
	}
}

// cancellingRewriter cancels the run context during its Nth Analyze (or
// first Commit) and counts phase entries, so the tests can assert how much
// work ran after the cancellation point.
type cancellingRewriter struct {
	targets  []*ir.Continuation
	cancel   context.CancelFunc
	inCommit bool
	analyzed atomic.Int64
	commits  atomic.Int64
}

func (r *cancellingRewriter) Name() string                        { return "cancelling" }
func (r *cancellingRewriter) Targets(*Context) []*ir.Continuation { return r.targets }
func (r *cancellingRewriter) Analyze(_ *Context, c *ir.Continuation) (any, error) {
	if r.analyzed.Add(1) == 1 && !r.inCommit {
		r.cancel()
	}
	return "plan", nil
}
func (r *cancellingRewriter) Commit(_ *Context, c *ir.Continuation, plan any) (Result, error) {
	if r.commits.Add(1) == 1 && r.inCommit {
		r.cancel()
	}
	return Result{Rewrites: 1}, nil
}
func (r *cancellingRewriter) Finish(*Context) (Result, error) { return Result{}, nil }

// TestCancelStopsParallelAnalyze: a context canceled while the parallel
// analysis phase is running stops every worker at its next target — the
// "abandoned request frees its jobs-pool workers" guarantee — at every jobs
// level, with no commits applied.
func TestCancelStopsParallelAnalyze(t *testing.T) {
	const n = 64
	for _, jobs := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("jobs=%d", jobs), func(t *testing.T) {
			w, targets := fakeWorldTargets(n)
			cctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			r := &cancellingRewriter{targets: targets, cancel: cancel}
			ctx := NewContext(w)
			ctx.Jobs = jobs
			ctx.Ctx = cctx

			_, _, _, err := runScoped(ctx, r)
			if !errors.Is(err, ErrCanceled) {
				t.Fatalf("err = %v, want ErrCanceled", err)
			}
			// Every worker may have had one Analyze in flight when the
			// cancel landed; nothing beyond that bound may run, and the
			// commit phase must never start.
			if got := r.analyzed.Load(); got > int64(jobs) {
				t.Errorf("%d targets analyzed after cancellation, want at most %d (one in flight per worker)", got, jobs)
			}
			if got := r.commits.Load(); got != 0 {
				t.Errorf("%d commits ran on a canceled pass", got)
			}
		})
	}
}

// TestCancelStopsCommitLoop: cancellation during the sequential commit
// phase stops before the next commit; the partially-committed world is the
// caller's to discard.
func TestCancelStopsCommitLoop(t *testing.T) {
	w, targets := fakeWorldTargets(8)
	cctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r := &cancellingRewriter{targets: targets, cancel: cancel, inCommit: true}
	ctx := NewContext(w)
	ctx.Ctx = cctx

	_, _, _, err := runScoped(ctx, r)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if got := r.commits.Load(); got != 1 {
		t.Errorf("%d commits ran, want exactly the one that canceled", got)
	}
}
