package pm

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"thorin/internal/ir"
)

// fakeRewriter implements ScopeRewriter over a fixed target list, recording
// the commit order and which targets were analyzed.
type fakeRewriter struct {
	targets []*ir.Continuation
	failAt  int // index whose Analyze errors; -1 for none

	mu       sync.Mutex
	analyzed map[*ir.Continuation]int
	commits  []*ir.Continuation
	finished int
}

func (f *fakeRewriter) Name() string { return "fake" }

func (f *fakeRewriter) Targets(ctx *Context) []*ir.Continuation { return f.targets }

func (f *fakeRewriter) Analyze(ctx *Context, c *ir.Continuation) (any, error) {
	f.mu.Lock()
	f.analyzed[c]++
	f.mu.Unlock()
	for i, t := range f.targets {
		if t == c && i == f.failAt {
			return nil, fmt.Errorf("analyze failed on target %d", i)
		}
	}
	return c.Name() + "-plan", nil
}

func (f *fakeRewriter) Commit(ctx *Context, c *ir.Continuation, plan any) (Result, error) {
	if plan != c.Name()+"-plan" {
		return Result{}, fmt.Errorf("commit of %s got plan %v", c.Name(), plan)
	}
	f.commits = append(f.commits, c)
	return Result{Rewrites: 1}, nil
}

func (f *fakeRewriter) Finish(ctx *Context) (Result, error) {
	f.finished++
	return Result{Rewrites: 10}, nil
}

func fakeWorldTargets(n int) (*ir.World, []*ir.Continuation) {
	w := ir.NewWorld()
	targets := make([]*ir.Continuation, n)
	for i := range targets {
		targets[i] = w.Continuation(w.FnType(w.MemType()), fmt.Sprintf("t%d", i))
	}
	return w, targets
}

func TestRunScopedCommitsInTargetOrder(t *testing.T) {
	for _, jobs := range []int{1, 2, 8, 100} {
		t.Run(fmt.Sprintf("jobs=%d", jobs), func(t *testing.T) {
			w, targets := fakeWorldTargets(17)
			fr := &fakeRewriter{targets: targets, failAt: -1, analyzed: map[*ir.Continuation]int{}}
			ctx := NewContext(w)
			ctx.Jobs = jobs

			res, parallelism, stats, _, err := runScoped(ctx, fr)
			if err != nil {
				t.Fatal(err)
			}
			if want := min(jobs, len(targets)); parallelism != want {
				t.Errorf("parallelism = %d, want %d", parallelism, want)
			}
			if res.Rewrites != len(targets)+10 {
				t.Errorf("rewrites = %d, want %d", res.Rewrites, len(targets)+10)
			}
			if fr.finished != 1 {
				t.Errorf("finish ran %d times", fr.finished)
			}
			if len(fr.commits) != len(targets) {
				t.Fatalf("%d commits for %d targets", len(fr.commits), len(targets))
			}
			for i, c := range fr.commits {
				if c != targets[i] {
					t.Fatalf("commit %d = %s; commits must follow target order", i, c.Name())
				}
			}
			analyzedTotal := 0
			for _, n := range fr.analyzed {
				if n != 1 {
					t.Error("a target was analyzed more than once")
				}
				analyzedTotal += n
			}
			if analyzedTotal != len(targets) {
				t.Errorf("analyzed %d targets, want %d", analyzedTotal, len(targets))
			}
			workerTargets := 0
			for _, ws := range stats {
				workerTargets += ws.Targets
			}
			if workerTargets != len(targets) {
				t.Errorf("worker stats cover %d targets, want %d", workerTargets, len(targets))
			}
		})
	}
}

func TestRunScopedFailsDeterministically(t *testing.T) {
	// Whatever the worker schedule, the reported error is the first failing
	// target in target order and no commit runs.
	for _, jobs := range []int{1, 4} {
		w, targets := fakeWorldTargets(9)
		fr := &fakeRewriter{targets: targets, failAt: 3, analyzed: map[*ir.Continuation]int{}}
		ctx := NewContext(w)
		ctx.Jobs = jobs

		_, _, _, _, err := runScoped(ctx, fr)
		if err == nil || err.Error() != "analyze failed on target 3" {
			t.Fatalf("jobs=%d: err = %v, want the target-order first failure", jobs, err)
		}
		if len(fr.commits) != 0 {
			t.Fatalf("jobs=%d: %d commits ran despite analysis failure", jobs, len(fr.commits))
		}
	}
}

func TestRunScopedNoTargets(t *testing.T) {
	w, _ := fakeWorldTargets(0)
	fr := &fakeRewriter{failAt: -1, analyzed: map[*ir.Continuation]int{}}
	ctx := NewContext(w)
	ctx.Jobs = 8
	res, _, _, _, err := runScoped(ctx, fr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rewrites != 10 || fr.finished != 1 {
		t.Fatal("finish must still run once with no targets")
	}
}

// buildingRewriter is a ScopeRewriter whose Analyze breaks the read-only
// contract by interning a literal. It counts its commits on the blackboard.
type buildingRewriter struct{}

func (buildingRewriter) Name() string { return "t-analyze-builds" }

func (buildingRewriter) Targets(ctx *Context) []*ir.Continuation { return ctx.World.Continuations() }

func (buildingRewriter) Analyze(ctx *Context, c *ir.Continuation) (any, error) {
	return ctx.World.LitI64(int64(c.GID())), nil
}

func (buildingRewriter) Commit(ctx *Context, c *ir.Continuation, plan any) (Result, error) {
	bump(ctx, "t-analyze-builds.commits")
	return Result{}, nil
}

func (buildingRewriter) Finish(ctx *Context) (Result, error) { return Result{}, nil }

func init() { Register(buildingRewriter{}) }

// TestAnalyzeMustNotBuild: a pass whose analysis phase creates a node fails
// by name before any commit runs, at every jobs level.
func TestAnalyzeMustNotBuild(t *testing.T) {
	p, err := Parse("t-nop,t-analyze-builds")
	if err != nil {
		t.Fatal(err)
	}
	for _, jobs := range []int{1, 4} {
		w, _ := fakeWorldTargets(8)
		ctx := NewContext(w)
		ctx.Jobs = jobs
		_, err := p.Run(ctx)
		if name, ok := FailedPass(err); !ok || name != "t-analyze-builds" {
			t.Fatalf("jobs=%d: FailedPass = %q,%v (err %v), want t-analyze-builds", jobs, name, ok, err)
		}
		if !strings.Contains(err.Error(), "Analyze must be read-only") {
			t.Errorf("jobs=%d: err = %v, want the read-only contract named", jobs, err)
		}
		if n, _ := ctx.Get("t-analyze-builds.commits").(int); n != 0 {
			t.Errorf("jobs=%d: %d commits ran after a mutating analysis", jobs, n)
		}
	}
}
