package pm

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"thorin/internal/ir"
)

// panickyRewriter is a ScopeRewriter that panics in one configurable phase:
// "targets", "analyze" (on target panicAt), "commit" (on target panicAt) or
// "finish". It is the fault-injection fixture for the scheduler tests.
type panickyRewriter struct {
	targets []*ir.Continuation
	phase   string
	panicAt int

	commits int
}

func (p *panickyRewriter) Name() string { return "panicky" }

func (p *panickyRewriter) Targets(ctx *Context) []*ir.Continuation {
	if p.phase == "targets" {
		panic("boom in targets")
	}
	return p.targets
}

func (p *panickyRewriter) Analyze(ctx *Context, c *ir.Continuation) (any, error) {
	if p.phase == "analyze" && c == p.targets[p.panicAt] {
		panic(fmt.Sprintf("boom on %s", c.Name()))
	}
	return "plan", nil
}

func (p *panickyRewriter) Commit(ctx *Context, c *ir.Continuation, plan any) (Result, error) {
	if p.phase == "commit" && c == p.targets[p.panicAt] {
		panic(fmt.Sprintf("boom on %s", c.Name()))
	}
	p.commits++
	return Result{Rewrites: 1}, nil
}

func (p *panickyRewriter) Finish(ctx *Context) (Result, error) {
	if p.phase == "finish" {
		panic("boom in finish")
	}
	return Result{}, nil
}

// stableGoroutines polls until the goroutine count settles back to at most
// base (background GC helpers may come and go), failing after one second.
func stableGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", base, n)
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
}

// TestScopedPanicIsolation is the fault-containment regression of the issue:
// a pass that panics on its Nth target must not crash the process, deadlock
// or leak goroutines at any jobs level, and must report the same
// PassPanicError whatever the worker schedule.
func TestScopedPanicIsolation(t *testing.T) {
	const panicAt = 5
	var wantErr string
	for _, jobs := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("jobs=%d", jobs), func(t *testing.T) {
			w, targets := fakeWorldTargets(17)
			pr := &panickyRewriter{targets: targets, phase: "analyze", panicAt: panicAt}
			ctx := NewContext(w)
			ctx.Jobs = jobs

			base := runtime.NumGoroutine()
			_, _, _, _, err := runScoped(ctx, pr)
			stableGoroutines(t, base)

			var pp *PassPanicError
			if !errors.As(err, &pp) {
				t.Fatalf("err = %v, want a *PassPanicError", err)
			}
			if pp.Pass != "panicky" || pp.Target != targets[panicAt].Name() {
				t.Errorf("panic attributed to pass %q target %q, want panicky/%s",
					pp.Pass, pp.Target, targets[panicAt].Name())
			}
			if len(pp.Stack) == 0 {
				t.Error("recovered panic must carry a stack trace")
			}
			if wantErr == "" {
				wantErr = err.Error()
			} else if err.Error() != wantErr {
				t.Errorf("error differs across jobs levels:\n%q\nvs\n%q", err.Error(), wantErr)
			}
			if pr.commits != 0 {
				t.Errorf("%d commits ran despite an analysis panic", pr.commits)
			}
		})
	}
	if !strings.Contains(wantErr, `pm: pass "panicky" panicked on t5: boom on t5`) {
		t.Errorf("unexpected panic message %q", wantErr)
	}
}

// TestScopedPanicPhases checks the remaining containment boundaries: panics
// in Targets, Commit and Finish all surface as attributed errors.
func TestScopedPanicPhases(t *testing.T) {
	for _, tc := range []struct {
		phase  string
		target string // expected PassPanicError.Target
	}{
		{"targets", ""},
		{"commit", "t3"},
		{"finish", ""},
	} {
		t.Run(tc.phase, func(t *testing.T) {
			w, targets := fakeWorldTargets(9)
			pr := &panickyRewriter{targets: targets, phase: tc.phase, panicAt: 3}
			ctx := NewContext(w)
			ctx.Jobs = 4
			_, _, _, _, err := runScoped(ctx, pr)
			var pp *PassPanicError
			if !errors.As(err, &pp) {
				t.Fatalf("err = %v, want a *PassPanicError", err)
			}
			if pp.Target != tc.target {
				t.Errorf("Target = %q, want %q", pp.Target, tc.target)
			}
			if tc.phase == "commit" && pr.commits != 3 {
				t.Errorf("%d commits before the panicking one, want 3", pr.commits)
			}
		})
	}
}

func init() {
	// A pass that panics unconditionally, for the pipeline-level tests.
	Register(testPass{"t-panic", func(ctx *Context) Result {
		panic("unreachable invariant")
	}})
}

func TestPipelinePanicNamesPass(t *testing.T) {
	p, err := Parse("t-nop,t-panic,t-nop")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := p.Run(newCtx())
	if err == nil {
		t.Fatal("expected the panicking pass to fail the pipeline")
	}
	if !strings.Contains(err.Error(), `pm: pass "t-panic" panicked: unreachable invariant`) {
		t.Errorf("error must name the panicking pass: %v", err)
	}
	var pp *PassPanicError
	if !errors.As(err, &pp) || pp.Pass != "t-panic" {
		t.Fatalf("err = %v, want a *PassPanicError for t-panic", err)
	}
	if name, ok := FailedPass(err); !ok || name != "t-panic" {
		t.Errorf("FailedPass = %q,%v, want t-panic,true", name, ok)
	}
	// The report records the aborted run with its error.
	if len(rep.Runs) != 2 || rep.Runs[1].Err == "" {
		t.Errorf("report must record the panicking run: %+v", rep.Runs)
	}
}

func TestFailedPassOnOrdinaryError(t *testing.T) {
	p, err := Parse("t-nop,t-corrupt,t-nop")
	if err != nil {
		t.Fatal(err)
	}
	ctx := newCtx()
	ctx.VerifyEach = true
	_, err = p.Run(ctx)
	if name, ok := FailedPass(err); !ok || name != "t-corrupt" {
		t.Errorf("FailedPass = %q,%v, want t-corrupt,true", name, ok)
	}
	if name, ok := FailedPass(errors.New("unrelated")); ok {
		t.Errorf("FailedPass on unrelated error = %q, want none", name)
	}
}

func TestBudgetMaxNodes(t *testing.T) {
	// t-corrupt allocates a continuation (and its param), blowing a
	// one-node budget right after the pass.
	p, err := Parse("t-corrupt")
	if err != nil {
		t.Fatal(err)
	}
	ctx := newCtx()
	ctx.Budget.MaxNodes = 1
	if _, err := p.Run(ctx); !errors.Is(err, ErrNodeBudget) {
		t.Fatalf("err = %v, want ErrNodeBudget", err)
	}
}

func TestBudgetMaxFixpointIters(t *testing.T) {
	p, err := Parse("fix(t-tick)")
	if err != nil {
		t.Fatal(err)
	}
	ctx := newCtx()
	ctx.Put("t.budget", 1<<30) // never converges
	ctx.Budget.MaxFixpointIters = 3
	rep, err := p.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Saturated {
		t.Error("budget-bounded group must be flagged saturated")
	}
	if len(rep.Runs) != 3 {
		t.Errorf("expected the budget to stop the group at 3 runs, got %d", len(rep.Runs))
	}
}

func TestParseBudget(t *testing.T) {
	b, err := ParseBudget("iters=8,nodes=1000")
	if err != nil {
		t.Fatal(err)
	}
	if b.MaxFixpointIters != 8 || b.MaxNodes != 1000 {
		t.Errorf("unexpected budget %+v", b)
	}
	if b, err := ParseBudget(""); err != nil || b != (Budget{}) {
		t.Errorf("empty budget = %+v, %v", b, err)
	}
	for _, bad := range []string{"iters", "iters=x", "nodes=-1", "gas=5"} {
		if _, err := ParseBudget(bad); err == nil {
			t.Errorf("ParseBudget(%q): expected error", bad)
		}
	}
	// Wall clock is bounded by the request deadline alone.
	if _, err := ParseBudget("time=5s"); err == nil || !strings.Contains(err.Error(), `unknown budget key "time"`) {
		t.Errorf("ParseBudget(time=5s) = %v, want an unknown-key error", err)
	}
}

func TestStripPass(t *testing.T) {
	for _, tc := range []struct {
		spec, name, want string
		removed          bool
	}{
		{"t-nop,fix(t-tick,t-panic),t-nop", "t-panic", "t-nop,fix(t-tick),t-nop", true},
		{"t-nop,fix(t-panic)", "t-panic", "t-nop", true},
		{"t-nop,t-tick", "t-panic", "t-nop,t-tick", false},
		{"fix(fix(t-panic),t-nop)", "t-panic", "fix(t-nop)", true},
	} {
		got, removed, err := StripPass(tc.spec, tc.name)
		if err != nil {
			t.Fatalf("StripPass(%q, %q): %v", tc.spec, tc.name, err)
		}
		if got != tc.want || removed != tc.removed {
			t.Errorf("StripPass(%q, %q) = %q,%v; want %q,%v",
				tc.spec, tc.name, got, removed, tc.want, tc.removed)
		}
	}
	if _, _, err := StripPass("nosuchpass", "x"); err == nil {
		t.Error("StripPass with a bad spec must error")
	}
}
