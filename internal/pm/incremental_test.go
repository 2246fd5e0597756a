package pm

import (
	"testing"
)

// markedPass is a fake pass that opts into incremental skipping.
type markedPass struct {
	name string
	fn   func(ctx *Context) Result
}

func (p markedPass) Name() string                     { return p.name }
func (p markedPass) Run(ctx *Context) (Result, error) { return p.fn(ctx), nil }
func (p markedPass) SelfFixpointing()                 {}

func bump(ctx *Context, key string) int {
	n, _ := ctx.Get(key).(int)
	ctx.Put(key, n+1)
	return n + 1
}

func init() {
	// A self-fixpointing no-op: eligible for skipping as soon as it ran once
	// without the rewrite generation moving since.
	Register(markedPass{"t-fix", func(ctx *Context) Result {
		bump(ctx, "t-fix.runs")
		return Result{}
	}})
	// A self-fixpointing pass that always reports saturation: never
	// skippable, even when the rewrite generation has not moved.
	Register(markedPass{"t-satfix", func(ctx *Context) Result {
		bump(ctx, "t-satfix.runs")
		return Result{Saturated: true}
	}})
	// An unmarked pass whose continuation creation moves the rewrite
	// generation.
	Register(testPass{"t-mut", func(ctx *Context) Result {
		w := ctx.World
		w.Continuation(w.FnType(), "tmut")
		return Result{Changed: true}
	}})
}

func runSpec(t *testing.T, spec string, incremental bool) (*Context, *Report) {
	t.Helper()
	p, err := Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx := newCtx()
	ctx.Incremental = incremental
	rep, err := p.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	return ctx, rep
}

func TestIncrementalSkipsCleanMarkedPass(t *testing.T) {
	ctx, rep := runSpec(t, "t-fix,t-fix", true)
	if got, _ := ctx.Get("t-fix.runs").(int); got != 1 {
		t.Fatalf("marked pass executed %d times, want 1 (second occurrence skipped)", got)
	}
	if len(rep.Runs) != 2 || !rep.Runs[1].Skipped {
		t.Fatalf("second run not recorded as skipped: %+v", rep.Runs)
	}
	skip := rep.Runs[1]
	if skip.Rewrites != 0 || skip.Changed || skip.Err != "" {
		t.Fatalf("skipped run must be a recorded no-op, got %+v", skip)
	}
	if rep.Skips() != 1 {
		t.Fatalf("Skips() = %d, want 1", rep.Skips())
	}
}

func TestIncrementalOffRunsEverything(t *testing.T) {
	ctx, rep := runSpec(t, "t-fix,t-fix", false)
	if got, _ := ctx.Get("t-fix.runs").(int); got != 2 {
		t.Fatalf("with incremental off the pass executed %d times, want 2", got)
	}
	if rep.Skips() != 0 {
		t.Fatalf("Skips() = %d, want 0 with incremental off", rep.Skips())
	}
}

func TestMutationPreventsSkip(t *testing.T) {
	ctx, rep := runSpec(t, "t-fix,t-mut,t-fix", true)
	if got, _ := ctx.Get("t-fix.runs").(int); got != 2 {
		t.Fatalf("marked pass executed %d times, want 2 (mutation in between)", got)
	}
	if rep.Skips() != 0 {
		t.Fatalf("Skips() = %d, want 0: the rewrite generation moved in between", rep.Skips())
	}
}

func TestSaturatedPassNotSkipped(t *testing.T) {
	ctx, _ := runSpec(t, "t-satfix,t-satfix", true)
	if got, _ := ctx.Get("t-satfix.runs").(int); got != 2 {
		t.Fatalf("saturated pass executed %d times, want 2 (saturation forbids skipping)", got)
	}
}

func TestUnmarkedPassNeverSkipped(t *testing.T) {
	_, rep := runSpec(t, "t-nop,t-nop", true)
	if rep.Skips() != 0 {
		t.Fatalf("unmarked pass skipped %d times; skipping is opt-in via SelfFixpointing", rep.Skips())
	}
}
