package pm

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"thorin/internal/ir"
)

// testPass is a configurable fake pass for driver tests.
type testPass struct {
	name string
	fn   func(ctx *Context) Result
}

func (p testPass) Name() string { return p.name }

func (p testPass) Run(ctx *Context) (Result, error) { return p.fn(ctx), nil }

func init() {
	// A pass that reports a change the first `budget` times it runs and is
	// a no-op afterwards — the minimal fixpoint workload.
	Register(testPass{"t-tick", func(ctx *Context) Result {
		n, _ := ctx.Get("t.budget").(int)
		if n <= 0 {
			return Result{}
		}
		ctx.Put("t.budget", n-1)
		return Result{Rewrites: 1}
	}})
	// An unconditional no-op.
	Register(testPass{"t-nop", func(ctx *Context) Result { return Result{} }})
	// A pass that leaves structurally invalid IR behind: it jumps a fresh
	// continuation to itself with the wrong arity.
	Register(testPass{"t-corrupt", func(ctx *Context) Result {
		w := ctx.World
		c := w.Continuation(w.FnType(w.PrimType(ir.PrimI64)), "bad")
		c.SetExtern(true)
		c.Jump(c) // arity mismatch: c expects one argument
		return Result{Changed: true}
	}})
}

func newCtx() *Context { return NewContext(ir.NewWorld()) }

func TestParseErrors(t *testing.T) {
	cases := []struct {
		spec string
		want string // substring of the expected error
	}{
		{"", "empty pipeline spec"},
		{"   ", "empty pipeline spec"},
		{"nosuchpass", `unknown pass "nosuchpass"`},
		{"t-nop,nosuchpass", `unknown pass "nosuchpass"`},
		{"fix(t-nop", `unbalanced "fix("`},
		{"fix(t-nop,fix(t-nop)", `unbalanced "fix("`},
		{"fix t-nop", `"fix" must be followed by "("`},
		{"fix()", `unexpected ")"`},
		{"t-nop,", "ends where a pass name is expected"},
		{",t-nop", `unexpected ","`},
		{"t-nop)", `unexpected ")" after end`},
		{"t-nop(t-nop)", `unexpected "("`},
		{"t-nop t-nop", `unexpected "t-nop" after end`},
		{"t-nop;t-nop", "bad character ';'"},
	}
	for _, tc := range cases {
		_, err := Parse(tc.spec)
		if err == nil {
			t.Errorf("Parse(%q): expected error, got none", tc.spec)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Parse(%q) = %v, want substring %q", tc.spec, err, tc.want)
		}
	}
}

func TestParseRoundTrip(t *testing.T) {
	for _, spec := range []string{
		"t-nop",
		"t-nop,t-tick",
		"fix(t-nop)",
		"t-nop, fix(t-tick ,t-nop) ,t-nop",
		"fix(t-nop,fix(t-tick))",
	} {
		p, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		if p.Spec != spec {
			t.Errorf("Spec = %q, want %q", p.Spec, spec)
		}
	}
}

func TestFixpointIteration(t *testing.T) {
	p, err := Parse("fix(t-tick,t-nop)")
	if err != nil {
		t.Fatal(err)
	}
	ctx := newCtx()
	ctx.Put("t.budget", 3)
	rep, err := p.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// Three changing iterations plus the confirming no-op one.
	if got := len(rep.Runs); got != 8 {
		t.Fatalf("expected 8 pass runs (4 iterations x 2 passes), got %d: %+v", got, rep.Runs)
	}
	for i, iterChanged := range []bool{true, true, true, false} {
		if got := rep.IterChanged(i + 1); got != iterChanged {
			t.Errorf("IterChanged(%d) = %v, want %v", i+1, got, iterChanged)
		}
	}
	if rep.Saturated {
		t.Error("converged group must not be flagged saturated")
	}
	if rep.Rewrites() != 3 {
		t.Errorf("total rewrites = %d, want 3", rep.Rewrites())
	}
	last := rep.Runs[len(rep.Runs)-1]
	if last.Path != "fix" || last.Iter != 4 || last.Label() != "fix#4:t-nop" {
		t.Errorf("unexpected last run %+v", last)
	}
}

func TestFixpointSaturation(t *testing.T) {
	p, err := Parse("fix(t-tick)")
	if err != nil {
		t.Fatal(err)
	}
	p.MaxFixIters = 4
	ctx := newCtx()
	ctx.Put("t.budget", 1<<30) // never converges
	rep, err := p.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Saturated {
		t.Error("non-converging group must be flagged saturated")
	}
	if got := len(rep.Runs); got != 4 {
		t.Errorf("expected the iteration bound to stop the group at 4 runs, got %d", got)
	}
}

func TestNestedFix(t *testing.T) {
	p, err := Parse("fix(fix(t-tick),t-nop)")
	if err != nil {
		t.Fatal(err)
	}
	ctx := newCtx()
	ctx.Put("t.budget", 2)
	rep, err := p.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// Inner group: iterations 1,2,3 (last one clean). Outer iteration 1
	// changed, so the outer group reruns: inner fires once more (clean),
	// then t-nop — and the outer group stops.
	var inner, nop int
	for _, r := range rep.Runs {
		switch r.Name {
		case "t-tick":
			if r.Path != "fix/fix" {
				t.Errorf("t-tick path = %q, want fix/fix", r.Path)
			}
			inner++
		case "t-nop":
			if r.Path != "fix" {
				t.Errorf("t-nop path = %q, want fix", r.Path)
			}
			nop++
		}
	}
	if inner != 4 || nop != 2 {
		t.Errorf("got %d inner and %d outer runs, want 4 and 2", inner, nop)
	}
}

func TestVerifyEachNamesOffendingPass(t *testing.T) {
	p, err := Parse("t-nop,t-corrupt,t-nop")
	if err != nil {
		t.Fatal(err)
	}
	ctx := newCtx()
	ctx.VerifyEach = true
	rep, err := p.Run(ctx)
	if err == nil {
		t.Fatal("expected verify-each to fail on corrupted IR")
	}
	if !strings.Contains(err.Error(), `pass "t-corrupt" left invalid IR`) {
		t.Errorf("error must name the offending pass: %v", err)
	}
	// The pipeline stops at the offending pass; the report records it.
	if got := len(rep.Runs); got != 2 {
		t.Fatalf("expected 2 recorded runs, got %d", got)
	}
	if rep.Runs[1].Err == "" {
		t.Error("failing run must record its error")
	}
}

func TestChangeDetectionByFingerprint(t *testing.T) {
	// t-corrupt reports Changed, but even without the flag the fingerprint
	// (new continuation allocated) must mark the run as changing.
	p, err := Parse("t-corrupt")
	if err != nil {
		t.Fatal(err)
	}
	ctx := newCtx()
	rep, err := p.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	r := rep.Runs[0]
	if !r.Changed || r.ContsAfter != r.ContsBefore+1 {
		t.Errorf("run must be marked changed with one more continuation: %+v", r)
	}
}

func TestReportJSON(t *testing.T) {
	p, err := Parse("fix(t-tick)")
	if err != nil {
		t.Fatal(err)
	}
	ctx := newCtx()
	ctx.Put("t.budget", 1)
	rep, err := p.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded Report
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("report JSON does not round-trip: %v", err)
	}
	if decoded.Spec != rep.Spec || len(decoded.Runs) != len(rep.Runs) {
		t.Errorf("decoded report mismatch: %+v vs %+v", decoded, rep)
	}
	var text bytes.Buffer
	rep.WriteText(&text)
	if !strings.Contains(text.String(), "fix#1:t-tick") {
		t.Errorf("text report must label fix iterations:\n%s", text.String())
	}
}

func TestPassTotalsAggregatesIterations(t *testing.T) {
	p, err := Parse("fix(t-tick,t-nop)")
	if err != nil {
		t.Fatal(err)
	}
	ctx := newCtx()
	ctx.Put("t.budget", 2)
	rep, err := p.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	totals := rep.PassTotals()
	if len(totals) != 2 || totals[0].Name != "t-tick" || totals[1].Name != "t-nop" {
		t.Fatalf("unexpected totals %+v", totals)
	}
	if totals[0].Runs != 3 || totals[0].Rewrites != 2 {
		t.Errorf("t-tick totals = %+v, want 3 runs / 2 rewrites", totals[0])
	}
}

// namedOnly is neither a Runner nor a ScopeRewriter.
type namedOnly struct{}

func (namedOnly) Name() string { return "t-named-only" }

// runningRewriter is both a Runner and a ScopeRewriter.
type runningRewriter struct{ *fakeRewriter }

func (runningRewriter) Name() string                 { return "t-both" }
func (runningRewriter) Run(*Context) (Result, error) { return Result{}, nil }

func TestRegisterPanics(t *testing.T) {
	for name, p := range map[string]Pass{
		"empty":     testPass{"", nil},
		"reserved":  testPass{"fix", nil},
		"duplicate": testPass{"t-nop", nil},
		"no runner": namedOnly{},
		"both":      runningRewriter{},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Register(%s) must panic", name)
				}
			}()
			Register(p)
		}()
	}
}
