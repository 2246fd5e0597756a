package bench

import (
	"testing"

	"thorin/internal/analysis"
	"thorin/internal/backend"
	"thorin/internal/driver"
	"thorin/internal/impala"
	"thorin/internal/ir"
	"thorin/internal/pm"
	"thorin/internal/transform"
)

// perturb applies the smallest interesting change: a fresh self-looping
// dead continuation. It uses no existing def (its only operand is itself),
// yet the next cleanup provably rewrites (sweeps it), so the re-round does
// real pass work in both modes.
func perturb(w *ir.World) {
	c := w.Continuation(w.FnType(), "bench.pert")
	c.Jump(c)
}

// fixpointWork is the pipeline work of one workload: NewScope executions
// and the executed and skipped pass runs of its reports.
type fixpointWork struct {
	ScopeBuilds       int64
	Executed, Skipped int
}

// add counts the pass runs of one report.
func (fw *fixpointWork) add(rep *pm.Report) {
	fw.Skipped += rep.Skips()
	fw.Executed += len(rep.Runs) - rep.Skips()
}

// optimizeRounds runs a cold -O2 plus two re-rounds, each after a
// perturbation, over fresh worlds of srcs on one reused context per world
// (setting Incremental explicitly, since transform.RunPipeline always runs
// incrementally) and returns the work done. The
// re-rounds are where the modes diverge: the incremental mode skips the
// self-fixpointing passes the perturbation left clean, and with them the
// scope builds those runs would do.
func optimizeRounds(t *testing.T, srcs []string, incremental bool) fixpointWork {
	t.Helper()
	pl, err := pm.Parse(transform.O2)
	if err != nil {
		t.Fatal(err)
	}
	worlds := make([]*ir.World, len(srcs))
	for i, src := range srcs {
		if worlds[i], err = impala.Compile(src); err != nil {
			t.Fatal(err)
		}
	}
	var work fixpointWork
	before := analysis.ScopeBuildCount()
	for _, w := range worlds {
		ctx := pm.NewContext(w)
		ctx.Incremental = incremental
		for r := 0; r < 3; r++ {
			if r > 0 {
				perturb(w)
			}
			rep, err := pl.Run(ctx)
			if err != nil {
				t.Fatal(err)
			}
			work.add(rep)
		}
	}
	work.ScopeBuilds = analysis.ScopeBuildCount() - before
	return work
}

// oneShot compiles every source once at -O2 for target through the driver,
// as every product path does (a fresh world per compile), and returns the
// work done. Jobs come from THORIN_JOBS, so `make race` checks the pins at
// four workers.
func oneShot(t *testing.T, srcs []string, target backend.Target) fixpointWork {
	t.Helper()
	var work fixpointWork
	before := analysis.ScopeBuildCount()
	for _, src := range srcs {
		res, err := driver.CompileSpec(src, transform.O2, analysis.ScheduleSmart,
			driver.Config{Target: target})
		if err != nil {
			t.Fatal(err)
		}
		work.add(res.Report)
	}
	work.ScopeBuilds = analysis.ScopeBuildCount() - before
	return work
}

// TestIncrementalWorkIsExact pins the work of the rewrite core: one-shot
// compiles of the suite and a fuzz corpus per target, and the re-round
// workload, incremental against full re-running. The IR is byte-identical
// in both modes (the determinism tests pin that); the counts here are
// deterministic at any THORIN_JOBS. The one-shot pin catches a pass that
// builds scopes it does not need (an eager ScopeOf in closure conversion's
// loop reads 714 scope builds instead of 184). ScopeBuildCount is
// process-global, so this test must not run in parallel with others.
func TestIncrementalWorkIsExact(t *testing.T) {
	for _, tc := range []struct {
		name      string
		srcs      []string
		inc, full fixpointWork
	}{
		{"GenManyFns", []string{GenManyFns(8)},
			fixpointWork{ScopeBuilds: 19, Executed: 24, Skipped: 4},
			fixpointWork{ScopeBuilds: 20, Executed: 28}},
		{"FuzzCorpus", fuzzCorpus(3),
			fixpointWork{ScopeBuilds: 24, Executed: 69, Skipped: 11},
			fixpointWork{ScopeBuilds: 26, Executed: 80}},
	} {
		if got := optimizeRounds(t, tc.srcs, true); got != tc.inc {
			t.Errorf("%s incremental: %+v, want %+v", tc.name, got, tc.inc)
		}
		if got := optimizeRounds(t, tc.srcs, false); got != tc.full {
			t.Errorf("%s full: %+v, want %+v", tc.name, got, tc.full)
		}
	}
	var suite []string
	for _, p := range Suite {
		suite = append(suite, p.Functional, p.Imperative)
	}
	suite = append(suite, fuzzCorpus(3)...)
	want := fixpointWork{ScopeBuilds: 184, Executed: 225, Skipped: 43}
	for _, target := range []backend.Target{backend.VM, backend.Wasm} {
		if got := oneShot(t, suite, target); got != want {
			t.Errorf("one-shot %s: %+v, want %+v", target, got, want)
		}
	}
}
