package bench

import (
	"testing"

	"thorin/internal/analysis"
	"thorin/internal/impala"
	"thorin/internal/ir"
	"thorin/internal/pm"
	"thorin/internal/transform"
)

// perturb applies the smallest interesting change: a fresh self-looping
// dead continuation. It stamps no existing def (its only operand is
// itself), yet the next cleanup provably rewrites (sweeps it), so the
// re-round does real pass work in both modes.
func perturb(w *ir.World) {
	c := w.Continuation(w.FnType(), "bench.pert")
	c.Jump(c)
}

// fixpointWork is the pipeline work of one workload: NewScope executions
// and the executed, skipped and memo-answered pass runs of its reports.
type fixpointWork struct {
	ScopeBuilds                 int64
	Executed, Skipped, MemoHits int
}

// optimizeRounds runs a cold -O2 plus two re-rounds, each after a
// perturbation, over fresh worlds of srcs on one reused context per world
// (setting Incremental explicitly, since transform.RunPipeline always runs
// incrementally) and returns the work done. The
// re-rounds are where the modes diverge: after a local change the full
// mode's wholesale invalidation rebuilds every scope the later passes look
// at, while the stamp-validated cache rebuilds only what the change touched.
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
			work.Skipped += rep.Skips()
			work.MemoHits += rep.MemoHits()
			work.Executed += len(rep.Runs) - rep.Skips()
		}
	}
	work.ScopeBuilds = analysis.ScopeBuildCount() - before
	return work
}

// TestIncrementalWorkIsExact pins the work the change-journal rewrite core
// saves on the fixpoint workload, incremental against full re-running. The
// IR is byte-identical in both modes (the determinism tests pin that); the
// counts here are deterministic at any THORIN_JOBS. ScopeBuildCount is
// process-global, so this test must not run in parallel with others.
func TestIncrementalWorkIsExact(t *testing.T) {
	for _, tc := range []struct {
		name      string
		srcs      []string
		inc, full fixpointWork
	}{
		{"GenManyFns", []string{GenManyFns(8)},
			fixpointWork{ScopeBuilds: 18, Executed: 24, Skipped: 4, MemoHits: 1},
			fixpointWork{ScopeBuilds: 20, Executed: 28}},
		{"FuzzCorpus", fuzzCorpus(3),
			fixpointWork{ScopeBuilds: 20, Executed: 69, Skipped: 11, MemoHits: 4},
			fixpointWork{ScopeBuilds: 26, Executed: 80}},
	} {
		if got := optimizeRounds(t, tc.srcs, true); got != tc.inc {
			t.Errorf("%s incremental: %+v, want %+v", tc.name, got, tc.inc)
		}
		if got := optimizeRounds(t, tc.srcs, false); got != tc.full {
			t.Errorf("%s full: %+v, want %+v", tc.name, got, tc.full)
		}
	}
}
