package bench

// Incremental-vs-full measurement for the change-journal rewrite core
// (BENCH_pr5.json): the same fixpoint workload — a cold optimize plus
// re-optimization rounds after small localized changes — is run once with
// journal-driven skipping enabled and once with it disabled. The IR
// produced is byte-identical (the determinism tests pin that); what
// differs — and what this file measures — is the work: wall time per
// workload, NewScope executions, and executed-vs-skipped pass runs.

import (
	"encoding/json"
	"fmt"
	"io"
	"testing"

	"thorin/internal/analysis"
	"thorin/internal/impala"
	"thorin/internal/ir"
	"thorin/internal/pm"
	"thorin/internal/transform"
)

// incRounds is the number of optimize rounds per program: one cold round
// plus re-optimization rounds, each after a small localized change. The
// re-rounds are where the two modes diverge — a cold optimize stales nearly
// every scope either way, but after a local perturbation the full mode's
// wholesale invalidation rebuilds every scope the later passes look at
// while the stamp-validated cache rebuilds only what the change touched.
const incRounds = 3

// perturb applies the smallest interesting change: a fresh self-looping
// dead continuation. It stamps no existing def (its only operand is
// itself), yet the next cleanup provably rewrites (sweeps it), so the
// re-round does real pass work in both modes.
func perturb(w *ir.World) {
	c := w.Continuation(w.FnType(), "bench.pert")
	c.Jump(c)
}

// optimizeRounds runs the -O2 pipeline incRounds times over w on one
// reused context (explicitly controlling incremental re-running;
// transform.RunPipeline would inherit the THORIN_INCREMENTAL environment
// default instead), perturbing the world before each re-round.
func optimizeRounds(w *ir.World, incremental bool) ([]*pm.Report, error) {
	pl, err := pm.Parse(transform.O2)
	if err != nil {
		return nil, err
	}
	ctx := pm.NewContext(w)
	ctx.Incremental = incremental
	reps := make([]*pm.Report, 0, incRounds)
	for r := 0; r < incRounds; r++ {
		if r > 0 {
			perturb(w)
		}
		rep, err := pl.Run(ctx)
		if err != nil {
			return reps, err
		}
		reps = append(reps, rep)
	}
	return reps, nil
}

// IncrementalStat compares one workload across the two modes. PassRuns
// counts *executed* runs (skips excluded), so PassRunsFull - PassRunsInc is
// not necessarily SkippedRuns: a skipped confirming run also ends its fix
// group one iteration earlier.
type IncrementalStat struct {
	Name                string  `json:"name"`
	NsPerOpInc          float64 `json:"ns_per_op_incremental"`
	NsPerOpFull         float64 `json:"ns_per_op_full"`
	SpeedupPct          float64 `json:"speedup_pct"`
	ScopeBuildsInc      int64   `json:"scope_builds_incremental"`
	ScopeBuildsFull     int64   `json:"scope_builds_full"`
	ScopeBuildsSavedPct float64 `json:"scope_builds_saved_pct"`
	PassRunsInc         int     `json:"pass_runs_incremental"`
	PassRunsFull        int     `json:"pass_runs_full"`
	SkippedRuns         int     `json:"skipped_runs"`
	MemoHits            int     `json:"memo_hits"`
}

// IncrementalReport is the document shape of BENCH_pr5.json.
type IncrementalReport struct {
	Note  string            `json:"note"`
	Fast  bool              `json:"fast"`
	Cases []IncrementalStat `json:"cases"`
}

// incrementalWorkloads mirrors the Optimize workloads of ThroughputCases:
// one synthetic many-functions program and the deterministic fuzz corpus
// (the fixpoint-heavy shapes the differential fuzzer hammers the optimizer
// with).
func incrementalWorkloads(fast bool) []struct {
	name string
	srcs []string
} {
	fns, seeds := 24, 6
	if fast {
		fns, seeds = 8, 3
	}
	return []struct {
		name string
		srcs []string
	}{
		{"Optimize/GenManyFns", []string{GenManyFns(fns)}},
		{"Optimize/FuzzCorpus", fuzzCorpus(seeds)},
	}
}

// measureMode runs one timed benchmark plus one instrumented sweep of the
// workload in the given mode, returning ns/op, the NewScope executions of
// the sweep, and the executed/skipped/memo totals across its reports.
func measureMode(srcs []string, incremental bool) (nsPerOp float64, scopeBuilds int64, executed, skipped, memoHits int, err error) {
	worlds := func() ([]*ir.World, error) {
		out := make([]*ir.World, len(srcs))
		for i, src := range srcs {
			w, cerr := impala.Compile(src)
			if cerr != nil {
				return nil, cerr
			}
			out[i] = w
		}
		return out, nil
	}

	// Instrumented sweep (untimed): scope-build and pass-run accounting.
	ws, err := worlds()
	if err != nil {
		return 0, 0, 0, 0, 0, err
	}
	before := analysis.ScopeBuildCount()
	for _, w := range ws {
		reps, oerr := optimizeRounds(w, incremental)
		if oerr != nil {
			return 0, 0, 0, 0, 0, oerr
		}
		for _, rep := range reps {
			skipped += rep.Skips()
			memoHits += rep.MemoHits()
			executed += len(rep.Runs) - rep.Skips()
		}
	}
	scopeBuilds = analysis.ScopeBuildCount() - before

	// Timed run: frontend excluded via the benchmark timer.
	var berr error
	r := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			ws, werr := worlds()
			if werr != nil {
				berr = werr
				b.FailNow()
			}
			b.StartTimer()
			for _, w := range ws {
				if _, oerr := optimizeRounds(w, incremental); oerr != nil {
					berr = oerr
					b.FailNow()
				}
			}
		}
	})
	if berr != nil {
		return 0, 0, 0, 0, 0, berr
	}
	nsPerOp = float64(r.T.Nanoseconds()) / float64(r.N)
	return nsPerOp, scopeBuilds, executed, skipped, memoHits, nil
}

// MeasureIncremental produces the incremental-vs-full comparison for every
// workload.
func MeasureIncremental(fast bool) (IncrementalReport, error) {
	rep := IncrementalReport{
		Note: "incremental (journal-driven skipping + stamp-validated scopes + plan memos) vs full re-running on a fixpoint workload: 1 cold optimize + 2 re-rounds after a small localized change; IR is byte-identical in both modes",
		Fast: fast,
	}
	for _, wl := range incrementalWorkloads(fast) {
		nsInc, scopesInc, runsInc, skips, memos, err := measureMode(wl.srcs, true)
		if err != nil {
			return rep, fmt.Errorf("bench: %s (incremental): %w", wl.name, err)
		}
		nsFull, scopesFull, runsFull, _, _, err := measureMode(wl.srcs, false)
		if err != nil {
			return rep, fmt.Errorf("bench: %s (full): %w", wl.name, err)
		}
		st := IncrementalStat{
			Name:            wl.name,
			NsPerOpInc:      nsInc,
			NsPerOpFull:     nsFull,
			ScopeBuildsInc:  scopesInc,
			ScopeBuildsFull: scopesFull,
			PassRunsInc:     runsInc,
			PassRunsFull:    runsFull,
			SkippedRuns:     skips,
			MemoHits:        memos,
		}
		if nsFull > 0 {
			st.SpeedupPct = (nsFull - nsInc) / nsFull * 100
		}
		if scopesFull > 0 {
			st.ScopeBuildsSavedPct = float64(scopesFull-scopesInc) / float64(scopesFull) * 100
		}
		rep.Cases = append(rep.Cases, st)
	}
	return rep, nil
}

// WriteIncrementalJSON writes rep as indented JSON.
func WriteIncrementalJSON(w io.Writer, rep IncrementalReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// ReadIncrementalReport parses a previously written BENCH_pr5.json.
func ReadIncrementalReport(r io.Reader) (IncrementalReport, error) {
	var rep IncrementalReport
	if err := json.NewDecoder(r).Decode(&rep); err != nil {
		return rep, fmt.Errorf("bench: bad incremental report: %w", err)
	}
	return rep, nil
}

// DiffIncremental compares a fresh measurement against a committed report:
// any workload whose incremental Optimize ns/op regressed by more than
// tolerancePct fails. Workloads present on only one side are ignored (the
// suite may grow), as are reports measured at a different problem scale.
func DiffIncremental(old, cur IncrementalReport, tolerancePct float64) error {
	if old.Fast != cur.Fast {
		return fmt.Errorf("bench: reports not comparable: baseline fast=%v, current fast=%v", old.Fast, cur.Fast)
	}
	baseline := map[string]IncrementalStat{}
	for _, c := range old.Cases {
		baseline[c.Name] = c
	}
	var failures []string
	for _, c := range cur.Cases {
		b, ok := baseline[c.Name]
		if !ok || b.NsPerOpInc <= 0 {
			continue
		}
		pct := (c.NsPerOpInc - b.NsPerOpInc) / b.NsPerOpInc * 100
		if pct > tolerancePct {
			failures = append(failures,
				fmt.Sprintf("%s: %.0f ns/op vs %.0f baseline (%+.1f%% > %.0f%%)",
					c.Name, c.NsPerOpInc, b.NsPerOpInc, pct, tolerancePct))
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("bench: optimize regression:\n  %s", joinLines(failures))
	}
	return nil
}

func joinLines(ss []string) string {
	out := ""
	for i, s := range ss {
		if i > 0 {
			out += "\n  "
		}
		out += s
	}
	return out
}
