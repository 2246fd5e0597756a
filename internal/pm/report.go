package pm

import (
	"encoding/json"
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"thorin/internal/analysis"
)

// PassRun is the instrumentation record of one pass execution.
type PassRun struct {
	Name string `json:"pass"`
	// Path is the fix-group nesting the run happened under ("" at top
	// level, "fix" inside a group, "fix/fix" nested).
	Path string `json:"path,omitempty"`
	// Iter is the 1-based iteration of the innermost enclosing fix group,
	// 0 for top-level runs.
	Iter          int           `json:"iter,omitempty"`
	Time          time.Duration `json:"time_ns"`
	Rewrites      int           `json:"rewrites"`
	Changed       bool          `json:"changed"`
	ContsBefore   int           `json:"conts_before"`
	ContsAfter    int           `json:"conts_after"`
	PrimOpsBefore int           `json:"primops_before"`
	PrimOpsAfter  int           `json:"primops_after"`
	CacheHits     int           `json:"cache_hits,omitempty"`
	CacheMisses   int           `json:"cache_misses,omitempty"`
	// Parallelism is the number of workers the analysis phase of a
	// ScopeRewriter pass ran with (0 for ordinary passes), and Workers holds
	// one record per worker. The IR a pass produces is independent of this
	// number; only the timing varies.
	Parallelism int          `json:"parallelism,omitempty"`
	Workers     []WorkerStat `json:"workers,omitempty"`
	// Skipped marks a run the incremental runner elided: the pass is
	// self-fixpointing and nothing it reads changed since it last ran, so
	// executing it would provably have been a no-op (Rewrites 0, Changed
	// false, zero time).
	Skipped bool   `json:"skipped,omitempty"`
	Err     string `json:"error,omitempty"`
}

// Label renders the run's position in the pipeline, e.g. "cleanup" or
// "fix#2:mem2reg".
func (r PassRun) Label() string {
	if r.Path == "" {
		return r.Name
	}
	return fmt.Sprintf("%s#%d:%s", r.Path, r.Iter, r.Name)
}

// Report is the instrumentation of one full pipeline run.
type Report struct {
	Spec  string        `json:"spec"`
	Runs  []PassRun     `json:"runs"`
	Total time.Duration `json:"total_ns"`
	// Saturated is set when a fix group hit its iteration bound without
	// reaching a fixpoint.
	Saturated bool                `json:"saturated,omitempty"`
	Cache     analysis.CacheStats `json:"cache"`
}

// IterRuns returns the runs of the given fix iteration (Iter == iter) at
// any nesting depth.
func (r *Report) IterRuns(iter int) []PassRun {
	var out []PassRun
	for _, run := range r.Runs {
		if run.Path != "" && run.Iter == iter {
			out = append(out, run)
		}
	}
	return out
}

// IterChanged reports whether any run of the given fix iteration changed
// the IR. A false result for iteration 2 certifies that iteration 1 already
// reached the fixpoint.
func (r *Report) IterChanged(iter int) bool {
	for _, run := range r.IterRuns(iter) {
		if run.Changed {
			return true
		}
	}
	return false
}

// Rewrites sums the rewrites of all runs.
func (r *Report) Rewrites() int {
	n := 0
	for _, run := range r.Runs {
		n += run.Rewrites
	}
	return n
}

// Skips counts the runs the incremental runner elided. It is zero in
// non-incremental mode — the report-level measure of what incrementality
// saved.
func (r *Report) Skips() int {
	n := 0
	for _, run := range r.Runs {
		if run.Skipped {
			n++
		}
	}
	return n
}

// MemoHits returns 0: the runner memoizes no analysis plans. It stays only
// because perfbench reports it as pm.memo_hits; delete it once perfbench
// stops calling root-module internals (ROADMAP item 16).
func (r *Report) MemoHits() int { return 0 }

// WriteText renders the report as an aligned table.
func (r *Report) WriteText(w io.Writer) {
	fmt.Fprintf(w, "pass report: %s\n", r.Spec)
	tw := tabwriter.NewWriter(w, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "pass\ttime\trewrites\tconts\tprimops\tcache")
	for _, run := range r.Runs {
		status := ""
		if run.Skipped {
			status = "  (skipped)"
		}
		if run.Err != "" {
			status = "  ERROR: " + run.Err
		}
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d→%d\t%d→%d\t%dh/%dm%s\n",
			run.Label(), fmtDur(run.Time), run.Rewrites,
			run.ContsBefore, run.ContsAfter,
			run.PrimOpsBefore, run.PrimOpsAfter,
			run.CacheHits, run.CacheMisses, status)
	}
	fmt.Fprintf(tw, "total\t%s\t%d\t\t\t%dh/%dm\n",
		fmtDur(r.Total), r.Rewrites(), r.Cache.Hits, r.Cache.Misses)
	tw.Flush()
	if r.Saturated {
		fmt.Fprintln(w, "warning: a fix group hit its iteration bound before reaching a fixpoint")
	}
}

// WriteJSON renders the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// fmtDur trims a duration to µs resolution so tables stay readable.
func fmtDur(d time.Duration) string {
	return d.Round(time.Microsecond).String()
}

// PassTotals aggregates the report per pass name (summing fix iterations),
// preserving first-appearance order. Used by the benchmark tables.
func (r *Report) PassTotals() []PassTotal {
	index := map[string]int{}
	var out []PassTotal
	for _, run := range r.Runs {
		i, ok := index[run.Name]
		if !ok {
			i = len(out)
			index[run.Name] = i
			out = append(out, PassTotal{Name: run.Name})
		}
		out[i].Time += run.Time
		out[i].Rewrites += run.Rewrites
		out[i].Runs++
	}
	return out
}

// PassTotal is the per-pass aggregate of one report.
type PassTotal struct {
	Name     string        `json:"pass"`
	Runs     int           `json:"runs"`
	Time     time.Duration `json:"time_ns"`
	Rewrites int           `json:"rewrites"`
}
