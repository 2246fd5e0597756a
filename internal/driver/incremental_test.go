package driver_test

// End-to-end checks of the incremental rewrite machinery over the real
// pipeline: incremental compiles must skip provably no-op pass runs (that is
// the point of the journal) while producing byte-identical IR — the
// byte-identity half lives in determinism_test.go.

import (
	"testing"

	"thorin/internal/analysis"
	"thorin/internal/driver"
	"thorin/internal/transform"
)

func TestIncrementalCompileSkipsNoopRuns(t *testing.T) {
	spec := transform.O2
	totalSkips := 0
	for name, src := range determinismCorpus(t) {
		res, err := driver.CompileSpec(src, spec, analysis.ScheduleSmart, driver.Config{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, run := range res.Report.Runs {
			if run.Skipped && (run.Rewrites != 0 || run.Changed || run.Err != "") {
				t.Fatalf("%s: skipped run %s reports work: %+v", name, run.Label(), run)
			}
		}
		totalSkips += res.Report.Skips()

		off, err := driver.CompileSpec(src, spec, analysis.ScheduleSmart,
			driver.Config{DisableIncremental: true})
		if err != nil {
			t.Fatalf("%s (incremental off): %v", name, err)
		}
		if n := off.Report.Skips(); n != 0 {
			t.Fatalf("%s: %d skipped runs with incremental disabled", name, n)
		}
	}
	// At least one program in the corpus must exercise a multi-iteration
	// fixpoint whose confirming iteration gets skipped — otherwise the
	// incremental machinery is dead code on the shipped corpus.
	if totalSkips == 0 {
		t.Fatal("no pass run was ever skipped across the corpus")
	}
}
