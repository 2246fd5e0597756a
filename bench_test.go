package thorin

// Wall-clock benchmarks of the compile-time experiments (Tables 4 and 5;
// see DESIGN.md for the experiment index). Run with
//
//	go test -bench=. -benchmem
//
// The deterministic tables (instruction, closure, φ and node counts) are
// printed by cmd/thorin-bench and pinned by TestPaperTables in
// internal/bench; only these timings vary across machines.

import (
	"fmt"
	"testing"

	"thorin/internal/analysis"
	"thorin/internal/bench"
	"thorin/internal/driver"
	"thorin/internal/transform"
)

// BenchmarkTable4Compile measures whole-pipeline compile time over synthetic
// higher-order chains (Table 4).
func BenchmarkTable4Compile(b *testing.B) {
	for _, depth := range []int{25, 50, 100, 200} {
		src := bench.GenChain(depth)
		b.Run(fmt.Sprintf("thorin/depth%d", depth), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := driver.CompileSpec(src, transform.O2, analysis.ScheduleSmart, driver.Config{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("ssa/depth%d", depth), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := driver.CompileSSA(src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPassTimings measures the full -O2 pipeline per benchmark and
// reports a per-pass wall-time breakdown from the pass manager's
// instrumentation (Table 5). Fix-group iterations are aggregated per pass;
// the runs metric shows how many times each pass actually fired.
func BenchmarkPassTimings(b *testing.B) {
	for i := range bench.Suite {
		p := &bench.Suite[i]
		b.Run(p.Name, func(b *testing.B) {
			var res *driver.Result
			var err error
			for i := 0; i < b.N; i++ {
				res, err = driver.CompileSpec(p.Functional, transform.O2, analysis.ScheduleSmart, driver.Config{})
				if err != nil {
					b.Fatal(err)
				}
			}
			for _, t := range res.Report.PassTotals() {
				b.ReportMetric(float64(t.Time.Microseconds()), t.Name+"-µs/op")
				b.ReportMetric(float64(t.Runs), t.Name+"-runs")
			}
		})
	}
}
