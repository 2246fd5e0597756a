// Command thorin-bench regenerates the evaluation tables and figures of the
// reproduction (see DESIGN.md for the experiment index and EXPERIMENTS.md
// for recorded results).
//
// Usage:
//
//	thorin-bench -all              # everything
//	thorin-bench -table 1          # IR statistics
//	thorin-bench -table 2          # closure elimination
//	thorin-bench -table 3          # φ vs mem2reg params
//	thorin-bench -table 4          # compile-time scaling
//	thorin-bench -table 5          # per-pass compile-time breakdown
//	thorin-bench -table 6          # compile time vs -jobs workers
//	thorin-bench -figure runtime   # the headline runtime comparison
//	thorin-bench -figure sweep     # overhead vs input size
//	thorin-bench -ablation all     # consing / schedule / mem2reg ablations
//
// Every table except 4, 5 and 6 (wall clock) is deterministic;
// TestPaperTables in internal/bench pins those and checks that
// EXPERIMENTS.md shows each verbatim.
package main

import (
	"flag"
	"fmt"
	"os"

	"thorin/internal/bench"
)

func main() {
	var (
		table    = flag.Int("table", 0, "print table N (1-6)")
		figure   = flag.String("figure", "", "print figure: runtime | sweep")
		ablation = flag.String("ablation", "", "print ablation: consing | schedule | mem2reg | all")
		all      = flag.Bool("all", false, "print every table, figure and ablation")
	)
	flag.Parse()

	out := os.Stdout
	ran := false
	check := func(err error) {
		if err != nil {
			fmt.Fprintln(os.Stderr, "thorin-bench:", err)
			os.Exit(1)
		}
		fmt.Fprintln(out)
		ran = true
	}

	if *all || *table == 1 {
		check(bench.Table1(out))
	}
	if *all || *table == 2 {
		check(bench.Table2(out))
	}
	if *all || *figure == "runtime" {
		check(bench.FigureRuntime(out))
	}
	if *all || *figure == "sweep" {
		check(bench.FigureSweep(out))
	}
	if *all || *table == 3 {
		check(bench.Table3(out))
	}
	if *all || *table == 4 {
		check(bench.Table4(out))
	}
	if *all || *table == 5 {
		check(bench.TablePasses(out))
	}
	if *all || *table == 6 {
		check(bench.TableJobs(out))
	}
	if *all || *ablation == "consing" || *ablation == "all" {
		check(bench.AblationConsing(out))
	}
	if *all || *ablation == "schedule" || *ablation == "all" {
		check(bench.AblationSchedule(out))
	}
	if *all || *ablation == "mem2reg" || *ablation == "all" {
		check(bench.AblationMem2Reg(out))
	}
	if !ran {
		flag.Usage()
		os.Exit(2)
	}
}
