// Package thorin is a reproduction of "A graph-based higher-order
// intermediate representation" (CGO 2015): the Thorin IR, its analyses and
// transformations (lambda mangling, conversion to control-flow form, slot
// promotion, partial evaluation, closure conversion), an Impala-like
// frontend, a classical SSA baseline compiler, and a bytecode VM substrate
// for the evaluation.
//
// See README.md for an overview, DESIGN.md for the system inventory and
// experiment index, and EXPERIMENTS.md for recorded results.
// cmd/thorin-bench prints every table and figure, TestPaperTables in
// internal/bench checks the deterministic ones against EXPERIMENTS.md, and
// the benchmarks in bench_test.go time the compile-time experiments.
package thorin
