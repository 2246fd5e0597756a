package bench

import (
	"testing"

	"thorin/internal/analysis"
	"thorin/internal/backend"
	"thorin/internal/driver"
	"thorin/internal/fuzzgen"
	"thorin/internal/impala"
	"thorin/internal/transform"
)

// The compile-throughput benchmarks guard the IR core's allocation
// behavior: construction (hash-consing), optimization (use-edge rewriting),
// scope computation (use-edge traversal) and whole compiles of the suite.
// `make bench` runs them once as a smoke test and `make bench-diff`
// A/B-times the two Optimize benchmarks and CompileSuite against a base
// revision; run them directly with
//
//	go test -short -bench='Construct|Optimize|Scope|CompileSuite' -benchmem ./internal/bench
//
// (-short selects the reduced workloads bench-diff times).

func BenchmarkConstruct(b *testing.B)     { benchConstruct(b, []string{GenManyFns(sized(24, 8))}) }
func BenchmarkConstructFuzz(b *testing.B) { benchConstruct(b, fuzzCorpus(sized(6, 3))) }
func BenchmarkOptimize(b *testing.B)      { benchOptimize(b, []string{GenManyFns(sized(24, 8))}) }
func BenchmarkOptimizeFuzz(b *testing.B)  { benchOptimize(b, fuzzCorpus(sized(6, 3))) }
func BenchmarkScope(b *testing.B)         { benchScope(b, GenManyFns(sized(24, 8))) }

// BenchmarkCompileSuite compiles both variants of every suite program at
// -O2 for both targets with one analysis worker: frontend, passes, scope
// walks and both backends on small programs, the per-compile fixed costs
// of perfbench's compile-small workload.
func BenchmarkCompileSuite(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, p := range Suite {
			for _, src := range []string{p.Functional, p.Imperative} {
				for _, target := range []backend.Target{backend.VM, backend.Wasm} {
					if _, err := driver.CompileSpec(src, transform.O2, analysis.ScheduleSmart,
						driver.Config{Jobs: 1, Target: target}); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
	}
}

// sized returns the workload size: full, or short under -short (the CI
// smoke configuration).
func sized(full, short int) int {
	if testing.Short() {
		return short
	}
	return full
}

// fuzzCorpus returns a deterministic slice of generated programs — the same
// generator the differential fuzzer uses, so throughput is measured on the
// shapes the compiler actually gets hammered with.
func fuzzCorpus(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fuzzgen.Program(int64(i + 1))
	}
	return out
}

// benchConstruct measures frontend emission into a fresh world: the
// hash-consing hot path (every primop and literal goes through the
// interning tables).
func benchConstruct(b *testing.B, srcs []string) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, src := range srcs {
			if _, err := impala.Compile(src); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// benchOptimize measures one cold -O2 pipeline over a pre-built world;
// frontend time is excluded via the timer. This is the use-edge hot path:
// every pass recomputes scopes and rewrites through the cons tables.
func benchOptimize(b *testing.B, srcs []string) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, src := range srcs {
			b.StopTimer()
			w, err := impala.Compile(src)
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if _, _, err := transform.RunPipeline(w, transform.O2); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// benchScope measures scope computation alone — the transitive use-edge
// closure of §4, uncached, over every top-level continuation of an
// optimized world.
func benchScope(b *testing.B, src string) {
	w, err := impala.Compile(src)
	if err != nil {
		b.Fatal(err)
	}
	if _, _, err := transform.RunPipeline(w, transform.O2); err != nil {
		b.Fatal(err)
	}
	conts := w.Continuations()
	b.ReportAllocs()
	b.ResetTimer()
	total := 0
	for i := 0; i < b.N; i++ {
		for _, c := range conts {
			if c.IsIntrinsic() || !c.HasBody() {
				continue
			}
			s := analysis.NewScope(c)
			total += len(s.Conts)
		}
	}
	if total == 0 {
		b.Fatal("scope benchmark traversed nothing")
	}
}
