package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"testing"

	"thorin/internal/analysis"
	"thorin/internal/fuzzgen"
	"thorin/internal/impala"
	"thorin/internal/transform"
)

// Throughput is one compile-throughput measurement: how fast (and how
// allocation-hungry) one stage of the compiler is on a fixed workload.
// These are the numbers the IR-core optimizations are held against; the
// committed trajectory lives in BENCH_pr4.json.
type Throughput struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// ThroughputCase names one benchmark body runnable both as a go-test
// benchmark (BenchmarkConstruct etc.) and programmatically through
// testing.Benchmark (thorin-bench -alloc).
type ThroughputCase struct {
	Name string
	Run  func(b *testing.B)
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

// ThroughputCases returns the compile-throughput benchmark suite. fast
// selects reduced workload sizes (the CI smoke configuration).
func ThroughputCases(fast bool) []ThroughputCase {
	fns, seeds := 24, 6
	if fast {
		fns, seeds = 8, 3
	}
	many := GenManyFns(fns)
	corpus := fuzzCorpus(seeds)
	return []ThroughputCase{
		{"Construct/GenManyFns", benchConstruct([]string{many})},
		{"Construct/FuzzCorpus", benchConstruct(corpus)},
		{"Optimize/GenManyFns", benchOptimize([]string{many})},
		{"Optimize/FuzzCorpus", benchOptimize(corpus)},
		{"Scope/GenManyFns", benchScope(many)},
	}
}

// benchConstruct measures frontend emission into a fresh world: the
// hash-consing hot path (every primop and literal goes through the
// interning tables).
func benchConstruct(srcs []string) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, src := range srcs {
				if _, err := impala.Compile(src); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// benchOptimize measures the full canonical pipeline over a pre-built
// world; frontend time is excluded via the timer. This is the use-edge hot
// path: every pass recomputes scopes and rewrites through the cons tables.
func benchOptimize(srcs []string) func(b *testing.B) {
	return func(b *testing.B) {
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
}

// benchScope measures scope computation alone — the transitive use-edge
// closure of §4, uncached, over every top-level continuation of an
// optimized world.
func benchScope(src string) func(b *testing.B) {
	return func(b *testing.B) {
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
}

// MeasureThroughput runs every throughput case through testing.Benchmark
// and returns the results.
func MeasureThroughput(fast bool) []Throughput {
	var out []Throughput
	for _, c := range ThroughputCases(fast) {
		r := testing.Benchmark(c.Run)
		out = append(out, Throughput{
			Name:        c.Name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		})
	}
	return out
}

// ThroughputReport is the document shape of BENCH_pr4.json: the numbers
// recorded before the allocation-lean IR core landed (baseline) and the
// numbers of the current tree.
type ThroughputReport struct {
	Note     string       `json:"note"`
	Fast     bool         `json:"fast"`
	Baseline []Throughput `json:"baseline,omitempty"`
	Current  []Throughput `json:"current"`
}

// WriteThroughputJSON writes rep as indented JSON.
func WriteThroughputJSON(w io.Writer, rep ThroughputReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// ReadThroughputReport parses a previously written report (used to carry
// the baseline forward when regenerating BENCH_pr4.json).
func ReadThroughputReport(r io.Reader) (ThroughputReport, error) {
	var rep ThroughputReport
	if err := json.NewDecoder(r).Decode(&rep); err != nil {
		return rep, fmt.Errorf("bench: bad throughput report: %w", err)
	}
	return rep, nil
}
