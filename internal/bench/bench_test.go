package bench

import (
	"strings"
	"testing"
)

// smallN gives reduced problem sizes so the correctness sweep stays fast.
var smallN = map[string]int64{
	"fib": 15, "mapreduce": 500, "filter": 500, "compose": 500,
	"mandelbrot": 10, "nbody": 50, "spectralnorm": 10, "qsort": 300,
	"matmul": 8, "nqueens": 6,
}

// TestSuiteAgreement runs every benchmark variant through every pipeline
// and requires identical checksums — the harness's self-validation.
func TestSuiteAgreement(t *testing.T) {
	for i := range Suite {
		p := &Suite[i]
		t.Run(p.Name, func(t *testing.T) {
			n := smallN[p.Name]
			if n == 0 {
				t.Fatalf("no small size for %s", p.Name)
			}
			sum, err := Verify(p, n)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%s(%d) = %d", p.Name, n, sum)
		})
	}
}

// TestManglingRemovesIndirectCalls checks the Table 2 claim per benchmark:
// after lambda mangling the functional variants execute no indirect calls,
// while the unoptimized lowering pays per element. That includes compose,
// whose function-returning function mangling specializes away. fib is not
// higher-order at all, so neither arm performs indirect calls.
func TestManglingRemovesIndirectCalls(t *testing.T) {
	for i := range Suite {
		p := &Suite[i]
		t.Run(p.Name, func(t *testing.T) {
			if p.Name == "fib" {
				t.Skip("fib is first-order; no closures in either arm")
			}
			n := smallN[p.Name]
			opt, err := Run(p.Functional, ThorinOpt, n)
			if err != nil {
				t.Fatal(err)
			}
			o0, err := Run(p.Functional, ThorinO0, n)
			if err != nil {
				t.Fatal(err)
			}
			if opt.Counters.IndirectCalls != 0 {
				t.Errorf("O2 indirect calls = %d, want 0", opt.Counters.IndirectCalls)
			}
			if o0.Counters.IndirectCalls == 0 {
				t.Errorf("O0 must perform indirect calls for %s", p.Name)
			}
			if opt.Counters.Instructions >= o0.Counters.Instructions {
				t.Errorf("O2 must execute fewer instructions: %d vs %d",
					opt.Counters.Instructions, o0.Counters.Instructions)
			}
		})
	}
}

// TestFunctionalMatchesImperative checks the headline claim (Figure
// "runtime"): with full optimization the functional variant is within a
// modest factor of the imperative one compiled through the same pipeline.
func TestFunctionalMatchesImperative(t *testing.T) {
	for i := range Suite {
		p := &Suite[i]
		t.Run(p.Name, func(t *testing.T) {
			n := smallN[p.Name]
			fun, err := Run(p.Functional, ThorinOpt, n)
			if err != nil {
				t.Fatal(err)
			}
			imp, err := Run(p.Imperative, ThorinOpt, n)
			if err != nil {
				t.Fatal(err)
			}
			ratio := float64(fun.Counters.Instructions) / float64(imp.Counters.Instructions)
			// fib's variants differ algorithmically (exponential recursion
			// vs linear loop); skip the ratio check there.
			if p.Name == "fib" {
				t.Skip("variants are algorithmically different")
			}
			if ratio > 2.0 {
				t.Errorf("functional/imperative instruction ratio %.2f > 2.0", ratio)
			}
			t.Logf("ratio %.3f (func %d, imp %d)", ratio,
				fun.Counters.Instructions, imp.Counters.Instructions)
		})
	}
}

func TestGenChain(t *testing.T) {
	src := GenChain(5)
	if !strings.Contains(src, "h4") || strings.Contains(src, "h5") {
		t.Fatalf("bad chain:\n%s", src)
	}
	r, err := Run(src, ThorinOpt, 10)
	if err != nil {
		t.Fatal(err)
	}
	// h4..h1 each add 1; h0 applies work: 10*2+1 + 4 = 25.
	if r.Checksum != 25 {
		t.Errorf("chain checksum = %d, want 25", r.Checksum)
	}
	b, err := Run(src, Baseline, 10)
	if err != nil {
		t.Fatal(err)
	}
	if b.Checksum != 25 {
		t.Errorf("baseline chain checksum = %d, want 25", b.Checksum)
	}
}

func TestLinesOfCode(t *testing.T) {
	if LinesOfCode("a\n\n b\n") != 2 {
		t.Fatal("LoC counting wrong")
	}
}
