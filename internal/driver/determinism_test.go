package driver_test

// Determinism regression test for the interning/use-list internals: the
// printed IR must be byte-identical across repeated compiles at every -jobs
// level. Repetition matters — a nondeterministic map iteration or racy
// use-list append can produce self-consistent but run-dependent gids that a
// single compile per jobs level would miss.

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"thorin/internal/analysis"
	"thorin/internal/backend"
	"thorin/internal/bench"
	"thorin/internal/driver"
	"thorin/internal/ir"
	"thorin/internal/transform"
)

// determinismCorpus returns every on-disk Impala program the repo ships
// (the examples and the crash-regression corpus), both variants of every
// benchmark-suite program, plus two generated programs large enough that
// one scope holds many blocks and promoted slots and cleanup sweeps many
// continuations per round. The suite matters for the incremental on/off
// check: compose/functional is the one program whose O2 fix group rewrites
// in its second iteration, so a pass the runner wrongly skips there changes
// the printed IR.
func determinismCorpus(t *testing.T) map[string]string {
	t.Helper()
	srcs := map[string]string{}
	for _, dir := range []string{"../../examples", "testdata/crashers"} {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatalf("reading corpus dir %s: %v", dir, err)
		}
		for _, e := range entries {
			if e.IsDir() || filepath.Ext(e.Name()) != ".imp" {
				continue
			}
			b, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			srcs[e.Name()] = string(b)
		}
	}
	if len(srcs) < 4 {
		t.Fatalf("corpus too small (%d programs) — directories moved?", len(srcs))
	}
	for i := range bench.Suite {
		p := &bench.Suite[i]
		srcs["bench/"+p.Name+"/functional"] = p.Functional
		srcs["bench/"+p.Name+"/imperative"] = p.Imperative
	}
	srcs["GenManyFns(8)"] = bench.GenManyFns(8)
	srcs["GenChain(40)"] = bench.GenChain(40)
	return srcs
}

func printedIR(t *testing.T, src, spec string, jobs int, disableIncremental bool) string {
	t.Helper()
	res, err := driver.CompileSpec(src, spec,
		analysis.ScheduleSmart, driver.Config{Jobs: jobs, DisableIncremental: disableIncremental})
	if err != nil {
		t.Fatalf("jobs=%d incremental=%v: %v", jobs, !disableIncremental, err)
	}
	var buf bytes.Buffer
	ir.Print(&buf, res.World)
	return buf.String()
}

func TestDeterministicIRAcrossJobsAndRuns(t *testing.T) {
	for name, src := range determinismCorpus(t) {
		t.Run(name, func(t *testing.T) {
			ref := printedIR(t, src, transform.O2, 1, false)
			if ref == "" {
				t.Fatal("empty printed IR")
			}
			for _, jobs := range []int{1, 4, 8} {
				for run := 0; run < 2; run++ {
					if got := printedIR(t, src, transform.O2, jobs, false); got != ref {
						t.Fatalf("jobs=%d run=%d: printed IR differs from first jobs=1 compile", jobs, run)
					}
				}
				// Incremental mode may only skip provably no-op work, never
				// reorder rewrites, so turning it off must not change a byte
				// at any jobs level.
				if got := printedIR(t, src, transform.O2, jobs, true); got != ref {
					t.Fatalf("jobs=%d: printed IR with -incremental=off differs from incremental compile", jobs)
				}
			}
		})
	}
}

// wasmArtifact compiles src for the wasm target and returns the encoded
// artifact.
func wasmArtifact(t *testing.T, src, spec string, jobs int) []byte {
	t.Helper()
	res, err := driver.CompileSpec(src, spec,
		analysis.ScheduleSmart, driver.Config{Jobs: jobs, Target: backend.Wasm})
	if err != nil {
		t.Fatalf("jobs=%d: %v", jobs, err)
	}
	data, err := driver.NewArtifact(res, spec, analysis.ScheduleSmart.String()).Encode()
	if err != nil {
		t.Fatalf("jobs=%d: encode: %v", jobs, err)
	}
	return data
}

// TestDeterministicWasmAcrossJobsAndRuns is the backend half of the IR
// determinism test: the wasm emitter keeps per-function maps (locals, the
// sink plan), and an emission order that depended on map iteration would
// change the module bytes without changing the printed IR.
func TestDeterministicWasmAcrossJobsAndRuns(t *testing.T) {
	for name, src := range determinismCorpus(t) {
		t.Run(name, func(t *testing.T) {
			ref := wasmArtifact(t, src, transform.O2, 1)
			for _, jobs := range []int{1, 4, 8} {
				for run := 0; run < 2; run++ {
					if got := wasmArtifact(t, src, transform.O2, jobs); !bytes.Equal(got, ref) {
						t.Fatalf("jobs=%d run=%d: wasm artifact differs from first jobs=1 compile", jobs, run)
					}
				}
			}
		})
	}
}
