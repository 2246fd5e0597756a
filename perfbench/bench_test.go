package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
	"time"
)

// smallRun runs one workload at the test sizes with a short window.
func smallRun(t *testing.T, workload string, seed int64, trace bool) *report {
	t.Helper()
	rep, err := run(config{
		workload:  workload,
		seed:      seed,
		window:    300 * time.Millisecond,
		trace:     trace,
		root:      "..",
		setupReps: 1,
		small:     true,
	})
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	return rep
}

// TestExactCountsRepeat runs every workload twice, traced, under two seeds:
// the exact counts must be identical and no op may fail. On the daemon the
// server's counters must reconcile with the clients' and nothing may be
// shed or retried.
func TestExactCountsRepeat(t *testing.T) {
	exact := []string{"artifact_kb", "vm_instrs_per_op", "wasm_fuel_per_op", "impala.tokens", "ir.nodes_final"}
	for _, w := range workloads {
		t.Run(w, func(t *testing.T) {
			a := smallRun(t, w, 1, true)
			b := smallRun(t, w, 2, true)
			for _, rep := range []*report{a, b} {
				if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d", rep.Correct, rep.Attempted, rep.Failed)
				}
			}
			for _, name := range exact {
				if a.values[name] != b.values[name] || a.values[name] == 0 {
					t.Errorf("%s: %v then %v", name, a.values[name], b.values[name])
				}
			}
			if w != "daemon" {
				return
			}
			for _, rep := range []*report{a, b} {
				if m := rep.detail["reconciliation_mismatches"].([]string); len(m) > 0 {
					t.Errorf("daemon counters do not reconcile: %v", m)
				}
				srv := rep.detail["server"].(map[string]any)
				if srv["server.sheds"].(int64) != 0 || srv["server.retries_observed"].(int64) != 0 {
					t.Errorf("sheds %v, retries %v", srv["server.sheds"], srv["server.retries_observed"])
				}
			}
		})
	}
}

// TestTracedPathMatchesCompileSpec checks that the traced layer-by-layer
// compile produces the same artifact bytes as driver.CompileSpec for every
// compile-small input on both targets.
func TestTracedPathMatchesCompileSpec(t *testing.T) {
	inputs, err := compileSmallInputs("..", false)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer(time.Now(), nil)
	for _, in := range inputs {
		for _, target := range targets {
			want, err := compileArtifact(nil, in.src, in.tokens, target, 1)
			if err != nil {
				t.Fatalf("%s/%s: %v", in.Name, target, err)
			}
			got, err := compileArtifact(tr, in.src, in.tokens, target, 1)
			if err != nil {
				t.Fatalf("%s/%s traced: %v", in.Name, target, err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s/%s: traced artifact differs from driver.CompileSpec's", in.Name, target)
			}
		}
	}
}

// TestMetricsMatchBenchmarkJSON keeps the metric tables in step with
// BENCHMARK.json, and checks that a run reports every listed metric.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i] {
			t.Errorf("workload %d: BENCHMARK.json has %s, the benchmark %s", i, w.Name, workloads[i])
		}
	}
	rep := smallRun(t, "compile-small", 1, false)
	if len(rep.Metrics) != len(endToEnd) {
		t.Errorf("untraced run reported %d metrics, want %d", len(rep.Metrics), len(endToEnd))
	}
}
