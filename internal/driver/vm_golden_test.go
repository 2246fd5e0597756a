package driver_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"thorin/internal/analysis"
	"thorin/internal/backend"
	"thorin/internal/bench"
	"thorin/internal/driver"
	"thorin/internal/link"
	"thorin/internal/transform"
)

// vmGoldenFile pins the SHA-256 of the VM program emitted for every example
// and crasher-corpus program at -O0, -O1, -O2 and mangle-only. The VM hashes
// were generated before codegen was split into the backend-neutral lower
// layer and the per-target emitters, so a passing run proves the refactored
// VM backend is byte-identical to the pre-refactor codegen on the whole
// corpus. The same file pins the encoded wasm module of every corpus
// program at -O0 and -O2 under "wasm/" keys, so a change to the shared
// lower layer (schedule, CFG structure) that moves either backend's bytes
// shows up as a golden diff. Regenerate (only when bytecode or wasm output
// is intentionally changed) with:
//
//	THORIN_UPDATE_GOLDEN=1 go test -run TestVMGoldenArtifacts ./internal/driver
const vmGoldenFile = "testdata/vm_golden.json"

// vmGoldenPrograms enumerates the corpus: examples, both variants of every
// benchmark-suite program, the linked module example in both link modes,
// and every minimized crasher. Each entry compiles for the given target and
// returns the payload bytes: the VM program's JSON or the wasm module.
func vmGoldenPrograms(t *testing.T) map[string]func(spec string, target backend.Target) ([]byte, error) {
	t.Helper()
	progs := map[string]func(spec string, target backend.Target) ([]byte, error){}

	source := func(name, src string) {
		progs[name] = func(spec string, target backend.Target) ([]byte, error) {
			return payload(driver.CompileSpec(src, spec, analysis.ScheduleSmart, driver.Config{Jobs: 1, Target: target}))
		}
	}
	single := func(path string) {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		source(filepath.Base(path), string(src))
	}
	single("../../examples/fib.imp")
	single("../../examples/mapreduce.imp")
	for i := range bench.Suite {
		p := &bench.Suite[i]
		source("bench/"+p.Name+"/functional", p.Functional)
		source("bench/"+p.Name+"/imperative", p.Imperative)
	}

	crashers, err := filepath.Glob("testdata/crashers/*.imp")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range crashers {
		single(path)
	}

	var modSrcs []string
	for _, name := range []string{"a.imp", "b.imp", "c.imp"} {
		src, err := os.ReadFile(filepath.Join("../../examples/modules", name))
		if err != nil {
			t.Fatal(err)
		}
		modSrcs = append(modSrcs, string(src))
	}
	for _, lm := range []link.Mode{link.Trampoline, link.Mangle} {
		lm := lm
		progs["modules/"+string(lm)] = func(spec string, target backend.Target) ([]byte, error) {
			return payload(driver.CompileModules(modSrcs, spec, analysis.ScheduleSmart, lm, driver.Config{Jobs: 1, Target: target}))
		}
	}
	return progs
}

// payload returns the bytes a compile produced for its target.
func payload(res *driver.Result, err error) ([]byte, error) {
	if err != nil {
		return nil, err
	}
	if res.Target == backend.Wasm {
		return res.Wasm, nil
	}
	return json.Marshal(res.Program)
}

// mangleOnlySpec isolates lambda mangling: CFF conversion plus slot
// promotion, nothing else.
const mangleOnlySpec = "cleanup,fix(cff,mem2reg),cleanup,closure"

func TestVMGoldenArtifacts(t *testing.T) {
	specs := map[string]string{
		"O0":          transform.O0,
		"O1":          transform.O1,
		"O2":          transform.O2,
		"mangle-only": mangleOnlySpec,
	}
	got := map[string]string{}
	for name, compile := range vmGoldenPrograms(t) {
		for level, spec := range specs {
			data, err := compile(spec, backend.VM)
			if err != nil {
				t.Fatalf("%s at %s: %v", name, level, err)
			}
			sum := sha256.Sum256(data)
			got[name+"@"+level] = hex.EncodeToString(sum[:])
		}
		for _, level := range []string{"O0", "O2"} {
			data, err := compile(specs[level], backend.Wasm)
			if err != nil {
				t.Fatalf("%s at %s for wasm: %v", name, level, err)
			}
			sum := sha256.Sum256(data)
			got["wasm/"+name+"@"+level] = hex.EncodeToString(sum[:])
		}
	}

	if os.Getenv("THORIN_UPDATE_GOLDEN") != "" {
		keys := make([]string, 0, len(got))
		for k := range got {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var sb strings.Builder
		sb.WriteString("{\n")
		for i, k := range keys {
			sep := ","
			if i == len(keys)-1 {
				sep = ""
			}
			fmt.Fprintf(&sb, "\t%q: %q%s\n", k, got[k], sep)
		}
		sb.WriteString("}\n")
		if err := os.WriteFile(vmGoldenFile, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d entries)", vmGoldenFile, len(got))
		return
	}

	data, err := os.ReadFile(vmGoldenFile)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with THORIN_UPDATE_GOLDEN=1): %v", err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden file has %d entries, corpus produced %d", len(want), len(got))
	}
	for k, w := range want {
		if g, ok := got[k]; !ok {
			t.Errorf("%s: in golden file but not produced (corpus changed?)", k)
		} else if g != w {
			t.Errorf("%s: payload hash %s, golden %s — bytecode or wasm output changed", k, g, w)
		}
	}
}
