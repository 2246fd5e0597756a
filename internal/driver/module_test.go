package driver_test

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"thorin/internal/analysis"
	"thorin/internal/driver"
	"thorin/internal/ir"
	"thorin/internal/link"
	"thorin/internal/pm"
	"thorin/internal/transform"
)

const (
	modSrcC = "module c;\nexport fn add(a: i64, b: i64) -> i64 { a + b }\n"
	modSrcB = "module b;\nimport fn add(i64, i64) -> i64 from c;\nexport add;\nexport fn twice(x: i64) -> i64 { add(x, x) }\n"
	modSrcA = "module a;\nimport fn twice(i64) -> i64 from b;\nimport fn add(i64, i64) -> i64 from b;\nfn main(n: i64) -> i64 { add(twice(n), 1) }\n"
)

func modSet() []string { return []string{modSrcA, modSrcB, modSrcC} }

func fullSpec() string { return transform.O2 }

// TestCompileModulesExec: the three-module program (a imports from b,
// which re-exports c's add) compiles separately, links, and runs correctly
// in both resolution modes: main(5) = twice(5) + 1 = 11.
func TestCompileModulesExec(t *testing.T) {
	for _, mode := range []link.Mode{link.Trampoline, link.Mangle} {
		res, err := driver.CompileModules(modSet(), fullSpec(), analysis.ScheduleSmart, mode, driver.Config{VerifyEach: true})
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		var out bytes.Buffer
		v, _, err := driver.Exec(res.Target, res.Program, res.Wasm, &out, 0, 5)
		if err != nil {
			t.Fatalf("%s: exec: %v", mode, err)
		}
		if v != 11 {
			t.Fatalf("%s: got %d, want 11", mode, v)
		}
	}
}

func modulesIR(t *testing.T, sources []string, mode link.Mode, jobs int, disableIncremental bool) string {
	t.Helper()
	res, err := driver.CompileModules(sources, fullSpec(), analysis.ScheduleSmart, mode,
		driver.Config{Jobs: jobs, DisableIncremental: disableIncremental})
	if err != nil {
		t.Fatalf("jobs=%d incremental=%v: %v", jobs, !disableIncremental, err)
	}
	var buf bytes.Buffer
	ir.Print(&buf, res.World)
	return buf.String()
}

// TestModulesOrderIndependent: the linker sorts modules by name, so every
// permutation of the source list produces byte-identical linked IR.
func TestModulesOrderIndependent(t *testing.T) {
	for _, mode := range []link.Mode{link.Trampoline, link.Mangle} {
		ref := modulesIR(t, []string{modSrcA, modSrcB, modSrcC}, mode, 1, false)
		for _, perm := range [][]string{
			{modSrcB, modSrcC, modSrcA},
			{modSrcC, modSrcA, modSrcB},
			{modSrcC, modSrcB, modSrcA},
		} {
			if got := modulesIR(t, perm, mode, 1, false); got != ref {
				t.Fatalf("%s: linked IR depends on module input order", mode)
			}
		}
	}
}

// TestModulesDeterministicAcrossJobsAndIncremental extends the determinism
// suite to separate compilation: the linked program's printed IR must be
// byte-identical across -jobs 1/4/8, with incremental rewriting on or off,
// and across repeated runs, in both link modes.
func TestModulesDeterministicAcrossJobsAndIncremental(t *testing.T) {
	for _, mode := range []link.Mode{link.Trampoline, link.Mangle} {
		ref := modulesIR(t, modSet(), mode, 1, false)
		if ref == "" {
			t.Fatalf("%s: empty printed IR", mode)
		}
		for _, jobs := range []int{1, 4, 8} {
			for run := 0; run < 2; run++ {
				if got := modulesIR(t, modSet(), mode, jobs, false); got != ref {
					t.Fatalf("%s: jobs=%d run=%d: linked IR differs", mode, jobs, run)
				}
			}
			if got := modulesIR(t, modSet(), mode, jobs, true); got != ref {
				t.Fatalf("%s: jobs=%d: linked IR with -incremental=off differs", mode, jobs)
			}
		}
	}
}

// TestModuleExampleFromDisk compiles the shipped examples/modules program
// (a imports b, b imports and re-exports c) in both modes and at several
// jobs levels: main(4) = sumsq(4) + 4 = 34, byte-identical IR throughout.
func TestModuleExampleFromDisk(t *testing.T) {
	var sources []string
	for _, f := range []string{"a.imp", "b.imp", "c.imp"} {
		b, err := os.ReadFile(filepath.Join("../../examples/modules", f))
		if err != nil {
			t.Fatalf("example missing: %v", err)
		}
		sources = append(sources, string(b))
	}
	for _, mode := range []link.Mode{link.Trampoline, link.Mangle} {
		ref := modulesIR(t, sources, mode, 1, false)
		for _, jobs := range []int{4, 8} {
			if got := modulesIR(t, sources, mode, jobs, false); got != ref {
				t.Fatalf("%s: jobs=%d: linked IR differs", mode, jobs)
			}
			if got := modulesIR(t, sources, mode, jobs, true); got != ref {
				t.Fatalf("%s: jobs=%d incremental=off: linked IR differs", mode, jobs)
			}
		}
		res, err := driver.CompileModules(sources, fullSpec(), analysis.ScheduleSmart, mode, driver.Config{})
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		v, _, err := driver.Exec(res.Target, res.Program, res.Wasm, nil, 0, 4)
		if err != nil || v != 34 {
			t.Fatalf("%s: main(4) = %d err=%v, want 34", mode, v, err)
		}
	}
}

// TestModuleArtifactRoundTrip: a module survives encode → decode → parse
// and the reconstructed set links and runs like the original. This is the
// compile server's warm path.
func TestModuleArtifactRoundTrip(t *testing.T) {
	spec := fullSpec()
	units, err := driver.ParseModules(modSet())
	if err != nil {
		t.Fatal(err)
	}
	var mods []*link.Module
	for _, u := range units {
		m, err := driver.CompileModuleUnit(u, spec, driver.Config{})
		if err != nil {
			t.Fatal(err)
		}
		data, err := driver.NewModuleArtifact(m, driver.ModuleSpec(spec)).Encode()
		if err != nil {
			t.Fatal(err)
		}
		art, err := driver.DecodeModuleArtifact(data)
		if err != nil {
			t.Fatal(err)
		}
		rt, err := art.Module()
		if err != nil {
			t.Fatal(err)
		}
		mods = append(mods, rt)
	}
	res, err := driver.LinkCompiled(mods, spec, link.Trampoline, analysis.ScheduleSmart, driver.Config{VerifyEach: true})
	if err != nil {
		t.Fatal(err)
	}
	v, _, err := driver.Exec(res.Target, res.Program, res.Wasm, nil, 0, 5)
	if err != nil || v != 11 {
		t.Fatalf("round-tripped modules: main(5) = %d err=%v, want 11", v, err)
	}
}

// TestModuleArtifactRejectsWholeProgram: the two artifact kinds must not
// decode as each other (the cache holds both under one key space).
func TestModuleArtifactRejectsWholeProgram(t *testing.T) {
	res, err := driver.CompileSpec("fn main(n: i64) -> i64 { n }", transform.O2, analysis.ScheduleSmart, driver.Config{})
	if err != nil {
		t.Fatal(err)
	}
	data, err := driver.NewArtifact(res, res.Spec, "smart").Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := driver.DecodeModuleArtifact(data); err == nil {
		t.Fatal("whole-program artifact decoded as a module artifact")
	}
}

// compileRequest resolves req and compiles it under ctx.
func compileRequest(ctx context.Context, req *driver.Request) (*driver.Result, error) {
	r, err := req.Resolve("")
	if err != nil {
		return nil, err
	}
	return driver.Compile(ctx, r)
}

// TestCompileRequestSources: the wire request compiles module sets, and
// malformed combinations fail with clear errors.
func TestCompileRequestSources(t *testing.T) {
	ctx := context.Background()
	res, err := compileRequest(ctx, &driver.Request{Sources: modSet()})
	if err != nil {
		t.Fatal(err)
	}
	v, _, err := driver.Exec(res.Target, res.Program, res.Wasm, nil, 0, 5)
	if err != nil || v != 11 {
		t.Fatalf("main(5) = %d err=%v, want 11", v, err)
	}
	if _, err := compileRequest(ctx, &driver.Request{Source: "fn main(n: i64) -> i64 { n }", Sources: modSet()}); err == nil || !strings.Contains(err.Error(), "both source and sources") {
		t.Fatalf("source+sources: %v", err)
	}
	if _, err := compileRequest(ctx, &driver.Request{Sources: modSet(), Link: "bogus"}); err == nil || !strings.Contains(err.Error(), "unknown mode") {
		t.Fatalf("bad link mode: %v", err)
	}
	if _, err := compileRequest(ctx, &driver.Request{}); err == nil || !strings.Contains(err.Error(), "no source") {
		t.Fatalf("empty request: %v", err)
	}
}

// TestCompileModulesCanceled: module compiles observe Config.Ctx like
// single-source ones — a canceled context stops the first module pipeline
// at its first pass boundary instead of compiling and linking the set.
func TestCompileModulesCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := driver.CompileModules(modSet(), fullSpec(), analysis.ScheduleSmart, link.Trampoline, driver.Config{Ctx: ctx})
	if !errors.Is(err, pm.ErrCanceled) {
		t.Fatalf("CompileModules under a canceled context: err = %v, want pm.ErrCanceled", err)
	}
	if _, err := compileRequest(ctx, &driver.Request{Sources: modSet()}); !errors.Is(err, pm.ErrCanceled) {
		t.Fatalf("module request under a canceled context: err = %v, want pm.ErrCanceled", err)
	}
}

// TestIncompatibleImportSurfacesEarly: the type error comes from import
// resolution before any module is compiled, and names the chain.
func TestIncompatibleImportSurfacesEarly(t *testing.T) {
	srcs := []string{
		"module a;\nimport fn add(i64, i64) -> i64 from b;\nfn main(n: i64) -> i64 { add(n, n) }\n",
		"module b;\nimport fn add(f64, f64) -> f64 from c;\nexport add;\n",
		"module c;\nexport fn add(x: f64, y: f64) -> f64 { x + y }\n",
	}
	_, err := driver.CompileModules(srcs, fullSpec(), analysis.ScheduleSmart, link.Trampoline, driver.Config{})
	if err == nil || !strings.Contains(err.Error(), "incompatible import type") {
		t.Fatalf("got %v, want incompatible import type", err)
	}
	if !strings.Contains(err.Error(), "via re-export chain b -> c") {
		t.Fatalf("error does not name the chain: %v", err)
	}
}
