package server

import (
	"bytes"
	"strings"
	"testing"

	"thorin/internal/driver"
)

const (
	srvModC = "module c;\nexport fn add(a: i64, b: i64) -> i64 { a + b }\n"
	srvModB = "module b;\nimport fn add(i64, i64) -> i64 from c;\nexport add;\nexport fn twice(x: i64) -> i64 { add(x, x) }\n"
	srvModA = "module a;\nimport fn twice(i64) -> i64 from b;\nimport fn add(i64, i64) -> i64 from b;\nfn main(n: i64) -> i64 { add(twice(n), 1) }\n"
	// srvModA2 is srvModA with an edited main body — the import surface is
	// unchanged, so only module a's artifact key moves.
	srvModA2 = "module a;\nimport fn twice(i64) -> i64 from b;\nimport fn add(i64, i64) -> i64 from b;\nfn main(n: i64) -> i64 { add(twice(n), 2) }\n"
)

// moduleTiers indexes a response's per-module cache info by module name.
func moduleTiers(t *testing.T, resp *CompileResponse) map[string]ModuleCacheInfo {
	t.Helper()
	out := map[string]ModuleCacheInfo{}
	for _, m := range resp.Modules {
		out[m.Name] = m
	}
	return out
}

// TestModulesColdWarmEdit is the separate-compilation acceptance scenario:
// a cold multi-module request compiles every module (per-module misses),
// the identical request hits the whole-program key, and after editing only
// module a the daemon recompiles exactly one module artifact while b and c
// are served from the warm cache.
func TestModulesColdWarmEdit(t *testing.T) {
	_, c := startServer(t, Config{})
	req := &driver.Request{Sources: []string{srvModA, srvModB, srvModC}}

	cold, coldArt, err := c.Compile(req)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Cache != "miss" {
		t.Errorf("cold request cache = %q, want miss", cold.Cache)
	}
	tiers := moduleTiers(t, cold)
	if len(tiers) != 3 {
		t.Fatalf("cold response reports %d modules, want 3: %+v", len(tiers), cold.Modules)
	}
	for name, m := range tiers {
		if m.Cache != "miss" {
			t.Errorf("cold module %s cache = %q, want miss", name, m.Cache)
		}
	}
	if v, _, err := driver.Exec(coldArt.Target, coldArt.Program, coldArt.Wasm, nil, 0, 5); err != nil || v != 11 {
		t.Fatalf("cold artifact: main(5) = %d err=%v, want 11", v, err)
	}

	warm, _, err := c.Compile(req)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Cache != "memory" {
		t.Errorf("warm request cache = %q, want memory", warm.Cache)
	}
	if warm.Key != cold.Key {
		t.Errorf("key changed between identical requests")
	}
	if len(warm.Modules) != 0 {
		t.Errorf("whole-program hit still reports per-module info: %+v", warm.Modules)
	}
	if !bytes.Equal(cold.Artifact, warm.Artifact) {
		t.Error("cached artifact bytes differ from the compiled ones")
	}

	edited := &driver.Request{Sources: []string{srvModA2, srvModB, srvModC}}
	resp, art, err := c.Compile(edited)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Cache != "miss" {
		t.Errorf("edited request cache = %q, want miss", resp.Cache)
	}
	if resp.Key == cold.Key {
		t.Error("editing module a did not move the whole-program key")
	}
	tiers = moduleTiers(t, resp)
	if tiers["a"].Cache != "miss" {
		t.Errorf("edited module a cache = %q, want miss", tiers["a"].Cache)
	}
	for _, name := range []string{"b", "c"} {
		if tiers[name].Cache != "memory" {
			t.Errorf("untouched module %s cache = %q, want memory", name, tiers[name].Cache)
		}
	}
	if tiers["a"].Key == moduleTiers(t, cold)["a"].Key {
		t.Error("module a's artifact key did not move with its source")
	}
	for _, name := range []string{"b", "c"} {
		if tiers[name].Key != moduleTiers(t, cold)[name].Key {
			t.Errorf("module %s's artifact key moved although its source and imports did not", name)
		}
	}
	if v, _, err := driver.Exec(art.Target, art.Program, art.Wasm, nil, 0, 5); err != nil || v != 12 {
		t.Fatalf("edited artifact: main(5) = %d err=%v, want 12", v, err)
	}
}

// TestModulesLinkModesKeyedSeparately: trampoline and mangle produce
// different programs, so they must not share a whole-program key — but the
// per-module artifacts (same per-module spec) are shared.
func TestModulesLinkModesKeyedSeparately(t *testing.T) {
	_, c := startServer(t, Config{})
	tramp, _, err := c.Compile(&driver.Request{Sources: []string{srvModA, srvModB, srvModC}})
	if err != nil {
		t.Fatal(err)
	}
	mangle, _, err := c.Compile(&driver.Request{Sources: []string{srvModA, srvModB, srvModC}, Link: "mangle"})
	if err != nil {
		t.Fatal(err)
	}
	if tramp.Key == mangle.Key {
		t.Error("link modes share a whole-program cache key")
	}
	if mangle.Cache != "miss" {
		t.Errorf("mangle request cache = %q, want miss", mangle.Cache)
	}
	for _, m := range mangle.Modules {
		if m.Cache != "memory" {
			t.Errorf("module %s cache = %q, want memory (shared with trampoline request)", m.Name, m.Cache)
		}
	}
}

// TestModulesSourceOrderSharesKey: the whole-program key is derived from
// the sorted source set, so permuting the request's source list is a cache
// hit, matching the linker's input-order independence.
func TestModulesSourceOrderSharesKey(t *testing.T) {
	_, c := startServer(t, Config{})
	first, _, err := c.Compile(&driver.Request{Sources: []string{srvModA, srvModB, srvModC}})
	if err != nil {
		t.Fatal(err)
	}
	perm, _, err := c.Compile(&driver.Request{Sources: []string{srvModC, srvModA, srvModB}})
	if err != nil {
		t.Fatal(err)
	}
	if perm.Key != first.Key {
		t.Error("permuted source list changed the whole-program key")
	}
	if perm.Cache != "memory" {
		t.Errorf("permuted request cache = %q, want memory", perm.Cache)
	}
	if !bytes.Equal(first.Artifact, perm.Artifact) {
		t.Error("permuted request served different artifact bytes")
	}
}

// TestModulesBadRequests: request shape and link-time errors map to the
// right HTTP failures.
func TestModulesBadRequests(t *testing.T) {
	_, c := startServer(t, Config{})
	cases := []struct {
		name string
		req  *driver.Request
		want string
	}{
		{"both source and sources", &driver.Request{Source: "fn main(n: i64) -> i64 { n }", Sources: []string{srvModC}}, "both source and sources"},
		{"bad link mode", &driver.Request{Sources: []string{srvModA, srvModB, srvModC}, Link: "bogus"}, "unknown mode"},
		{"missing module header", &driver.Request{Sources: []string{"fn main(n: i64) -> i64 { n }"}}, "missing module declaration"},
		{"incompatible import", &driver.Request{Sources: []string{
			"module a;\nimport fn add(i64, i64) -> i64 from b;\nfn main(n: i64) -> i64 { add(n, n) }\n",
			"module b;\nexport fn add(x: f64, y: f64) -> f64 { x + y }\n",
		}}, "incompatible import type"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := c.Compile(tc.req)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got %v, want error containing %q", err, tc.want)
			}
		})
	}
}

// TestModuleCacheKeyDomains: module keys and whole-program keys over the
// same strings never collide, and the resolved-import descriptors are part
// of the module key.
func TestModuleCacheKeyDomains(t *testing.T) {
	if ModuleCacheKey(driver.Version, srvModA, "cleanup", "vm", 8, nil) ==
		CacheKey(driver.Version, srvModA, "cleanup", "smart", "vm", 8) {
		t.Error("module key collides with whole-program key")
	}
	base := ModuleCacheKey(driver.Version, srvModA, "cleanup", "vm", 8, []string{"add from c as fn(i64, i64) -> i64"})
	if base == ModuleCacheKey(driver.Version, srvModA, "cleanup", "vm", 8, []string{"add from c as fn(f64, f64) -> f64"}) {
		t.Error("changing a resolved import signature does not move the module key")
	}
	if base == ModuleCacheKey(driver.Version, srvModA, "cleanup", "vm", 8, []string{"add from d as fn(i64, i64) -> i64"}) {
		t.Error("re-routing a resolved import does not move the module key")
	}
	if base == ModuleCacheKey(driver.Version, srvModA, "cleanup", "wasm", 8, []string{"add from c as fn(i64, i64) -> i64"}) {
		t.Error("changing the backend target does not move the module key")
	}
	if base != ModuleCacheKey(driver.Version, srvModA, "cleanup", "vm", 8, []string{"add from c as fn(i64, i64) -> i64"}) {
		t.Error("module key is not deterministic")
	}
}
