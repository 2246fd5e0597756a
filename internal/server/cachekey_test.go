package server

import (
	"testing"

	"thorin/internal/driver"
	"thorin/internal/pm"
)

// keyFor derives a request's cache key exactly the way handleCompile does.
func keyFor(t *testing.T, r driver.Request) string {
	t.Helper()
	rr, err := r.Resolve("")
	if err != nil {
		t.Fatal(err)
	}
	return requestKey(rr)
}

// TestCacheKeyStability: identical (source, spec, schedule, iters) inputs
// must produce byte-identical digests on every derivation — the key is a
// pure function of its fields, never of run state, -jobs or -incremental.
// The companion property (artifact *bytes* are identical across jobs levels
// and incremental modes, so excluding those knobs from the key is sound)
// is pinned by driver's TestArtifactDeterministic.
func TestCacheKeyStability(t *testing.T) {
	ref := keyFor(t, driver.Request{Source: fibSrc})
	if len(ref) != 64 {
		t.Fatalf("key %q is not a sha256 hex digest", ref)
	}
	for i := 0; i < 100; i++ {
		if k := keyFor(t, driver.Request{Source: fibSrc}); k != ref {
			t.Fatalf("derivation %d produced %s, want %s", i, k, ref)
		}
	}

	// Requests differing only in execution knobs (jobs, incremental,
	// failure policy, budgets that can only fail a compile, an iters
	// budget equal to the pipeline default) resolve to the same key.
	for _, r := range []driver.Request{
		{Source: fibSrc, Jobs: 1},
		{Source: fibSrc, Jobs: 8},
		{Source: fibSrc, DisableIncremental: true},
		{Source: fibSrc, OnFailure: "degrade"},
		{Source: fibSrc, Budget: "nodes=500000"},
		{Source: fibSrc, Budget: "iters=32"}, // == pm.DefaultMaxFixIters
		{Source: fibSrc, Target: "vm"},       // explicit default target
	} {
		if k := keyFor(t, r); k != ref {
			t.Errorf("request %+v keys to %s, want %s", r, k, ref)
		}
	}
	if pm.DefaultMaxFixIters != 32 {
		t.Fatal("pm.DefaultMaxFixIters changed; update the iters= case above")
	}
}

// TestCacheKeyCollisions: inputs that must produce different artifacts
// must never share a key — different opt levels, schedules, sources,
// fixpoint iteration budgets or compiler versions all diverge, and the
// length-framing defeats concatenation ambiguity.
func TestCacheKeyCollisions(t *testing.T) {
	opt := func(n int) *int { return &n }

	seen := map[string]string{}
	for name, r := range map[string]driver.Request{
		"O0":        {Source: fibSrc, Opt: opt(0)},
		"O1":        {Source: fibSrc, Opt: opt(1)},
		"O2":        {Source: fibSrc, Opt: opt(2)},
		"early":     {Source: fibSrc, Schedule: "early"},
		"late":      {Source: fibSrc, Schedule: "late"},
		"other-src": {Source: fibSrc + "\n"},
		// An iters budget caps fix groups: a capped compile can succeed
		// with an under-optimized (saturated) program, so it must never
		// share a key with the unbudgeted compile or another bound.
		"iters=1":   {Source: fibSrc, Budget: "iters=1"},
		"iters=2":   {Source: fibSrc, Budget: "iters=2"},
		"iters=100": {Source: fibSrc, Budget: "iters=100"},
		// A wasm artifact carries a different payload than a vm artifact
		// for the same program, so the target must split the key space.
		"wasm":    {Source: fibSrc, Target: "wasm"},
		"wasm-O0": {Source: fibSrc, Target: "wasm", Opt: opt(0)},
	} {
		k := keyFor(t, r)
		if prev, dup := seen[k]; dup {
			t.Errorf("%s and %s collide on %s", name, prev, k)
		}
		seen[k] = name
	}

	if CacheKey("v1", "ab", "c", "", "vm", 32) == CacheKey("v1", "a", "bc", "", "vm", 32) {
		t.Error("length framing failed: field boundary shift collides")
	}
	if CacheKey("v1", fibSrc, "cleanup", "smart", "vm", 32) == CacheKey("v2", fibSrc, "cleanup", "smart", "vm", 32) {
		t.Error("compiler version does not enter the key")
	}
	if CacheKey("v1", fibSrc, "cleanup", "smart", "vm", 32) == CacheKey("v1", fibSrc, "cleanup", "smart", "wasm", 32) {
		t.Error("backend target does not enter the key")
	}
}
