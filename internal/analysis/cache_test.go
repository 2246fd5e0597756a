package analysis

import (
	"testing"

	"thorin/internal/ir"
)

// cacheWorld builds a tiny function: main(mem, ret) jumps to ret.
func cacheWorld() (*ir.World, *ir.Continuation) {
	w := ir.NewWorld()
	main := w.Continuation(w.FnType(w.MemType(), w.FnType(w.MemType())), "main")
	main.SetExtern(true)
	main.Jump(main.Param(1), main.Param(0))
	return w, main
}

func TestCacheScopeMemoization(t *testing.T) {
	_, main := cacheWorld()
	c := NewCache()
	s1 := c.ScopeOf(main)
	s2 := c.ScopeOf(main)
	if s1 != s2 {
		t.Error("second ScopeOf must return the memoized scope")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss", st)
	}

	main.Jump(main.Param(1), main.Param(0))
	s3 := c.ScopeOf(main)
	if s3 == s1 {
		t.Error("ScopeOf after a mutation must recompute")
	}
	st = c.Stats()
	if st.Stale != 1 || st.Misses != 2 {
		t.Errorf("stats = %+v, want 1 stale / 2 misses", st)
	}
}

// TestCacheDerivedAnalyses: the cache memoizes scopes only, so analyses
// derived from one cached scope are built fresh by each caller, while the
// scope itself is shared.
func TestCacheDerivedAnalyses(t *testing.T) {
	_, main := cacheWorld()
	c := NewCache()
	s := c.ScopeOf(main)
	g := NewCFG(c.ScopeOf(main))
	if g.Scope != s {
		t.Error("a CFG built from the cached scope must reference that scope")
	}
	if NewDomTree(g) == nil {
		t.Fatal("a dominator tree must build from a cached scope's CFG")
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss (only scopes are counted)", st)
	}
}

// TestCacheGenerationValidation pins the validity rule: an entry is served
// iff the world's rewrite generation has not moved since it was built. With
// no mutation every lookup returns the same pointer; any mutation, even of
// a continuation outside the scope, recomputes and counts one Stale.
func TestCacheGenerationValidation(t *testing.T) {
	w, main := cacheWorld()
	c := NewCache()

	s1 := c.ScopeOf(main)
	for i := 0; i < 3; i++ {
		if c.ScopeOf(main) != s1 {
			t.Fatal("lookups with no mutation in between must return the same scope")
		}
	}

	other := w.Continuation(w.FnType(w.MemType(), w.FnType(w.MemType())), "other")
	other.Jump(other.Param(1), other.Param(0))
	s2 := c.ScopeOf(main)
	if s2 == s1 {
		t.Fatal("a mutation must recompute the cached scope")
	}
	if st := c.Stats(); st.Stale != 1 || st.Misses != 2 || st.Hits != 3 {
		t.Errorf("stats = %+v, want 3 hits / 2 misses / 1 stale", st)
	}

	// The recomputed scope reflects the new body.
	f := w.Continuation(w.FnType(w.MemType()), "f")
	f.Jump(main.Param(1), main.Param(0))
	main.Jump(f)
	s3 := c.ScopeOf(main)
	if s3 == s2 || !s3.Contains(f) {
		t.Error("recomputed scope must contain the new callee")
	}
	if st := c.Stats(); st.Stale != 2 {
		t.Errorf("stats = %+v, want 2 stale", st)
	}
}

func TestScopeBuildCount(t *testing.T) {
	_, main := cacheWorld()
	c := NewCache()
	before := ScopeBuildCount()
	c.ScopeOf(main)
	c.ScopeOf(main)
	if got := ScopeBuildCount() - before; got != 1 {
		t.Errorf("scope builds = %d, want 1 (second lookup is a cache hit)", got)
	}
}

func TestNilCacheComputes(t *testing.T) {
	_, main := cacheWorld()
	var c *Cache
	if c.ScopeOf(main) == nil {
		t.Fatal("nil cache must still compute scopes")
	}
	if c.Stats() != (CacheStats{}) {
		t.Error("nil cache has zero stats")
	}
}
