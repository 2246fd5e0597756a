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

	c.InvalidateAll()
	s3 := c.ScopeOf(main)
	if s3 == s1 {
		t.Error("ScopeOf after InvalidateAll must recompute")
	}
	st = c.Stats()
	if st.Invalidations != 1 || st.Misses != 2 {
		t.Errorf("stats = %+v, want 1 invalidation / 2 misses", st)
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

func TestCacheGenerationValidation(t *testing.T) {
	w, main := cacheWorld()
	c := NewCache()

	// An unrelated continuation's mutation must not evict main's entry.
	other := w.Continuation(w.FnType(w.MemType(), w.FnType(w.MemType())), "other")
	s1 := c.ScopeOf(main)
	other.Jump(other.Param(1), other.Param(0))
	if c.ScopeOf(main) != s1 {
		t.Error("mutation outside the scope must keep the cached scope valid")
	}

	// Rewiring main's body touches a scope member: the entry must go stale
	// and the recomputed scope must reflect the new body.
	f := w.Continuation(w.FnType(w.MemType()), "f")
	f.Jump(main.Param(1), main.Param(0))
	main.Jump(f)
	s2 := c.ScopeOf(main)
	if s2 == s1 {
		t.Fatal("mutation inside the scope must recompute the cached scope")
	}
	if !s2.Contains(f) {
		t.Error("recomputed scope must contain the new callee")
	}
	if st := c.Stats(); st.Stale == 0 {
		t.Errorf("stats = %+v, want a stale eviction recorded", st)
	}
}

func TestScopeUnchangedSince(t *testing.T) {
	w, main := cacheWorld()
	gen := w.RewriteGen()
	s := NewScope(main)
	if !s.UnchangedSince(gen) {
		t.Fatal("fresh scope must be unchanged since its construction generation")
	}
	// A new user of main's param grows the use-closure; the stamp on the
	// param must flip the validity check.
	f := w.Continuation(w.FnType(w.MemType()), "f")
	f.Jump(main.Param(1), main.Param(0))
	if s.UnchangedSince(gen) {
		t.Error("scope must read as changed after a member gained a user")
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
	c.InvalidateAll() // must not panic
	if c.Stats() != (CacheStats{}) {
		t.Error("nil cache has zero stats")
	}
}
