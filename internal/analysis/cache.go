package analysis

import (
	"sync"
	"sync/atomic"

	"thorin/internal/ir"
)

// CacheStats counts how a Cache was used over its lifetime. Hits and
// Misses are per lookup (one ScopeOf call is one lookup); Invalidations
// counts InvalidateAll calls that actually dropped entries; Stale counts
// entries dropped by generation validation because a scope member was
// touched after the entry was computed.
type CacheStats struct {
	Hits          int `json:"hits"`
	Misses        int `json:"misses"`
	Invalidations int `json:"invalidations"`
	Stale         int `json:"stale"`
}

// contEntry holds the memoized scope of one continuation. All fields are
// guarded by mu; holding one entry's lock never requires another entry's
// lock, so parallel workers analyzing different scopes proceed
// independently while workers asking for the same scope serialize and share
// one computation.
type contEntry struct {
	mu    sync.Mutex
	scope *Scope
	// stamp is the world's rewrite generation read immediately before the
	// scope was computed: the scope is valid iff no scope member was touched
	// after stamp. Reading the generation *before* NewScope makes a
	// concurrent touch look stale rather than silently valid.
	stamp int64
	// validatedAt caches the most recent generation at which the stamp walk
	// succeeded, so back-to-back lookups with no interleaving mutation skip
	// the walk entirely.
	validatedAt int64
}

// Cache memoizes per-continuation scopes across the passes of one pipeline
// run; passes derive CFGs and dominator trees from the scope themselves.
// Scopes are pure functions of the IR; every lookup validates the entry
// against the world's change journal (no def in the cached scope's closure
// may carry a stamp newer than the entry's), so entries survive unrelated
// mutations and go stale precisely when their own scope was touched. Callers
// may additionally force recomputation with InvalidateAll (the pass manager
// does this after changed passes when incremental mode is off). Cached
// scopes are shared snapshots: callers must treat them as immutable.
//
// A Cache is safe for concurrent lookups: the entry map is guarded by a
// cache-wide mutex and each continuation's scope by a per-continuation
// lock, so parallel scope workers share a memoized scope without computing
// it twice. Invalidation must not race with lookups — the pass manager
// only invalidates between (not during) parallel phases.
//
// A nil *Cache is valid and simply computes every scope from scratch
// without storing anything, so transformation code can thread an optional
// cache unconditionally.
type Cache struct {
	mu      sync.Mutex
	entries map[*ir.Continuation]*contEntry

	hits          atomic.Int64
	misses        atomic.Int64
	invalidations atomic.Int64
	stale         atomic.Int64
}

// NewCache creates an empty analysis cache.
func NewCache() *Cache {
	return &Cache{entries: make(map[*ir.Continuation]*contEntry)}
}

// entryFor returns (creating on demand) the entry of a continuation.
func (c *Cache) entryFor(entry *ir.Continuation) *contEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[entry]
	if !ok {
		e = &contEntry{}
		c.entries[entry] = e
	}
	return e
}

// validateLocked drops e's memoized scope if one of its members has been
// touched since the scope was computed. e.mu must be held; call it before
// serving e.scope.
func (c *Cache) validateLocked(e *contEntry, entry *ir.Continuation) {
	if e.scope == nil {
		return
	}
	cur := entry.World().RewriteGen()
	if cur == e.validatedAt {
		return
	}
	if e.scope.UnchangedSince(e.stamp) {
		e.validatedAt = cur
		return
	}
	e.scope = nil
	e.stamp, e.validatedAt = 0, 0
	c.stale.Add(1)
}

// ScopeOf returns the scope of entry, computing and memoizing it on a miss.
func (c *Cache) ScopeOf(entry *ir.Continuation) *Scope {
	if c == nil {
		return NewScope(entry)
	}
	e := c.entryFor(entry)
	e.mu.Lock()
	defer e.mu.Unlock()
	c.validateLocked(e, entry)
	if e.scope != nil {
		c.hits.Add(1)
		return e.scope
	}
	c.misses.Add(1)
	gen := entry.World().RewriteGen()
	e.scope = NewScope(entry)
	e.stamp, e.validatedAt = gen, gen
	return e.scope
}

// InvalidateAll drops every cached result. Stamp validation makes this
// unnecessary for correctness; the pass manager still applies it after any
// changed pass when incremental mode is off, as the conservative reference
// behaviour the incremental mode is differenced against.
func (c *Cache) InvalidateAll() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	populated := false
	for _, e := range c.entries {
		e.mu.Lock()
		populated = e.scope != nil
		e.mu.Unlock()
		if populated {
			break
		}
	}
	if populated {
		c.invalidations.Add(1)
	}
	c.entries = make(map[*ir.Continuation]*contEntry)
}

// Stats returns the lifetime counters.
func (c *Cache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	return CacheStats{
		Hits:          int(c.hits.Load()),
		Misses:        int(c.misses.Load()),
		Invalidations: int(c.invalidations.Load()),
		Stale:         int(c.stale.Load()),
	}
}
