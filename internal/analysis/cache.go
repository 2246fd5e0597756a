package analysis

import (
	"sync"
	"sync/atomic"

	"thorin/internal/ir"
)

// CacheStats counts how a Cache was used over its lifetime. Hits and
// Misses are per lookup (one ScopeOf call is one lookup); Stale counts
// entries dropped because the world's rewrite generation moved after the
// entry was computed.
type CacheStats struct {
	Hits   int `json:"hits"`
	Misses int `json:"misses"`
	Stale  int `json:"stale"`
}

// contEntry holds the memoized scope of one continuation. All fields are
// guarded by mu; holding one entry's lock never requires another entry's
// lock, so parallel workers analyzing different scopes proceed
// independently while workers asking for the same scope serialize and share
// one computation.
type contEntry struct {
	mu    sync.Mutex
	scope *Scope
	// gen is the world's rewrite generation read immediately before the
	// scope was computed: the scope is valid iff the generation still equals
	// gen. Reading it *before* NewScope makes a concurrent mutation look
	// stale rather than silently valid.
	gen int64
}

// Cache memoizes per-continuation scopes across the passes of one pipeline
// run; passes derive CFGs and dominator trees from the scope themselves.
// Scopes are pure functions of the IR, and an entry is served only while
// the world's rewrite generation (ir.World.RewriteGen) equals the one it was
// built at: any graph mutation makes every entry stale, and the next lookup
// rebuilds it. Cached scopes are shared snapshots: callers must treat them
// as immutable.
//
// A Cache is safe for concurrent lookups: the entry map is guarded by a
// cache-wide mutex and each continuation's scope by a per-continuation
// lock, so parallel scope workers share a memoized scope without computing
// it twice.
//
// A nil *Cache is valid and simply computes every scope from scratch
// without storing anything, so transformation code can thread an optional
// cache unconditionally.
type Cache struct {
	mu      sync.Mutex
	entries map[*ir.Continuation]*contEntry

	hits   atomic.Int64
	misses atomic.Int64
	stale  atomic.Int64
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

// ScopeOf returns the scope of entry, computing and memoizing it on a miss.
func (c *Cache) ScopeOf(entry *ir.Continuation) *Scope {
	if c == nil {
		return NewScope(entry)
	}
	e := c.entryFor(entry)
	e.mu.Lock()
	defer e.mu.Unlock()
	gen := entry.World().RewriteGen()
	if e.scope != nil {
		if e.gen == gen {
			c.hits.Add(1)
			return e.scope
		}
		c.stale.Add(1)
	}
	c.misses.Add(1)
	e.scope = NewScope(entry)
	e.gen = gen
	return e.scope
}

// Stats returns the lifetime counters.
func (c *Cache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	return CacheStats{
		Hits:   int(c.hits.Load()),
		Misses: int(c.misses.Load()),
		Stale:  int(c.stale.Load()),
	}
}
