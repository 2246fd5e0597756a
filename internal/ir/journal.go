package ir

// Change journal for the incremental rewrite core.
//
// The world carries a monotonically increasing rewrite generation. Every
// mutation of the observable graph — a continuation's jump being (re)set or
// cleared, a continuation being created or removed, a new node acquiring use
// edges — advances the generation and stamps the affected defs with it
// (Def.LastTouched). A per-world dirty set additionally records which
// continuations were touched since the last drain, in first-touched order.
//
// Consumers use the two signals for different purposes:
//
//   - analysis.Cache validates a memoized scope by checking that no def in
//     the scope's closure carries a stamp newer than the generation at which
//     the scope was computed (Scope.UnchangedSince). Stamping the *operands*
//     in registerUses is what makes this sound against scope growth: a new
//     user of an in-scope def joins the use-closure, and doing so stamps the
//     def it uses.
//   - The pass manager drains the dirty set between passes to learn whether a
//     pass changed anything observable, and skips re-running self-fixpointing
//     passes whose inputs have not been dirtied since their last run.
//
// Pure node interning that creates no use edges (literals, cons hits) does
// not advance the generation: such nodes are unreachable from any
// continuation body and therefore unobservable to scopes and passes.

// RewriteGen returns the world's current rewrite generation. It increases
// monotonically with every observable mutation of the graph.
func (w *World) RewriteGen() int64 { return w.rewriteGen.Load() }

// nextStamp advances the rewrite generation and returns the new value.
func (w *World) nextStamp() int64 { return w.rewriteGen.Add(1) }

// touch stamps d as modified at a fresh generation.
func (w *World) touch(d Def) { d.base().stamp.Store(w.nextStamp()) }

// journal records c in the dirty set. Duplicate journal events between two
// drains collapse; the first occurrence fixes the drain order.
func (w *World) journal(c *Continuation) {
	w.dirtyMu.Lock()
	if _, ok := w.dirtySet[c]; !ok {
		w.dirtySet[c] = struct{}{}
		w.dirtyList = append(w.dirtyList, c)
	}
	w.dirtyMu.Unlock()
}

// DrainDirty returns every continuation journaled since the previous drain,
// in first-journaled order, and resets the journal. Removed continuations
// stay in the returned slice — a drain after sweeping dead code reports the
// sweep.
func (w *World) DrainDirty() []*Continuation {
	w.dirtyMu.Lock()
	out := w.dirtyList
	w.dirtyList = nil
	w.dirtySet = make(map[*Continuation]struct{})
	w.dirtyMu.Unlock()
	return out
}
