package pm

// Incremental re-running: the world's change journal (internal/ir/journal.go)
// tells the runner which continuations were touched since the last drain.
// The runner uses that signal at two granularities:
//
//   - Whole-pass skips: a pass that (a) opted in via the SelfFixpointing
//     marker, (b) ran to completion without hitting its internal round cap,
//     and (c) has seen no journal activity since it last ran, is provably a
//     no-op — running it again would start from exactly the IR it already
//     saturated on. The runner records such a run as Skipped instead of
//     executing it, which is what makes fix(...) groups O(changed): the
//     second iteration only re-runs the passes whose input actually moved.
//
//   - Per-target plan memos: for ScopeRewriter passes, the analysis phase
//     memoizes (scope pointer, plan) per target. A memo is valid iff
//     ctx.Cache.ScopeOf returns the *same scope pointer* — the cache
//     validates scopes against def stamps on every lookup and rebuilds a
//     fresh Scope value whenever anything in the closure was touched, so
//     pointer identity is an airtight "nothing in this scope changed" proof.
//     (Walking stamps here instead would have a hole: a scope that *shrank*
//     keeps only young defs, yet its cached Defs set still names the old
//     ones.)
//
// Neither mechanism reorders or seeds work: skipped work is provably a
// no-op, so the sequence of node creations — and hence gid assignment and
// printed IR — is byte-identical to a non-incremental run.

import (
	"thorin/internal/analysis"
	"thorin/internal/ir"
)

// SelfFixpointing is the opt-in marker for passes whose Run iterates to an
// internal fixpoint: immediately re-running such a pass on unchanged IR is a
// no-op by construction. Only marked passes are ever skipped; synthetic or
// single-shot passes run every time they are named.
//
// A marked pass whose run hits an internal iteration bound must report
// Result.Saturated — a saturated run did NOT reach its fixpoint, so the
// runner may never skip the follow-up run.
type SelfFixpointing interface {
	Pass
	// SelfFixpointing is a marker method; implementations do nothing.
	SelfFixpointing()
}

// passRecord is the runner's knowledge about one pass name: clean means the
// pass ran after the last journal activity (re-running it now would be a
// no-op, saturation aside).
type passRecord struct {
	clean     bool
	saturated bool
}

// planMemo caches one target's analysis result together with the scope
// pointer it was computed from. Valid iff ctx.Cache.ScopeOf still returns
// the identical pointer.
type planMemo struct {
	scope *analysis.Scope
	plan  any
}

// noteDirty drains the world's change journal. If anything was journaled,
// every pass record except the named one goes dirty: their input moved, so
// their next occurrence must actually run. The exception is the pass that
// produced the activity itself — it just saturated on the result of its own
// rewrites, so it stays clean.
//
// Called with except == "" (matches no pass) at Run start, so external
// mutations between pipeline runs on a reused context dirty everything.
func (c *Context) noteDirty(except string) {
	if len(c.World.DrainDirty()) == 0 {
		return
	}
	for name, rec := range c.passDone {
		if name != except {
			rec.clean = false
		}
	}
}

// passClean reports whether the named pass may be skipped: it ran after the
// last journal activity and did not saturate.
func (c *Context) passClean(name string) bool {
	rec := c.passDone[name]
	return rec != nil && rec.clean && !rec.saturated
}

// markRun records a completed run of the named pass.
func (c *Context) markRun(name string, saturated bool) {
	rec := c.passDone[name]
	if rec == nil {
		rec = &passRecord{}
		c.passDone[name] = rec
	}
	rec.clean = true
	rec.saturated = saturated
}

// memoFor returns the named pass's per-target plan memo table, creating it
// on first use.
func (c *Context) memoFor(name string) map[*ir.Continuation]*planMemo {
	m := c.memos[name]
	if m == nil {
		m = make(map[*ir.Continuation]*planMemo)
		c.memos[name] = m
	}
	return m
}
