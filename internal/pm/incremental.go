package pm

// Incremental re-running: the world's rewrite generation
// (ir.World.RewriteGen, internal/ir/journal.go) advances on every
// observable graph mutation. The runner compares it with the value it saw
// after the previous pass to skip whole passes: a pass that (a) opted in via
// the SelfFixpointing marker, (b) ran to completion without hitting its
// internal round cap, and (c) has seen the generation unchanged since it last
// ran, is provably a no-op — running it again would start from exactly the
// IR it already saturated on. The runner records such a run as Skipped
// instead of executing it, so the confirming iteration of a fix(...) group
// only re-runs the passes whose input actually moved.
//
// Skipping neither reorders nor seeds work: skipped work is provably a
// no-op, so the sequence of node creations — and hence gid assignment and
// printed IR — is byte-identical to a non-incremental run.

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
// pass ran after the last change of the rewrite generation (re-running it
// now would be a no-op, saturation aside).
type passRecord struct {
	clean     bool
	saturated bool
}

// noteDirty compares the world's rewrite generation with the value it saw
// last. If it moved, every pass record except the named one goes dirty:
// their input moved, so their next occurrence must actually run. The
// exception is the pass that produced the change itself — it just saturated
// on the result of its own rewrites, so it stays clean.
//
// Called with except == "" (matches no pass) at Run start, so external
// mutations between pipeline runs on a reused context dirty everything.
func (c *Context) noteDirty(except string) {
	gen := c.World.RewriteGen()
	if gen == c.seenGen {
		return
	}
	c.seenGen = gen
	for name, rec := range c.passDone {
		if name != except {
			rec.clean = false
		}
	}
}

// passClean reports whether the named pass may be skipped: it ran after the
// last change of the rewrite generation and did not saturate.
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
