package ir

// Change signal for the incremental rewrite core.
//
// The world carries a monotonically increasing rewrite generation. Every
// mutation of the observable graph — a continuation's jump being (re)set or
// cleared, a continuation being created or removed, a new node acquiring use
// edges — advances it. Nothing finer is recorded: no per-def stamp and no
// list of touched continuations.
//
// Consumers compare the generation with a value they saw earlier:
//
//   - analysis.Cache serves a memoized scope iff the generation still equals
//     the one the scope was built at.
//   - The pass manager skips re-running a self-fixpointing pass iff the
//     generation has not moved since that pass last ran to completion.
//
// Pure node interning that creates no use edges (literals, cons hits) does
// not advance the generation: such nodes are unreachable from any
// continuation body and therefore unobservable to scopes and passes.

// RewriteGen returns the world's current rewrite generation. It increases
// monotonically with every observable mutation of the graph.
func (w *World) RewriteGen() int64 { return w.rewriteGen.Load() }

// advance moves the rewrite generation forward by one.
func (w *World) advance() { w.rewriteGen.Add(1) }
