package transform

import (
	"thorin/internal/ir"
	"thorin/internal/pm"
)

// This file adapts the transform passes to the pass manager: every pass is
// registered under a stable name, so pipelines can be assembled from spec
// strings (see O0, O1 and O2 for the -O levels). The typed Stats aggregate
// lives on the run context's blackboard and accumulates across fix-group
// iterations.

// statsKey is the Context blackboard slot holding the accumulated *Stats.
const statsKey = "transform.stats"

func ctxStats(ctx *pm.Context) *Stats {
	if st, ok := ctx.Get(statsKey).(*Stats); ok {
		return st
	}
	st := &Stats{}
	ctx.Put(statsKey, st)
	return st
}

// PipelineStats returns the typed statistics the standard passes
// accumulated over one run context (the zero Stats if none ran).
func PipelineStats(ctx *pm.Context) Stats {
	if st, ok := ctx.Get(statsKey).(*Stats); ok {
		return *st
	}
	return Stats{}
}

// stdPass adapts a stats-accumulating function to pm.Runner. A returned error
// fails the enclosing pipeline, attributed to the pass by name.
type stdPass struct {
	name string
	run  func(ctx *pm.Context, st *Stats) (pm.Result, error)
}

func (p stdPass) Name() string { return p.name }

func (p stdPass) Run(ctx *pm.Context) (pm.Result, error) {
	return p.run(ctx, ctxStats(ctx))
}

// SelfFixpointing opts every standard pass into journal-driven skipping:
// each one iterates to an internal fixpoint (and reports Result.Saturated
// when it hits its round cap instead), so re-running it on unchanged IR is
// a no-op by construction.
func (p stdPass) SelfFixpointing() {}

// mem2regPass exposes slot promotion to the pass manager through the
// ScopeRewriter protocol: targets are enumerated once, analyzed (read-only)
// on parallel workers, and committed sequentially in target order, so the
// resulting IR is identical at every jobs level.
type mem2regPass struct{}

func (mem2regPass) Name() string { return "mem2reg" }

// SelfFixpointing: one run promotes every promotable slot it can see, so an
// immediate re-run on unchanged IR finds nothing left to do.
func (mem2regPass) SelfFixpointing() {}

func (mem2regPass) Targets(ctx *pm.Context) []*ir.Continuation {
	return m2rTargets(ctx.World)
}

func (mem2regPass) Analyze(ctx *pm.Context, c *ir.Continuation) (any, error) {
	return m2rAnalyze(ctx.World, ctx.Cache, c), nil
}

func (mem2regPass) Commit(ctx *pm.Context, c *ir.Continuation, plan any) (pm.Result, error) {
	s, err := m2rCommit(ctx.World, ctx.Cache, plan.(*m2rPlan))
	ctxStats(ctx).Mem2Reg.add(s)
	return pm.Result{Rewrites: s.PromotedSlots + s.PhiParams}, err
}

func (mem2regPass) Finish(ctx *pm.Context) (pm.Result, error) {
	return pm.Result{}, m2rFinish(ctx.World, ctx.Cache)
}

func init() {
	pm.Register(stdPass{"cleanup", func(ctx *pm.Context, st *Stats) (pm.Result, error) {
		s, err := CleanupWith(ctx.World, ctx.Cache)
		st.Cleanup.RemovedConts += s.RemovedConts
		st.Cleanup.EtaReduced += s.EtaReduced
		st.Cleanup.DeadParams += s.DeadParams
		st.Cleanup.DeadStores += s.DeadStores
		return pm.Result{Rewrites: s.RemovedConts + s.EtaReduced + s.DeadParams + s.DeadStores, Saturated: s.Saturated}, err
	}})
	pm.Register(stdPass{"pe", func(ctx *pm.Context, st *Stats) (pm.Result, error) {
		s, err := PartialEvalWith(ctx.World, ctx.Cache)
		st.PE.Specialized += s.Specialized
		st.PE.Inlined += s.Inlined
		st.PE.Saturated = st.PE.Saturated || s.Saturated
		return pm.Result{Rewrites: s.Specialized + s.Inlined, Saturated: s.Saturated}, err
	}})
	pm.Register(stdPass{"cff", func(ctx *pm.Context, st *Stats) (pm.Result, error) {
		s, err := LowerToCFFWith(ctx.World, ctx.Cache)
		st.CFF.Specialized += s.Specialized
		st.CFF.Saturated = st.CFF.Saturated || s.Saturated
		return pm.Result{Rewrites: s.Specialized, Saturated: s.Saturated}, err
	}})
	pm.Register(stdPass{"contify", func(ctx *pm.Context, st *Stats) (pm.Result, error) {
		n, sat, err := ContifyWith(ctx.World, ctx.Cache)
		st.Contified += n
		return pm.Result{Rewrites: n, Saturated: sat}, err
	}})
	pm.Register(mem2regPass{})
	pm.Register(stdPass{"inline-once", func(ctx *pm.Context, st *Stats) (pm.Result, error) {
		n, sat, err := InlineOnceWith(ctx.World, ctx.Cache)
		st.Inlined += n
		return pm.Result{Rewrites: n, Saturated: sat}, err
	}})
	pm.Register(stdPass{"closure", func(ctx *pm.Context, st *Stats) (pm.Result, error) {
		s, err := ClosureConvertWith(ctx.World, ctx.Cache)
		st.Closure.Closures += s.Closures
		st.Closure.Lifted += s.Lifted
		return pm.Result{Rewrites: s.Closures + s.Lifted, Saturated: s.Saturated}, err
	}})
}

// RunPipeline parses spec and runs it over w with a fresh context,
// returning the accumulated typed stats and the instrumentation report.
func RunPipeline(w *ir.World, spec string) (Stats, *pm.Report, error) {
	pl, err := pm.Parse(spec)
	if err != nil {
		return Stats{}, nil, err
	}
	ctx := pm.NewContext(w)
	rep, err := pl.Run(ctx)
	return PipelineStats(ctx), rep, err
}
