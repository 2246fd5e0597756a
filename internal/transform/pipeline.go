package transform

import (
	"fmt"

	"thorin/internal/ir"
)

// The -O levels as named pass-manager specs. Each opens with cleanup and
// closes with cleanup and closure conversion (backends need
// closure-converted input); the optimization passes in between form a
// single fix group iterated to a fixpoint. The post-mangling Cleanup of
// the original hardcoded pipeline is gone — it was provably redundant
// (LowerToCFF ends with an internal cleanup), and any residual work is
// picked up by the next fix iteration.
const (
	// O0 runs only the lowering code generation needs. This is the paper's
	// "unoptimized" arm: every higher-order call pays for a closure.
	O0 = "cleanup,cleanup,closure"
	// O1 promotes stack slots but does no lambda mangling. Single-use
	// inlining is itself an instance of mangling, so it is left out too.
	O1 = "cleanup,fix(mem2reg),cleanup,closure"
	// O2 is the full pipeline and the default of thorinc and thorind.
	O2 = "cleanup,pe,fix(cff,contify,mem2reg,inline-once),cleanup,closure"
)

// OptSpec returns the named spec of an -O level.
func OptSpec(level int) (string, error) {
	switch level {
	case 0:
		return O0, nil
	case 1:
		return O1, nil
	case 2:
		return O2, nil
	}
	return "", fmt.Errorf("bad opt level %d (want 0, 1 or 2)", level)
}

// Stats aggregates the per-pass statistics of one optimizer run.
type Stats struct {
	Cleanup   CleanupStats
	CFF       CFFStats
	Mem2Reg   Mem2RegStats
	PE        PEStats
	Inlined   int
	Contified int
	Closure   ClosureStats
}

// LegacyOptions selects which passes OptimizeLegacy runs. The zero value
// runs nothing but the always-required lowering (cleanup + closure
// conversion).
type LegacyOptions struct {
	// Mangle enables conversion to control-flow form via lambda mangling.
	Mangle bool
	// Mem2Reg promotes stack slots to continuation parameters.
	Mem2Reg bool
	// PartialEval specializes calls with literal arguments.
	PartialEval bool
	// InlineOnce inlines continuations with a single call site.
	InlineOnce bool
	// Contify fuses functions whose call sites all share one return
	// continuation into the caller's control flow.
	Contify bool
}

// must unwraps a (value, error) pair for the legacy pipeline, where every
// pass invocation is well-formed by construction.
func must[T any](v T, err error) T {
	if err != nil {
		panic("transform: legacy pipeline failed: " + err.Error())
	}
	return v
}

// OptimizeLegacy is the frozen pre-pass-manager pipeline: every pass runs
// exactly once in the original hardcoded order (including the redundant
// post-mangling Cleanup). It is retained as the reference arm of the
// pipeline-equivalence tests and must not be changed.
func OptimizeLegacy(w *ir.World, opts LegacyOptions) Stats {
	var st Stats
	st.Cleanup = Cleanup(w)
	if opts.PartialEval {
		st.PE = must(PartialEval(w))
	}
	if opts.Mangle {
		st.CFF = must(LowerToCFF(w))
		Cleanup(w)
	}
	if opts.Contify {
		st.Contified = must(Contify(w))
	}
	if opts.Mem2Reg {
		st.Mem2Reg = Mem2Reg(w)
	}
	if opts.InlineOnce {
		st.Inlined = InlineOnce(w)
	}
	Cleanup(w)
	st.Closure = must(ClosureConvert(w))
	return st
}
