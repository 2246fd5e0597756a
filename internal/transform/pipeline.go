package transform

import "fmt"

// The -O levels as named pass-manager specs. Each opens with cleanup and
// closes with cleanup and closure conversion (backends need
// closure-converted input); the optimization passes in between form a
// single fix group iterated to a fixpoint. The post-mangling Cleanup of
// the original hardcoded pipeline is gone — it was provably redundant
// (LowerToCFFWith ends with an internal cleanup), and any residual work is
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
