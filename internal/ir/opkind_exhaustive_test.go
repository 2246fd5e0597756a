package ir

import "testing"

// TestOpKindExhaustive walks every named OpKind (the loop bounds itself by
// String(): "op?" marks the end of the enum) and requires the tables that
// must stay in sync with the enum to cover it, failing by kind name:
//
//   - the verifier's opShapes operand contract, and its internal
//     consistency (memIdx within arity bounds),
//   - HasMemEffect agreement with the shape table: a kind that declares a
//     memory operand is effectful, and vice versa — except OpExtract,
//     which carries its source's effect through projections without
//     taking a mem operand itself.
//
// A kind added to ops.go without these entries fails here before any
// program can reach the verifier's runtime "missing from opShapes" error.
func TestOpKindExhaustive(t *testing.T) {
	n := 0
	for k := OpInvalid + 1; k.String() != "op?"; k++ {
		n++
		sh, ok := opShapes[k]
		if !ok {
			t.Errorf("%s: missing from the verifier's opShapes table", k)
			continue
		}
		if sh.maxOps != -1 && sh.maxOps < sh.minOps {
			t.Errorf("%s: opShapes arity bounds inverted: min %d max %d", k, sh.minOps, sh.maxOps)
		}
		for _, i := range sh.memIdx {
			if i < 0 || i >= sh.minOps {
				t.Errorf("%s: opShapes memIdx %d outside the guaranteed arity %d", k, i, sh.minOps)
			}
		}
		declaresMem := len(sh.memIdx) > 0
		if declaresMem && !k.HasMemEffect() {
			t.Errorf("%s: takes a memory operand but HasMemEffect() is false", k)
		}
		if k.HasMemEffect() && !declaresMem {
			t.Errorf("%s: HasMemEffect() but no memory operand declared in opShapes", k)
		}
	}
	if n != len(opShapes) {
		t.Errorf("opShapes has %d entries for %d named kinds — a stale entry for a removed kind?", len(opShapes), n)
	}
}
