package driver

import (
	"strings"
	"testing"

	"thorin/internal/fuzzgen"
	"thorin/internal/impala"
	"thorin/internal/transform"
)

// TestFuzzExtended runs a larger seed range than TestFuzzDifferential.
// Use -short to skip it.
func TestFuzzExtended(t *testing.T) {
	if testing.Short() {
		t.Skip("extended fuzzing skipped in -short mode")
	}
	for seed := 1000; seed < 2500; seed++ {
		src := fuzzgen.Program(int64(seed))
		prog, err := impala.Parse(src)
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, src)
		}
		if err := impala.Check(prog); err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, src)
		}
		arg := int64(seed%17 - 8)
		in, err := impala.NewInterp(prog, nil, 0)
		if err != nil {
			t.Fatalf("seed %d interp: %v\n%s", seed, err, src)
		}
		ref, err := in.Run(arg)
		refTrap := err != nil && strings.Contains(err.Error(), "by zero")
		if err != nil && !refTrap {
			t.Fatalf("seed %d interp: %v\n%s", seed, err, src)
		}
		for _, spec := range []string{transform.O2, transform.O0} {
			got, _, err := runSpec(src, spec, nil, arg)
			if refTrap {
				if err == nil || !strings.Contains(err.Error(), "by zero") {
					t.Fatalf("seed %d: got (%d, %v), reference trapped on division by zero\n%s",
						seed, got, err, src)
				}
				continue
			}
			if err != nil {
				t.Fatalf("seed %d: %v\n%s", seed, err, src)
			}
			if got != ref.I {
				t.Fatalf("seed %d: got %d want %d\n%s", seed, got, ref.I, src)
			}
		}
		got, _, err := runSSA(src, nil, arg)
		if refTrap {
			if err == nil || !strings.Contains(err.Error(), "by zero") {
				t.Fatalf("seed %d ssa: got (%d, %v), reference trapped on division by zero\n%s",
					seed, got, err, src)
			}
			continue
		}
		if err != nil {
			t.Fatalf("seed %d ssa: %v\n%s", seed, err, src)
		}
		if got != ref.I {
			t.Fatalf("seed %d ssa: got %d want %d\n%s", seed, got, ref.I, src)
		}
	}
}
