package driver

import (
	"strings"
	"testing"

	"thorin/internal/fuzzgen"
	"thorin/internal/impala"
	"thorin/internal/transform"
)

// TestFuzzDifferential generates random programs (internal/fuzzgen) and
// checks that the reference interpreter, both Thorin pipelines and the SSA
// baseline agree. FuzzCompile is the open-ended variant of this test.
func TestFuzzDifferential(t *testing.T) {
	seeds := 150
	if testing.Short() {
		seeds = 25
	}
	for seed := 0; seed < seeds; seed++ {
		src := fuzzgen.Program(int64(seed))
		prog, err := impala.Parse(src)
		if err != nil {
			t.Fatalf("seed %d: parse: %v\n%s", seed, err, src)
		}
		if err := impala.Check(prog); err != nil {
			t.Fatalf("seed %d: check: %v\n%s", seed, err, src)
		}

		arg := int64(seed%13 - 6)
		in, err := impala.NewInterp(prog, nil, 0)
		if err != nil {
			t.Fatalf("seed %d: interp: %v\n%s", seed, err, src)
		}
		ref, err := in.Run(arg)
		refTrap := err != nil && strings.Contains(err.Error(), "by zero")
		if err != nil && !refTrap {
			t.Fatalf("seed %d: interp: %v\n%s", seed, err, src)
		}

		for _, arm := range []struct {
			name string
			run  func() (int64, error)
		}{
			{"thorin-opt", func() (int64, error) {
				v, _, err := runSpec(src, transform.O2, nil, arg)
				return v, err
			}},
			{"thorin-noopt", func() (int64, error) {
				v, _, err := runSpec(src, transform.O0, nil, arg)
				return v, err
			}},
			{"ssa", func() (int64, error) {
				v, _, err := RunSSA(src, nil, arg)
				return v, err
			}},
		} {
			got, err := arm.run()
			if refTrap {
				// The reference trapped on division by zero; every arm
				// must trap too.
				if err == nil || !strings.Contains(err.Error(), "by zero") {
					t.Fatalf("seed %d %s: got (%d, %v), reference trapped on division by zero\n%s",
						seed, arm.name, got, err, src)
				}
				continue
			}
			if err != nil {
				t.Fatalf("seed %d %s: %v\n%s", seed, arm.name, err, src)
			}
			if got != ref.I {
				t.Fatalf("seed %d %s: got %d, reference interpreter says %d\n%s",
					seed, arm.name, got, ref.I, src)
			}
		}
	}
}
