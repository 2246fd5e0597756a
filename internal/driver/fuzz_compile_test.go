package driver

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"thorin/internal/analysis"
	"thorin/internal/backend"
	"thorin/internal/fuzzgen"
	"thorin/internal/impala"
	"thorin/internal/reduce"
	"thorin/internal/transform"
)

// diffArms runs the reference interpreter and every compiled arm (-O0 and
// -O2 at jobs 1 and 4 on the VM, -O0 and -O2 on wasm) on src with one argument
// and reports the first disagreement; "" means all arms agree. The error return flags inputs the
// oracle cannot judge (parse/check failure, reference out of fuel) — the
// fuzzer skips those, the crasher regression treats them as corpus rot.
func diffArms(src string, arg int64) (string, error) {
	prog, err := impala.Parse(src)
	if err != nil {
		return "", fmt.Errorf("parse: %w", err)
	}
	if err := impala.Check(prog); err != nil {
		return "", fmt.Errorf("check: %w", err)
	}
	var refOut bytes.Buffer
	in, err := impala.NewInterp(prog, &refOut, 0)
	if err != nil {
		return "", err
	}
	ref, err := in.Run(arg)
	// A reference trap on division/remainder by zero is a judgeable verdict,
	// not corpus rot: every compiled arm must trap too. Any other reference
	// failure (out of fuel, internal error) stays unjudgeable.
	refTrap := false
	if err != nil {
		if strings.Contains(err.Error(), "division by zero") ||
			strings.Contains(err.Error(), "remainder by zero") {
			refTrap = true
		} else {
			return "", fmt.Errorf("reference: %w", err)
		}
	}
	for _, arm := range []struct {
		name   string
		spec   string
		jobs   int
		target backend.Target
	}{
		{"O0/jobs=1", transform.O0, 1, backend.VM},
		{"O2/jobs=1", transform.O2, 1, backend.VM},
		{"O2/jobs=4", transform.O2, 4, backend.VM},
		{"O0/wasm", transform.O0, 1, backend.Wasm},
		{"O2/wasm", transform.O2, 1, backend.Wasm},
	} {
		res, err := CompileSpec(src, arm.spec, analysis.ScheduleSmart, Config{
			VerifyEach: true,
			Jobs:       arm.jobs,
			Target:     arm.target,
		})
		if err != nil {
			return fmt.Sprintf("%s: compile failed: %v", arm.name, err), nil
		}
		var out bytes.Buffer
		// The VM budget mirrors the interpreter's fuel (and the wasm
		// instance's, below): a compiled arm that spins where the
		// reference finished shows up as an ErrStepLimit finding instead
		// of hanging the run.
		var got int64
		if arm.target == backend.Wasm {
			got, err = ExecWasm(res.Wasm, &out, 500_000_000, arg)
		} else {
			got, _, err = ExecSteps(res.Program, &out, 500_000_000, arg)
		}
		if refTrap {
			// The reference trapped; the compiled arm must trap as well.
			// Partial output is not compared: the trapping division is not
			// mem-threaded, so the schedule may legally place it before or
			// after neighboring prints.
			if err == nil {
				return fmt.Sprintf("%s: result %d, but reference trapped on division by zero", arm.name, got), nil
			}
			if !strings.Contains(err.Error(), "division by zero") &&
				!strings.Contains(err.Error(), "remainder by zero") {
				return fmt.Sprintf("%s: failed with %v, but reference trapped on division by zero", arm.name, err), nil
			}
			continue
		}
		if err != nil {
			return fmt.Sprintf("%s: execution failed: %v", arm.name, err), nil
		}
		if got != ref.I {
			return fmt.Sprintf("%s: result %d, reference %d", arm.name, got, ref.I), nil
		}
		if out.String() != refOut.String() {
			return fmt.Sprintf("%s: output %q, reference %q", arm.name, out.String(), refOut.String()), nil
		}
	}
	return "", nil
}

// FuzzCompile is the differential pipeline fuzzer: fuzzgen turns the seed
// into a well-typed total program, the reference interpreter provides the
// oracle, and every compiled arm must match it. A disagreement is reported
// with a ddmin-minimized reproducer ready for testdata/crashers/.
func FuzzCompile(f *testing.F) {
	for seed := int64(0); seed < 16; seed++ {
		f.Add(seed, seed%7)
	}
	f.Fuzz(func(t *testing.T, seed, arg int64) {
		arg &= 63
		src := fuzzgen.Program(seed)
		finding, err := diffArms(src, arg)
		if err != nil {
			t.Skip(err)
		}
		if finding == "" {
			return
		}
		minimized := reduce.Minimize(src, func(s string) bool {
			f2, err2 := diffArms(s, arg)
			return err2 == nil && f2 != ""
		})
		t.Fatalf("differential mismatch (seed %d, arg %d): %s\n"+
			"minimized reproducer (add to internal/driver/testdata/crashers/):\n%s",
			seed, arg, finding, minimized)
	})
}
