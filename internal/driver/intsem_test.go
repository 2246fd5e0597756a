package driver

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"thorin/internal/impala"
	"thorin/internal/transform"
)

// TestFolderVMIntegerAgreement pins the folder and the VM to the same
// two's-complement integer semantics: each case is compiled twice — once
// with the operands as runtime arguments (the VM executes the op) and once
// with them inlined as literals (the folder evaluates it at compile time) —
// and both must produce the same value.
func TestFolderVMIntegerAgreement(t *testing.T) {
	tests := []struct {
		op   string
		a, b int64
		want int64
	}{
		{"/", math.MinInt64, -1, math.MinInt64},
		{"/", math.MinInt64, 1, math.MinInt64},
		{"/", 7, -2, -3},
		{"/", -7, 2, -3},
		{"%", math.MinInt64, -1, 0},
		{"%", 7, -1, 0},
		{"%", -7, 3, -1},
		{"%", 7, 7, 0},
		{"<<", 1, 64, 1},
		{"<<", 1, 65, 2},
		{"<<", 3, 63, math.MinInt64},
		{">>", 8, 64, 8},
		{">>", -8, 1, -4},
		{"*", math.MaxInt64, 2, -2},
		{"+", math.MaxInt64, 1, math.MinInt64},
	}
	for _, tc := range tests {
		t.Run(fmt.Sprintf("%d%s%d", tc.a, tc.op, tc.b), func(t *testing.T) {
			// MinInt64 prints as a plain literal: the parser folds unary
			// minus into the magnitude, so -9223372036854775808 parses.
			lit := func(v int64) string {
				return fmt.Sprintf("(%d)", v)
			}
			runtimeSrc := fmt.Sprintf("fn main(x: i64, y: i64) -> i64 { x %s y }", tc.op)
			foldedSrc := fmt.Sprintf("fn main() -> i64 { %s %s %s }", lit(tc.a), tc.op, lit(tc.b))
			for _, spec := range []string{transform.O0, transform.O2} {
				got, _, err := runSpec(runtimeSrc, spec, nil, tc.a, tc.b)
				if err != nil {
					t.Fatalf("vm arm: %v", err)
				}
				if got != tc.want {
					t.Errorf("vm arm: got %d, want %d", got, tc.want)
				}
				got, _, err = runSpec(foldedSrc, spec, nil)
				if err != nil {
					t.Fatalf("folded arm: %v", err)
				}
				if got != tc.want {
					t.Errorf("folded arm: got %d, want %d", got, tc.want)
				}
			}
		})
	}
}

// TestDivisionByZeroErrors pins that runtime division/remainder by zero is a
// reported VM error, never a Go panic.
func TestDivisionByZeroErrors(t *testing.T) {
	for _, op := range []string{"/", "%"} {
		src := fmt.Sprintf("fn main(x: i64, y: i64) -> i64 { x %s y }", op)
		if _, _, err := runSpec(src, transform.O0, nil, 1, 0); err == nil {
			t.Errorf("x %s 0 must fail at runtime", op)
		}
	}
}

// TestConstDivisionByZeroTraps pins the folder/VM/interpreter agreement on
// division by a *constant* zero: `10 / 0` used to fold to ⊥ and execute as
// 0 while `10 / n` (n=0) trapped. All three layers must now trap.
func TestConstDivisionByZeroTraps(t *testing.T) {
	for _, op := range []string{"/", "%"} {
		src := fmt.Sprintf("fn main() -> i64 { 10 %s 0 }", op)

		prog, err := impala.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		if err := impala.Check(prog); err != nil {
			t.Fatal(err)
		}
		in, err := impala.NewInterp(prog, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := in.Run(); err == nil {
			t.Errorf("interp: 10 %s 0 must error", op)
		}

		for _, spec := range []string{transform.O0, transform.O2} {
			if got, _, err := runSpec(src, spec, nil); err == nil {
				t.Errorf("vm: 10 %s 0 returned %d, must trap", op, got)
			} else if !strings.Contains(err.Error(), "by zero") {
				t.Errorf("vm: 10 %s 0 failed with %v, want a division-by-zero trap", op, err)
			}
		}
	}
}

// TestMinInt64Literal pins that the most negative i64 is writable as a
// literal (the parser folds unary minus into the magnitude) and that the
// interpreter and both VM arms agree on its value and arithmetic.
func TestMinInt64Literal(t *testing.T) {
	cases := []struct {
		name, src string
		args      []int64
		want      int64
	}{
		{"literal", "fn main() -> i64 { -9223372036854775808 }", nil, math.MinInt64},
		{"arith", "fn main() -> i64 { -9223372036854775808 + 1 }", nil, math.MinInt64 + 1},
		{"div-neg-one", "fn main(n: i64) -> i64 { -9223372036854775808 / (n - 1) }", []int64{0}, math.MinInt64},
		{"cast", "fn main() -> i64 { (-9223372036854775808 as f64) as i64 }", nil, math.MinInt64},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prog, err := impala.Parse(tc.src)
			if err != nil {
				t.Fatal(err)
			}
			if err := impala.Check(prog); err != nil {
				t.Fatal(err)
			}
			in, err := impala.NewInterp(prog, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := in.Run(tc.args...)
			if err != nil {
				t.Fatalf("interp: %v", err)
			}
			if ref.I != tc.want {
				t.Fatalf("interp: got %d, want %d", ref.I, tc.want)
			}
			for _, spec := range []string{transform.O0, transform.O2} {
				got, _, err := runSpec(tc.src, spec, nil, tc.args...)
				if err != nil {
					t.Fatalf("vm: %v", err)
				}
				if got != tc.want {
					t.Errorf("vm: got %d, want %d", got, tc.want)
				}
			}
		})
	}
	// Magnitudes past 2^63 still fail cleanly, and the positive 2^63
	// literal (no minus to fold) stays unrepresentable.
	for _, bad := range []string{
		"fn main() -> i64 { -9223372036854775809 }",
		"fn main() -> i64 { 9223372036854775808 }",
	} {
		if _, err := impala.Parse(bad); err == nil {
			t.Errorf("parse accepted %q", bad)
		}
	}
}
