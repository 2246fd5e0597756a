package driver

import (
	"fmt"
	"strings"
	"testing"

	"thorin/internal/analysis"
	"thorin/internal/backend"
	"thorin/internal/transform"
)

// TestHugeArrayRunsOutOfMemory runs a program that allocates an array of
// its argument's size at sizes far above vm.MaxArrayLen on both targets.
// Each run must return that engine's out-of-memory error before asking
// the host for the memory: never a Go panic (makeslice), and on wasm
// never a bounds trap from a byte size that wrapped.
func TestHugeArrayRunsOutOfMemory(t *testing.T) {
	const src = "fn main(n: i64) -> i64 { let a = [0; n]; n }"
	for _, target := range []backend.Target{backend.VM, backend.Wasm} {
		res, err := CompileSpec(src, transform.O2, analysis.ScheduleSmart, Config{Target: target})
		if err != nil {
			t.Fatal(err)
		}
		for _, shift := range []int{40, 61, 62} {
			t.Run(fmt.Sprintf("%s/2^%d", target, shift), func(t *testing.T) {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("Exec panicked: %v", r)
					}
				}()
				_, _, err := Exec(res.Target, res.Program, res.Wasm, nil, 0, 1<<shift)
				if err == nil || !strings.HasPrefix(err.Error(), string(target)+":") || !strings.Contains(err.Error(), "out of memory") {
					t.Fatalf("got %v, want the %s engine's out-of-memory error", err, target)
				}
			})
		}
	}
}
