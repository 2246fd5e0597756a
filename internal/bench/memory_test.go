package bench

import (
	"fmt"
	"io"
	"testing"

	"thorin/internal/analysis"
	"thorin/internal/driver"
	"thorin/internal/transform"
)

// memorySource builds the alias-region workload: disjoint arrays and a
// clean accumulator interleaved in a loop of iters trips, a read-only
// global read every iteration, an escaped cell, and a dead store. Every
// shape is there on purpose:
//
//   - a and b are disjoint array regions written every iteration —
//     unpromotable, so their traffic stays on the memory chain;
//   - acc's own load/store chain is clean, but the array traffic and the
//     closure's effects interleave with it: only region-local promotion
//     can lift it;
//   - base is never stored to, so its region is read-only and the load
//     inside the loop is hoistable;
//   - e escapes into a lambda handed to the recursive blend. cff mangles
//     blend for the literal lambda (that is the paper's move), after
//     which the lambda survives only as a direct callee of the recursive
//     clone: multi-use (inline-once skips it), distinct return
//     continuations (contify skips it), never a jump argument again. The
//     capturing lambda keeps sweep's scope out of block form forever,
//     so only region-local promotion reaches its slots;
//   - x's first store is dead (overwritten before any read).
//
// Two structural details are load-bearing. sweep has two call sites with
// distinct return continuations, or contify/inline-once would fuse it
// into main and re-anchor its slots on covered-block parameters (which
// region-local promotion refuses). And e is declared before acc and the
// arrays, so the lambda's operand closure (e's slot plus everything
// sequenced before it on the mem chain) touches nothing region-local
// promotion wants to promote.
func memorySource(iters int) string {
	return fmt.Sprintf(`static base = 7;

fn blend(f: fn(i64) -> i64, i: i64, lim: i64, acc2: i64) -> i64 {
	if i >= lim { acc2 } else { blend(f, i + 1, lim, acc2 + f(i)) }
}

fn sweep(n: i64) -> i64 {
	let mut e = n;
	let mut acc = 0;
	let a = [n; 8];
	let b = [n + 1; 8];
	for i in 0 .. %d {
		a[(i & 7)] = a[(i & 7)] + i;
		b[(i & 7)] = b[(i & 7)] + (i * 2);
		acc = acc + base + a[(i & 7)];
		e = e + blend((|k: i64| e + k), (i & 1), (i & 3), 1);
	}
	acc + e
}

fn main(n: i64) -> i64 {
	let mut x = n;
	x = n + 1;
	let mut total = 0;
	for j in 0 .. 4 {
		total = total + sweep(n + j);
	}
	total + x + base + sweep(n & 3)
}
`, iters)
}

// memoryArm is what one compile of the workload does: the optimizer
// statistics the alias regions move and the VM execution they net out to.
type memoryArm struct {
	Promoted, SkippedInterleaved, SkippedEscaped int
	DeadStores, HoistedLoads                     int
	VMInstructions, VMLoads, VMStores, Result    int64
}

// countHoisted rebuilds the smart schedule of every top-level scope of an
// already-optimized world and sums the region-pure loads it moved to a
// shallower loop depth — the same schedules codegen consumes.
func countHoisted(res *driver.Result) int {
	hoisted := 0
	for _, c := range res.World.Continuations() {
		if !c.HasBody() || c.IsIntrinsic() {
			continue
		}
		s := analysis.NewScope(c)
		if !s.TopLevel() {
			continue
		}
		hoisted += analysis.NewSchedule(s, analysis.ScheduleSmart).Hoisted
	}
	return hoisted
}

// runMemoryArm compiles src with spec at jobs 1 and runs main(3).
func runMemoryArm(t *testing.T, src, spec string) memoryArm {
	t.Helper()
	res, err := driver.CompileSpec(src, spec, analysis.ScheduleSmart, driver.Config{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, ctr, err := driver.ExecSteps(res.Program, io.Discard, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	return memoryArm{
		Promoted:           st.Mem2Reg.PromotedSlots,
		SkippedInterleaved: st.Mem2Reg.SkippedInterleaved,
		SkippedEscaped:     st.Mem2Reg.SkippedEscaped,
		DeadStores:         st.Cleanup.DeadStores,
		HoistedLoads:       countHoisted(res),
		VMInstructions:     ctr.Instructions,
		VMLoads:            ctr.Loads,
		VMStores:           ctr.Stores,
		Result:             got,
	}
}

// TestEffectRegionWinsAreExact pins what the alias regions buy at -O2 on
// the workload at 64 iterations: region-local promotion lifts acc out of
// sweep's non-block-form scope (3 slots promoted; the lambda-captured e is
// the one escaped skip), cleanup kills x's dead store, and the smart
// schedule hoists the read-only load of base out of the loop. Without the
// promotion or the hoist the VM counts rise above these pins.
func TestEffectRegionWinsAreExact(t *testing.T) {
	want := memoryArm{
		Promoted: 3, SkippedEscaped: 1, DeadStores: 1, HoistedLoads: 1,
		VMInstructions: 12668, VMLoads: 1611, VMStores: 1045, Result: 71341277270831376,
	}
	if got := runMemoryArm(t, memorySource(64), transform.O2); got != want {
		t.Errorf("O2 arm:\n got %+v\nwant %+v", got, want)
	}
}
