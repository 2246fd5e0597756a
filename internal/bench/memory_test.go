package bench

import (
	"fmt"
	"io"
	"testing"

	"thorin/internal/analysis"
	"thorin/internal/driver"
	"thorin/internal/transform"
)

// memorySource builds the effect-region workload: disjoint arrays and a
// clean accumulator interleaved in a loop of iters trips, a read-only
// global read every iteration, an escaped cell, and a dead store. Every
// shape is there on purpose:
//
//   - a and b are disjoint array regions written every iteration —
//     unpromotable, so they survive as the effect-split material;
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
//     capturing lambda keeps sweep's scope out of block form forever —
//     the before arm skips every slot in it, and e pins a ⊤-region
//     thread;
//   - x's first store is dead (overwritten before any read).
//
// Two structural details are load-bearing. sweep has two call sites with
// distinct return continuations, or contify/inline-once would fuse it
// into main and re-anchor its slots on covered-block parameters (which
// region-local promotion refuses). And e is declared before acc and the
// arrays, so the lambda's operand closure (e's slot plus everything
// sequenced before it on the mem chain) touches nothing the after arm
// wants to promote.
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

// memoryArm is what one configuration of the workload does: the optimizer
// statistics the effect regions move and the VM execution they net out to.
type memoryArm struct {
	Promoted, SkippedInterleaved, SkippedEscaped   int
	ChainsSplit, Threads, DeadStores, HoistedLoads int
	VMInstructions, VMLoads, VMStores, Result      int64
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

// runMemoryArm compiles src with spec at jobs 1, with the region
// chicken-bits (transform.PromoteNonBlockScopes and
// analysis.HoistRegionLoads) set to regionBits, and runs main(3).
func runMemoryArm(t *testing.T, src, spec string, regionBits bool) memoryArm {
	t.Helper()
	prevPromote, prevHoist := transform.PromoteNonBlockScopes, analysis.HoistRegionLoads
	transform.PromoteNonBlockScopes, analysis.HoistRegionLoads = regionBits, regionBits
	defer func() { transform.PromoteNonBlockScopes, analysis.HoistRegionLoads = prevPromote, prevHoist }()

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
		ChainsSplit:        st.EffectSplit.SplitChains,
		Threads:            st.EffectSplit.Threads,
		DeadStores:         st.Cleanup.DeadStores,
		HoistedLoads:       countHoisted(res),
		VMInstructions:     ctr.Instructions,
		VMLoads:            ctr.Loads,
		VMStores:           ctr.Stores,
		Result:             got,
	}
}

// TestEffectRegionWinsAreExact pins what the effect-aware memory pipeline
// buys on the workload at 64 iterations. The before arm turns the region
// machinery off and runs the canonical O2 spec; the after arm turns it on
// and adds the opt-in effectsplit pass. Region-local promotion lifts one
// more slot, the scheduler hoists the read-only load out of the loop, the
// split yields four effect threads, and the same result costs fewer VM
// instructions, loads and stores.
func TestEffectRegionWinsAreExact(t *testing.T) {
	src := memorySource(64)
	const effectSplit = "cleanup,pe,fix(cff,contify,mem2reg,inline-once),effectsplit,cleanup,closure"
	for _, tc := range []struct {
		name       string
		spec       string
		regionBits bool
		want       memoryArm
	}{
		{"before", transform.O2, false, memoryArm{
			Promoted: 2, SkippedInterleaved: 2, DeadStores: 1,
			VMInstructions: 13638, VMLoads: 2251, VMStores: 1370, Result: 71341277270831376,
		}},
		{"after", effectSplit, true, memoryArm{
			Promoted: 3, SkippedEscaped: 1, ChainsSplit: 1, Threads: 4, DeadStores: 1, HoistedLoads: 1,
			VMInstructions: 12668, VMLoads: 1611, VMStores: 1045, Result: 71341277270831376,
		}},
	} {
		if got := runMemoryArm(t, src, tc.spec, tc.regionBits); got != tc.want {
			t.Errorf("%s arm:\n got %+v\nwant %+v", tc.name, got, tc.want)
		}
	}
}
