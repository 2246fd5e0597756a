package bench

// Effect-region measurement for the alias-aware memory pipeline
// (BENCH_pr9.json): one memory-heavy workload — disjoint arrays and a
// clean accumulator interleaved in a loop, a read-only global read every
// iteration, an escaped cell, and a dead store — is compiled twice. The
// "before" arm turns the region machinery off (the chicken-bits
// transform.PromoteNonBlockScopes and analysis.HoistRegionLoads) and runs
// the canonical O2 spec; the "after" arm turns it on and adds the
// effectsplit pass. The report records what the regions buy: promoted
// slots, hoisted loads, split effect threads, dead stores removed, and
// the deterministic VM instruction counts those translate into.

import (
	"encoding/json"
	"fmt"
	"io"
	"testing"

	"thorin/internal/analysis"
	"thorin/internal/driver"
	"thorin/internal/impala"
	"thorin/internal/pm"
	"thorin/internal/transform"
)

// memEffectSplitSpec is the canonical O2 pipeline with the effect-split
// pass wired in before the final cleanup — the same opt-in spec string
// the differential fuzzer's effectsplit arms use.
const memEffectSplitSpec = "cleanup,pe,fix(cff,contify,mem2reg,inline-once),effectsplit,cleanup,closure"

// memoryIters is the loop trip count of the workload; the VM instruction
// counts scale with it, so reports are only comparable at equal scale
// (pinned by the Fast flag, as in the incremental report).
func memoryIters(fast bool) int {
	if fast {
		return 64
	}
	return 512
}

// memorySource builds the workload. Every shape is there on purpose:
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

// MemoryArm records one side of the before/after comparison.
type MemoryArm struct {
	Name               string  `json:"name"`
	Spec               string  `json:"spec"`
	NsPerOpOptimize    float64 `json:"ns_per_op_optimize"`
	PromotedSlots      int     `json:"promoted_slots"`
	SkippedInterleaved int     `json:"m2r_skipped_interleaved"`
	SkippedEscaped     int     `json:"m2r_skipped_escaped"`
	EffectChains       int     `json:"effect_chains_split"`
	EffectThreads      int     `json:"effect_threads"`
	DeadStores         int     `json:"dead_stores_removed"`
	HoistedLoads       int     `json:"hoisted_loads"`
	VMInstructions     int64   `json:"vm_instructions"`
	VMLoads            int64   `json:"vm_loads"`
	VMStores           int64   `json:"vm_stores"`
	Result             int64   `json:"result"`
}

// MemoryReport is the document shape of BENCH_pr9.json.
type MemoryReport struct {
	Note              string    `json:"note"`
	Fast              bool      `json:"fast"`
	Iters             int       `json:"iters"`
	Before            MemoryArm `json:"before"`
	After             MemoryArm `json:"after"`
	PromotedSlotDelta int       `json:"promoted_slot_delta"`
	InstrSavedPct     float64   `json:"vm_instructions_saved_pct"`
}

// setRegionBits flips both chicken-bits and returns a restore func.
func setRegionBits(on bool) func() {
	prevPromote, prevHoist := transform.PromoteNonBlockScopes, analysis.HoistRegionLoads
	transform.PromoteNonBlockScopes = on
	analysis.HoistRegionLoads = on
	return func() {
		transform.PromoteNonBlockScopes = prevPromote
		analysis.HoistRegionLoads = prevHoist
	}
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

// measureMemoryArm compiles src under one configuration, executes it, and
// times the optimizer. The frontend is excluded from the timed loop.
func measureMemoryArm(name, src, spec string, regionBits bool, arg int64) (MemoryArm, error) {
	restore := setRegionBits(regionBits)
	defer restore()

	arm := MemoryArm{Name: name, Spec: spec}
	res, err := driver.CompileSpec(src, spec, analysis.ScheduleSmart, driver.Config{Jobs: 1})
	if err != nil {
		return arm, fmt.Errorf("%s: %w", name, err)
	}
	arm.PromotedSlots = res.Stats.Mem2Reg.PromotedSlots
	arm.SkippedInterleaved = res.Stats.Mem2Reg.SkippedInterleaved
	arm.SkippedEscaped = res.Stats.Mem2Reg.SkippedEscaped
	arm.EffectChains = res.Stats.EffectSplit.SplitChains
	arm.EffectThreads = res.Stats.EffectSplit.Threads
	arm.DeadStores = res.Stats.Cleanup.DeadStores
	arm.HoistedLoads = countHoisted(res)

	got, counters, err := driver.ExecSteps(res.Program, io.Discard, 0, arg)
	if err != nil {
		return arm, fmt.Errorf("%s: execute: %w", name, err)
	}
	arm.Result = got
	arm.VMInstructions = counters.Instructions
	arm.VMLoads = counters.Loads
	arm.VMStores = counters.Stores

	// Timed optimize: frontend outside the timer, pipeline inside.
	pl, err := pm.Parse(spec)
	if err != nil {
		return arm, err
	}
	var berr error
	r := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			w, werr := impala.Compile(src)
			if werr != nil {
				berr = werr
				b.FailNow()
			}
			ctx := pm.NewContext(w)
			ctx.Jobs = 1
			b.StartTimer()
			if _, oerr := pl.Run(ctx); oerr != nil {
				berr = oerr
				b.FailNow()
			}
		}
	})
	if berr != nil {
		return arm, fmt.Errorf("%s: optimize: %w", name, berr)
	}
	arm.NsPerOpOptimize = float64(r.T.Nanoseconds()) / float64(r.N)
	return arm, nil
}

// MeasureMemory runs the before/after comparison and checks the claims the
// report exists to make: region-local promotion lifts strictly more slots,
// the scheduler hoists at least one loop-invariant load the before arm
// leaves in the loop, the effect-split pass actually fires, and all of it
// nets out to fewer VM instructions for the same result.
func MeasureMemory(fast bool) (MemoryReport, error) {
	iters := memoryIters(fast)
	src := memorySource(iters)
	const arg = 3

	rep := MemoryReport{
		Note: "effect-aware memory pipeline: region-local slot promotion + effect-split threads + read-only load hoisting (after) vs linear mem chain (before); same workload, same result, fewer VM instructions",
		Fast: fast, Iters: iters,
	}

	before, err := measureMemoryArm("before/linear-mem", src, transform.O2, false, arg)
	if err != nil {
		return rep, err
	}
	after, err := measureMemoryArm("after/effect-regions", src, memEffectSplitSpec, true, arg)
	if err != nil {
		return rep, err
	}
	rep.Before, rep.After = before, after
	rep.PromotedSlotDelta = after.PromotedSlots - before.PromotedSlots
	if before.VMInstructions > 0 {
		rep.InstrSavedPct = float64(before.VMInstructions-after.VMInstructions) /
			float64(before.VMInstructions) * 100
	}

	// The bench doubles as the acceptance gate: a regression in any of the
	// structural wins fails the run instead of silently recording it.
	if after.Result != before.Result {
		return rep, fmt.Errorf("bench: memory arms disagree: before=%d after=%d", before.Result, after.Result)
	}
	if after.PromotedSlots <= before.PromotedSlots {
		return rep, fmt.Errorf("bench: region-local mem2reg promoted %d slots, before arm %d — expected strictly more",
			after.PromotedSlots, before.PromotedSlots)
	}
	if after.HoistedLoads < 1 {
		return rep, fmt.Errorf("bench: no region-pure load hoisted out of the loop")
	}
	if after.EffectChains < 1 {
		return rep, fmt.Errorf("bench: effectsplit split no chains on the memory workload")
	}
	if after.VMInstructions >= before.VMInstructions {
		return rep, fmt.Errorf("bench: no VM instruction win: before=%d after=%d",
			before.VMInstructions, after.VMInstructions)
	}
	return rep, nil
}

// WriteMemoryJSON writes rep as indented JSON.
func WriteMemoryJSON(w io.Writer, rep MemoryReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// ReadMemoryReport parses a previously written BENCH_pr9.json.
func ReadMemoryReport(r io.Reader) (MemoryReport, error) {
	var rep MemoryReport
	if err := json.NewDecoder(r).Decode(&rep); err != nil {
		return rep, fmt.Errorf("bench: bad memory report: %w", err)
	}
	return rep, nil
}

// DiffMemory gates a fresh measurement against the committed report. The
// VM instruction count is deterministic, so it carries the regression
// budget; the structural wins (promotion delta, hoisting, split chains)
// are re-asserted by MeasureMemory itself before the diff ever runs.
func DiffMemory(old, cur MemoryReport, tolerancePct float64) error {
	if old.Fast != cur.Fast || old.Iters != cur.Iters {
		return fmt.Errorf("bench: memory reports not comparable: baseline fast=%v iters=%d, current fast=%v iters=%d",
			old.Fast, old.Iters, cur.Fast, cur.Iters)
	}
	if old.After.VMInstructions <= 0 {
		return nil
	}
	pct := float64(cur.After.VMInstructions-old.After.VMInstructions) /
		float64(old.After.VMInstructions) * 100
	if pct > tolerancePct {
		return fmt.Errorf("bench: memory workload regression: %d VM instructions vs %d baseline (%+.1f%% > %.0f%%)",
			cur.After.VMInstructions, old.After.VMInstructions, pct, tolerancePct)
	}
	return nil
}
