package analysis

import (
	"fmt"
	"runtime"
	"testing"

	"thorin/internal/ir"
)

// loopWorld builds `others` unrelated counting-loop functions and then the
// function under test, so the latter's gids sit at the top of the world's
// range.
func loopWorld(others int) *ir.Continuation {
	w := ir.NewWorld()
	for i := 0; i < others; i++ {
		buildLoop(w)
	}
	f, _, _, _ := buildLoop(w)
	return f
}

// scheduleBytes returns the bytes one NewScope + NewSchedule of f
// allocates once the scratch tables have grown to f's world. GOMAXPROCS is
// 1 while it measures, so every walk takes its table from the same pool
// shard.
func scheduleBytes(f *ir.Continuation) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	run := func() { NewSchedule(NewScope(f), ScheduleSmart) }
	for i := 0; i < 3; i++ {
		run()
	}
	const n = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / n
}

// TestScopeWalksCostScopeNotWorld pins the gid-table rule: scope, CFG and
// schedule walks index reused scratch tables by gid, so after warm-up the
// analyses of one small function allocate the same bytes however many
// unrelated functions its world holds.
func TestScopeWalksCostScopeNotWorld(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	small := scheduleBytes(loopWorld(10))
	large := scheduleBytes(loopWorld(5000))
	if small != large {
		t.Fatalf("NewScope+NewSchedule allocate %d B/op beside 10 functions but %d B/op beside 5,000", small, large)
	}
}

// TestScopeSeesNodesCreatedAfterTablesGrew: a world that grows past the
// size the pooled tables last had still gets exact scopes and schedules.
func TestScopeSeesNodesCreatedAfterTablesGrew(t *testing.T) {
	w := ir.NewWorld()
	f, head, _, done := buildLoop(w)
	before := NewScope(f)
	NewSchedule(before, ScheduleSmart)
	// Grow the world well past the tables' size, then give f's body a
	// chain of fresh primops.
	for i := 0; i < 2000; i++ {
		w.Continuation(w.FnType(w.MemType()), fmt.Sprintf("pad%d", i))
	}
	v := ir.Def(head.Param(1))
	for i := 0; i < 50; i++ {
		v = w.Arith(ir.OpMul, v, w.LitI64(int64(i)+3))
	}
	done.Jump(f.Param(2), done.Param(0), v)
	s := NewScope(f)
	if !s.Contains(v) || before.Contains(v) {
		t.Fatalf("new primop membership: now %v, before %v; want true, false", s.Contains(v), before.Contains(v))
	}
	sched := NewSchedule(s, ScheduleSmart)
	scheduleInvariant(t, s, sched)
	if got := sched.BlockOf(v.(*ir.PrimOp)); got == nil || got.Cont != done {
		t.Fatalf("new primop placed in %v, want done", got)
	}
	if n := len(s.ReachablePrimOps()); n != len(before.ReachablePrimOps())+50 {
		t.Fatalf("reachable primops = %d, want %d", n, len(before.ReachablePrimOps())+50)
	}
}
