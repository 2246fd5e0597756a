package vm

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// buildPrintLoop builds main(n): for i := n; i > 0; i-- { s += i; print i };
// print s; return s. Both prints sit mid-block, so the budget is charged at
// each of them as well as at the transfers.
func buildPrintLoop() *Program {
	f := &Func{
		Name: "main", NumRegs: 7, ParamRegs: []int{0},
		Blocks: []Block{
			{Name: "entry", Start: 0},
			{Name: "head", Start: 3, ParamRegs: []int{2, 3}}, // i, s
			{Name: "body", Start: 6},
			{Name: "done", Start: 10},
		},
		Code: []Instr{
			{Op: OpConstI, A: 1, Imm: 0},
			{Op: OpConstI, A: 5, Imm: 1},
			{Op: OpJmp, Imm: 1, Args: []int{0, 1}},
			{Op: OpConstI, A: 6, Imm: 0},
			{Op: OpGtI, A: 4, B: 2, C: 6},
			{Op: OpBr, A: 4, B: 2, C: 3},
			{Op: OpAddI, A: 3, B: 3, C: 2},
			{Op: OpPrintI64, A: 2},
			{Op: OpSubI, A: 2, B: 2, C: 5},
			{Op: OpJmp, Imm: 1, Args: []int{2, 3}},
			{Op: OpPrintI64, A: 3},
			{Op: OpRet, Args: []int{3}},
		},
	}
	return &Program{Funcs: []*Func{f}, Main: 0}
}

// TestStepBudgetChargesPerRun runs the print loop at every budget up to
// its cost. Counted by hand: entry is 3 instructions, each iteration 7
// (head 3, body 4) and the exit 5 (head 3, done 2), so main(n) costs
// 7n+8. The print of iteration k is instruction 7k+8 and the final one
// 7n+7. A run must succeed exactly when the budget covers the cost, count
// exactly on success, and print just what the budget covers.
func TestStepBudgetChargesPerRun(t *testing.T) {
	const n = 4
	cost := int64(7*n + 8)
	prog := buildPrintLoop()
	// MaxSteps 0 means no bound, so the smallest budget is 1.
	for budget := int64(1); budget <= cost; budget++ {
		var want strings.Builder
		for k := int64(0); k < n && 7*k+8 <= budget; k++ {
			fmt.Fprintf(&want, "%d\n", n-k)
		}
		if 7*n+7 <= budget {
			fmt.Fprintf(&want, "%d\n", n*(n+1)/2)
		}
		var out strings.Builder
		m := New(prog, &out)
		m.MaxSteps = budget
		res, err := m.Run(Value{I: n})
		switch {
		case budget < cost && !errors.Is(err, ErrStepLimit):
			t.Fatalf("budget %d of %d: got %v, want %v", budget, cost, res, ErrStepLimit)
		case budget == cost && (err != nil || res[0].I != n*(n+1)/2 || m.Counters.Instructions != cost):
			t.Fatalf("budget %d: got %v, %v after %d instructions; want [%d] after %d",
				budget, res, err, m.Counters.Instructions, n*(n+1)/2, cost)
		}
		if out.String() != want.String() {
			t.Fatalf("budget %d printed %q, want %q", budget, out.String(), want.String())
		}
	}
}

// TestProgramRunsConcurrently runs one Program, not yet prepared, from
// four goroutines at once. Under the race detector it checks that the
// one-time validation and preparation is safe to share.
func TestProgramRunsConcurrently(t *testing.T) {
	prog := buildCountdown()
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for g := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 50 {
				res, err := New(prog, nil).Run(Value{I: 10})
				if err == nil && res[0].I != 55 {
					err = fmt.Errorf("countdown(10) = %d, want 55", res[0].I)
				}
				if err != nil {
					errs[g] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestJumpStaging checks the classification of jumps: a jump stages its
// parallel copy only when a param register it writes is a later argument.
func TestJumpStaging(t *testing.T) {
	for _, c := range []struct {
		params, args []int
		staged       bool
	}{
		{[]int{2, 3}, []int{0, 1}, false},
		{[]int{2, 3}, []int{2, 3}, false}, // each param copies onto itself
		{[]int{0, 1}, []int{1, 0}, true},  // a swap
		{[]int{1, 2}, []int{0, 1}, true},  // a shift: r1 is written before it is read
		{[]int{0, 1}, []int{1, 1}, false}, // r0 is never read, r1 is read before it is written
	} {
		if got := clobbers(c.params, c.args); got != c.staged {
			t.Errorf("params %v, args %v: staged = %v, want %v", c.params, c.args, got, c.staged)
		}
	}
}
