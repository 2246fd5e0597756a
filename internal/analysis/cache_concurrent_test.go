package analysis

import (
	"fmt"
	"sync"
	"testing"

	"thorin/internal/ir"
)

// TestCacheConcurrentLookups races many goroutines asking for the scopes of
// a shared set of continuations: every caller must observe the same memoized
// scope, and each scope must be computed exactly once (misses == number of
// continuations).
func TestCacheConcurrentLookups(t *testing.T) {
	w := ir.NewWorld()
	mem := w.MemType()
	i64 := w.PrimType(ir.PrimI64)
	retT := w.FnType(mem, i64)
	const funcs = 16
	conts := make([]*ir.Continuation, funcs)
	for i := range conts {
		f := w.Continuation(w.FnType(mem, i64, retT), fmt.Sprintf("f%d", i))
		f.Jump(f.Param(2), f.Param(0), w.Arith(ir.OpAdd, f.Param(1), w.LitI64(int64(i))))
		conts[i] = f
	}

	c := NewCache()
	const workers = 8
	scopes := make([][]*Scope, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			scopes[g] = make([]*Scope, funcs)
			for i, f := range conts {
				scopes[g][i] = c.ScopeOf(f)
			}
		}(g)
	}
	wg.Wait()

	for g := 1; g < workers; g++ {
		for i := range conts {
			if scopes[g][i] != scopes[0][i] {
				t.Fatalf("worker %d got a different scope for f%d", g, i)
			}
		}
	}

	st := c.Stats()
	// One scope per continuation, each computed exactly once.
	if want := funcs; st.Misses != want {
		t.Errorf("misses = %d, want %d (each scope computed once)", st.Misses, want)
	}
	// Every other lookup is a hit.
	if want := funcs * (workers - 1); st.Hits != want {
		t.Errorf("hits = %d, want %d", st.Hits, want)
	}
}
