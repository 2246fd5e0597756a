package ir

import (
	"fmt"
	"sync"
	"testing"
)

// TestConcurrentHashConsing hammers the interning tables from many
// goroutines building overlapping expression sets and checks that equal
// expressions are interned to the same node (one node per distinct value,
// however many goroutines raced to create it).
func TestConcurrentHashConsing(t *testing.T) {
	w := NewWorld()
	const workers = 8
	const exprs = 200

	results := make([][]Def, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			out := make([]Def, exprs)
			for i := 0; i < exprs; i++ {
				a := w.LitI64(int64(i % 50))
				b := w.LitI64(int64(i % 7))
				d := w.Arith(OpAdd, a, b)
				d = w.Arith(OpMul, d, w.LitI64(int64(i%13)+1))
				out[i] = w.Arith(OpXor, d, w.Cast(w.PrimType(PrimI64), b))
				// Non-arith node kinds exercise the other constructors.
				tup := w.Tuple(a, b)
				out[i] = w.Tuple(out[i], w.Extract(tup, w.LitI32(0)))
			}
			results[g] = out
		}(g)
	}
	wg.Wait()

	for g := 1; g < workers; g++ {
		for i := range results[g] {
			if results[g][i] != results[0][i] {
				t.Fatalf("goroutine %d expr %d interned to a different node", g, i)
			}
		}
	}
	if err := Verify(w); err != nil {
		t.Fatal(err)
	}

	// Stats stayed coherent: every request either hit the table or created
	// one of the distinct nodes it now holds.
	requested, consHits, _ := w.Stats()
	if requested != consHits+w.NumPrimOps() {
		t.Errorf("requests (%d) != hits (%d) + distinct nodes (%d)",
			requested, consHits, w.NumPrimOps())
	}
}

// TestConcurrentInternStatsExact has every worker build the same set of
// distinct primops and checks the interning counters add up *exactly*:
// one node per distinct expression, workers×distinct requests, and the
// difference as cons hits. Exactness is the point — the counters are
// updated under the interning mutex, so a snapshot can never observe a
// request that is neither a hit nor a node (the torn-read bug the old
// atomic counters had). Under -race this doubles as a stress test of
// use-list registration under that mutex: every node shares the param
// operand, so all appends contend on one use list.
func TestConcurrentInternStatsExact(t *testing.T) {
	w := NewWorld()
	f := w.Continuation(w.FnType(w.PrimType(PrimI64)), "f")
	p := f.Param(0)

	const workers = 8
	const distinct = 300
	results := make([][]Def, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			out := make([]Def, distinct)
			for i := 0; i < distinct; i++ {
				// xor with a nonzero literal: never folds, never reorders,
				// so each call is exactly one interning request.
				out[i] = w.Arith(OpXor, p, w.LitI64(int64(i)+1))
			}
			results[g] = out
		}(g)
	}
	wg.Wait()

	for g := 1; g < workers; g++ {
		for i := range results[g] {
			if results[g][i] != results[0][i] {
				t.Fatalf("goroutine %d expr %d interned to a different node", g, i)
			}
		}
	}
	st := w.InternStats()
	if st.Requested != st.ConsHits+st.Nodes {
		t.Errorf("inconsistent snapshot: requested %d != hits %d + nodes %d",
			st.Requested, st.ConsHits, st.Nodes)
	}
	if st.Nodes != distinct {
		t.Errorf("nodes = %d, want %d", st.Nodes, distinct)
	}
	if st.Requested != workers*distinct {
		t.Errorf("requested = %d, want %d", st.Requested, workers*distinct)
	}
	if st.ConsHits != (workers-1)*distinct {
		t.Errorf("cons hits = %d, want %d", st.ConsHits, (workers-1)*distinct)
	}
	if w.NumPrimOps() != distinct {
		t.Errorf("NumPrimOps = %d, want %d", w.NumPrimOps(), distinct)
	}
	if p.NumUses() != distinct {
		t.Errorf("param use count = %d, want %d", p.NumUses(), distinct)
	}
	if err := Verify(w); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentContinuationsAndUses races continuation creation against
// concurrent readers of the continuation list and the use lists.
func TestConcurrentContinuationsAndUses(t *testing.T) {
	w := NewWorld()
	base := w.LitI64(7)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				c := w.Continuation(w.FnType(w.MemType()), fmt.Sprintf("c%d_%d", g, i))
				_ = c
				_ = w.Arith(OpAdd, base, w.LitI64(int64(g*1000+i)))
				_ = base.NumUses()
				_ = w.Continuations()
			}
		}(g)
	}
	wg.Wait()
	if n := w.NumContinuations(); n < 800 {
		t.Fatalf("continuation list lost entries: %d < 800", n)
	}
}
