package ir

import (
	"fmt"
	"strings"
	"testing"
)

// useWorld returns a world with an extern main(mem, i64, ret), a bodyless
// sink(mem, i64) and n continuations k0..k(n-1), each jumping sink(mem, x)
// with x = main's i64 param, so x and sink have one use per k, in k order.
func useWorld(n int) (w *World, x *Param, sink *Continuation, ks []*Continuation) {
	w = NewWorld()
	mem := w.MemType()
	i64 := w.PrimType(PrimI64)
	main := w.Continuation(w.FnType(mem, i64, w.FnType(mem)), "main")
	main.SetExtern(true)
	x = main.Param(1)
	sink = w.Continuation(w.FnType(mem, i64), "sink")
	for i := 0; i < n; i++ {
		k := w.Continuation(w.FnType(mem), fmt.Sprintf("k%d", i))
		k.Jump(sink, k.Param(0), x)
		ks = append(ks, k)
	}
	return w, x, sink, ks
}

// userNames lists the users of d in EachUse order.
func userNames(d Def) []string {
	var out []string
	d.EachUse(func(u Use) bool {
		out = append(out, u.Def.Name())
		return true
	})
	return out
}

// Removing a middle use keeps the other uses in insertion order, zeroes
// the vacated slot, and a re-registration appends at the end.
func TestUseRemovalKeepsOrder(t *testing.T) {
	_, x, sink, ks := useWorld(4)
	ks[1].Unset()
	if got, want := strings.Join(userNames(x), " "), "k0 k2 k3"; got != want {
		t.Fatalf("after removing k1: uses %q, want %q", got, want)
	}
	b := x.base()
	if vacated := b.uses[:len(b.uses)+1][len(b.uses)]; vacated != (Use{}) {
		t.Errorf("vacated slot not zeroed: %+v", vacated)
	}
	ks[1].Jump(sink, ks[1].Param(0), x)
	ks[2].Jump(sink, ks[2].Param(0), x)
	if got, want := strings.Join(userNames(x), " "), "k0 k3 k1 k2"; got != want {
		t.Fatalf("after re-registering k1 and re-jumping k2: uses %q, want %q", got, want)
	}
}

// EachUse callbacks must not mutate the graph; the guard catches a Jump of
// a user and the creation of a node that uses the iterated def.
func TestEachUsePanicsOnMutation(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(w *World, x Def, u Use)
	}{
		{"jump", func(w *World, x Def, u Use) {
			k := u.Def.(*Continuation)
			k.Jump(k.Callee(), k.Args()...)
		}},
		{"new user", func(w *World, x Def, u Use) {
			w.Arith(OpAdd, x, w.LitI64(1))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, x, _, _ := useWorld(3)
			defer func() {
				r := recover()
				if r == nil || !strings.Contains(fmt.Sprint(r), "ir: EachUse callback mutated the graph") {
					t.Fatalf("recovered %v, want the EachUse mutation panic", r)
				}
			}()
			x.EachUse(func(u Use) bool {
				tc.mutate(w, x, u)
				return true
			})
		})
	}
}

// Reading or interning without new use edges inside a callback is allowed:
// literal creation and cons hits do not move the rewrite generation.
func TestEachUseAllowsConsHits(t *testing.T) {
	w, x, _, _ := useWorld(3)
	y := w.Arith(OpAdd, x, w.LitI64(1))
	n := 0
	x.EachUse(func(u Use) bool {
		if w.Arith(OpAdd, x, w.LitI64(1)) != y {
			t.Fatal("expected cons hit")
		}
		w.LitI64(int64(n) + 100)
		n++
		return true
	})
	if n != 4 {
		t.Errorf("visited %d uses, want 4", n)
	}
}

// A re-Jump allocates only the continuation's new operand slice: removal
// is in place and re-registration appends into the freed capacity, however
// many uses the operands have.
func TestReJumpAllocatesOnce(t *testing.T) {
	for _, n := range []int{10, 10000} {
		_, x, sink, ks := useWorld(n)
		k := ks[n/2]
		args := []Def{k.Param(0), x}
		k.Jump(sink, args...) // move k's uses to the end of each list
		allocs := testing.AllocsPerRun(100, func() { k.Jump(sink, args...) })
		if allocs != 1 {
			t.Errorf("%d uses: re-Jump allocates %v times, want 1", n, allocs)
		}
		if x.NumUses() != n || sink.NumUses() != n {
			t.Errorf("%d uses: x has %d, sink %d", n, x.NumUses(), sink.NumUses())
		}
	}
}

// Two structurally different primops chained under one table key: each
// lookup returns its own node, and repeated requests cons to the right one.
func TestInternBucketCollision(t *testing.T) {
	w, x, _, _ := useWorld(0)
	i64 := w.PrimType(PrimI64)
	one, two := w.LitI64(1), w.LitI64(2)
	const key = 42
	a := w.internPrimOp(key, OpAdd, i64, 0, []Def{x, one})
	b := w.internPrimOp(key, OpMul, i64, 0, []Def{x, two})
	if a == b {
		t.Fatal("structurally different primops interned to one node")
	}
	if w.primops[key] != b || b.next != a || a.next != nil {
		t.Fatal("bucket is not the chain b -> a")
	}
	if got := w.internPrimOp(key, OpAdd, i64, 0, []Def{x, one}); got != a {
		t.Errorf("lookup of the add returned %v, want %v", got, a)
	}
	if got := w.internPrimOp(key, OpMul, i64, 0, []Def{x, two}); got != b {
		t.Errorf("lookup of the mul returned %v, want %v", got, b)
	}
	c := w.internPrimOp(key, OpAdd, i64, 0, []Def{x, two})
	if c == a || c == b {
		t.Fatal("a third structure consed to an existing node")
	}
	if got := w.internPrimOp(key, OpAdd, i64, 0, []Def{x, two}); got != c {
		t.Errorf("third structure: lookup returned %v, want %v", got, c)
	}
	if st := w.InternStats(); st.Nodes != 3 || st.ConsHits != 3 || st.Requested != 6 {
		t.Errorf("stats %+v, want 3 nodes, 3 hits, 6 requests", st)
	}
}
