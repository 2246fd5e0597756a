package ir

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Use records that Def uses the subject def as operand Index.
type Use struct {
	Def   Def
	Index int
}

// numUseStripes is the number of reader/writer locks striping the per-def
// use lists. Striping by the subject def's gid keeps registration of
// disjoint defs contention-free while still making each def's list safe
// against concurrent construction.
const numUseStripes = 64

// useStripe returns the lock guarding the use list of the def with the
// given gid.
func (w *World) useStripe(gid int) *sync.RWMutex {
	return &w.useStripes[uint(gid)%numUseStripes]
}

// Def is a node of the Thorin program graph. The four concrete
// implementations are *Continuation, *Param, *PrimOp and *Literal.
//
// Primops and literals are immutable and hash-consed; continuations are
// mutable (their body can be (re)set with Jump); params are created with
// their continuation. A Global is represented as a PrimOp with kind
// OpGlobal whose operand is the initializer.
type Def interface {
	// GID returns the globally unique id of the def within its World.
	GID() int
	// Type returns the def's type.
	Type() Type
	// Ops returns the operand slice. Callers must not mutate it.
	Ops() []Def
	// Op returns operand i.
	Op(i int) Def
	// NumOps returns the number of operands.
	NumOps() int
	// Name returns the debug name (may be empty for primops).
	Name() string
	// SetName sets the debug name.
	SetName(string)
	// World returns the owning world.
	World() *World
	// Uses returns all recorded uses of this def, sorted by (user gid,
	// operand index). The returned slice is fresh; callers may keep it.
	Uses() []Use
	// EachUse calls f for every recorded use of this def, in insertion
	// order, until f returns false. It allocates nothing: f runs against a
	// snapshot of the use list, so f may create nodes or rewire
	// continuations (mutations become visible to the *next* traversal, as
	// with Uses). Insertion order is node-creation order and therefore
	// deterministic wherever construction is — callers whose *output*
	// depends on visit order should use the gid-sorted Uses instead.
	EachUse(f func(Use) bool)
	// NumUses returns the number of recorded uses.
	NumUses() int
	// LastTouched returns the rewrite generation (World.RewriteGen) at
	// which this def was last modified or gained/lost a user. 0 means the
	// def has been untouched since creation.
	LastTouched() int64

	base() *defBase
}

// defBase carries the state shared by all def kinds.
type defBase struct {
	world *World
	gid   int
	typ   Type
	name  string
	ops   []Def
	// uses is the compact use list, in insertion (= registration) order,
	// guarded by the world's use stripe for this def's gid. Readers snapshot
	// the slice header under the stripe's read lock and iterate lock-free:
	// appends only touch indexes beyond every snapshot's length, and
	// removals replace the backing array instead of compacting in place
	// (copy-on-write), so a snapshot is immutable once taken.
	uses []Use
	// stamp is the rewrite generation of the last modification affecting
	// this def: its own body changing (continuations), or a user being
	// added/removed (which changes the use-closure any enclosing scope is
	// built from). See journal.go.
	stamp atomic.Int64
}

func (d *defBase) GID() int         { return d.gid }
func (d *defBase) Type() Type       { return d.typ }
func (d *defBase) Ops() []Def       { return d.ops }
func (d *defBase) Op(i int) Def     { return d.ops[i] }
func (d *defBase) NumOps() int      { return len(d.ops) }
func (d *defBase) Name() string     { return d.name }
func (d *defBase) SetName(n string) { d.name = n }
func (d *defBase) World() *World    { return d.world }
func (d *defBase) base() *defBase   { return d }

func (d *defBase) LastTouched() int64 { return d.stamp.Load() }

func (d *defBase) NumUses() int {
	mu := d.world.useStripe(d.gid)
	mu.RLock()
	n := len(d.uses)
	mu.RUnlock()
	return n
}

// snapshotUses returns the current use list without copying it. The result
// is safe to iterate without the lock (see the uses field invariant).
func (d *defBase) snapshotUses() []Use {
	mu := d.world.useStripe(d.gid)
	mu.RLock()
	uses := d.uses
	mu.RUnlock()
	return uses
}

func (d *defBase) EachUse(f func(Use) bool) {
	for _, u := range d.snapshotUses() {
		if !f(u) {
			return
		}
	}
}

func (d *defBase) Uses() []Use {
	uses := append([]Use(nil), d.snapshotUses()...)
	sort.Slice(uses, func(i, j int) bool {
		if uses[i].Def.GID() != uses[j].Def.GID() {
			return uses[i].Def.GID() < uses[j].Def.GID()
		}
		return uses[i].Index < uses[j].Index
	})
	return uses
}

// registerUses records user as a use of each of its operands. Use lists are
// shared mutable state (concurrent workers interning nodes may touch the
// same operand), so each append happens under the operand's use stripe.
//
// Gaining a user is a scope-relevant change to the operand — the use-closure
// of any scope containing it may grow — so every operand is stamped with one
// fresh rewrite generation (journal.go).
func registerUses(user Def) {
	w := user.base().world
	gen := w.nextStamp()
	for i, op := range user.Ops() {
		if op == nil {
			continue
		}
		b := op.base()
		b.stamp.Store(gen)
		mu := w.useStripe(b.gid)
		mu.Lock()
		b.uses = append(b.uses, Use{Def: user, Index: i})
		mu.Unlock()
	}
}

// unregisterUses removes user from the use lists of its operands. Removal
// is copy-on-write: live snapshots taken by concurrent readers keep seeing
// the old backing array, and insertion order is preserved.
//
// Losing a user can shrink the use-closure of an enclosing scope, so each
// operand is stamped just like in registerUses.
func unregisterUses(user Def) {
	w := user.base().world
	gen := w.nextStamp()
	for i, op := range user.Ops() {
		if op == nil {
			continue
		}
		b := op.base()
		b.stamp.Store(gen)
		mu := w.useStripe(b.gid)
		mu.Lock()
		for j, u := range b.uses {
			if u.Def == user && u.Index == i {
				next := make([]Use, 0, len(b.uses)-1)
				next = append(next, b.uses[:j]...)
				next = append(next, b.uses[j+1:]...)
				b.uses = next
				break
			}
		}
		mu.Unlock()
	}
}

// Literal is a constant value. Integer values (including bool) are stored
// in I; floating-point values in F. Bottom represents an undefined value of
// its type.
type Literal struct {
	defBase
	I      int64
	F      float64
	Bottom bool
}

// IsLit reports whether d is a (non-bottom) literal.
func IsLit(d Def) bool {
	l, ok := d.(*Literal)
	return ok && !l.Bottom
}

// LitValue returns the integer payload of d if d is a non-bottom literal.
func LitValue(d Def) (int64, bool) {
	if l, ok := d.(*Literal); ok && !l.Bottom {
		return l.I, true
	}
	return 0, false
}

// LitFloat returns the floating-point payload of d if d is a non-bottom
// literal of floating-point type.
func LitFloat(d Def) (float64, bool) {
	if l, ok := d.(*Literal); ok && !l.Bottom {
		if pt, ok := l.typ.(*PrimType); ok && pt.Tag.IsFloat() {
			return l.F, true
		}
	}
	return 0, false
}

func (l *Literal) String() string {
	if l.Bottom {
		return "⊥:" + l.typ.String()
	}
	if pt, ok := l.typ.(*PrimType); ok {
		switch {
		case pt.Tag == PrimBool:
			if l.I != 0 {
				return "true"
			}
			return "false"
		case pt.Tag.IsFloat():
			return fmt.Sprintf("%g:%s", l.F, pt)
		}
	}
	return fmt.Sprintf("%d:%s", l.I, l.typ)
}

// Param is a parameter of a continuation.
type Param struct {
	defBase
	cont  *Continuation
	index int
}

// Cont returns the continuation this param belongs to.
func (p *Param) Cont() *Continuation { return p.cont }

// Index returns the position of the param in its continuation.
func (p *Param) Index() int { return p.index }

func (p *Param) String() string {
	if p.name != "" {
		return p.name
	}
	return fmt.Sprintf("%s.p%d", p.cont.name, p.index)
}

// Intrinsic identifies compiler-known continuations.
type Intrinsic uint8

// Intrinsics.
const (
	IntrinsicNone Intrinsic = iota
	IntrinsicBranch
	IntrinsicPrintI64
	IntrinsicPrintF64
	IntrinsicPrintChar
)

func (i Intrinsic) String() string {
	switch i {
	case IntrinsicBranch:
		return "branch"
	case IntrinsicPrintI64:
		return "print_i64"
	case IntrinsicPrintF64:
		return "print_f64"
	case IntrinsicPrintChar:
		return "print_char"
	}
	return "none"
}

// Continuation is a function in continuation-passing style: it has
// parameters and, once Jump has been called, a body consisting of a callee
// (Op 0) and arguments (Ops 1..n). A continuation never returns; "returning"
// is jumping to the continuation received as the final parameter.
type Continuation struct {
	defBase
	params    []*Param
	extern    bool
	intrinsic Intrinsic
	// AlwaysInline marks continuations the partial evaluator must force.
	AlwaysInline bool
	// NoInline prevents the inliner and partial evaluator from touching it.
	NoInline bool
}

// Params returns the parameter defs.
func (c *Continuation) Params() []*Param { return c.params }

// NumParams returns the number of parameters.
func (c *Continuation) NumParams() int { return len(c.params) }

// Param returns parameter i.
func (c *Continuation) Param(i int) *Param { return c.params[i] }

// FnType returns the continuation's function type.
func (c *Continuation) FnType() *FnType { return c.typ.(*FnType) }

// IsExtern reports whether the continuation is externally visible (a root
// for reachability; never removed by cleanup).
func (c *Continuation) IsExtern() bool { return c.extern }

// SetExtern marks the continuation as externally visible.
func (c *Continuation) SetExtern(b bool) { c.extern = b }

// Intrinsic returns the intrinsic tag (IntrinsicNone for ordinary
// continuations).
func (c *Continuation) Intrinsic() Intrinsic { return c.intrinsic }

// IsIntrinsic reports whether the continuation is compiler-known.
func (c *Continuation) IsIntrinsic() bool { return c.intrinsic != IntrinsicNone }

// HasBody reports whether Jump has been called.
func (c *Continuation) HasBody() bool { return len(c.ops) != 0 }

// Callee returns the body's callee, or nil if the continuation has no body.
func (c *Continuation) Callee() Def {
	if len(c.ops) == 0 {
		return nil
	}
	return c.ops[0]
}

// Args returns the body's argument defs (empty if no body).
func (c *Continuation) Args() []Def {
	if len(c.ops) == 0 {
		return nil
	}
	return c.ops[1:]
}

// Arg returns body argument i.
func (c *Continuation) Arg(i int) Def { return c.ops[1+i] }

// NumArgs returns the number of body arguments.
func (c *Continuation) NumArgs() int {
	if len(c.ops) == 0 {
		return 0
	}
	return len(c.ops) - 1
}

// Jump sets the continuation's body to callee(args...). Any previous body
// is discarded (its uses are unregistered). Jumps to the branch intrinsic
// with a literal condition — or with identical targets — fold to a direct
// jump, so specialization collapses control flow as it rebuilds scopes.
func (c *Continuation) Jump(callee Def, args ...Def) {
	if callee == nil {
		panic("ir: Jump with nil callee")
	}
	if cc, ok := callee.(*Continuation); ok && cc.intrinsic == IntrinsicBranch && len(args) == 4 {
		if v, ok := LitValue(args[1]); ok {
			if v != 0 {
				c.Jump(args[2], args[0])
			} else {
				c.Jump(args[3], args[0])
			}
			return
		}
		if args[2] == args[3] {
			c.Jump(args[2], args[0])
			return
		}
	}
	for i, a := range args {
		if a == nil {
			panic(fmt.Sprintf("ir: Jump %s: nil argument %d", c.name, i))
		}
	}
	if len(c.ops) != 0 {
		unregisterUses(c)
	}
	c.ops = make([]Def, 0, 1+len(args))
	c.ops = append(c.ops, callee)
	c.ops = append(c.ops, args...)
	registerUses(c)
	c.world.touch(c)
	c.world.journal(c)
}

// Unset removes the continuation's body.
func (c *Continuation) Unset() {
	if len(c.ops) != 0 {
		unregisterUses(c)
		c.ops = nil
		c.world.touch(c)
		c.world.journal(c)
	}
}

// Branch sets the body to the branch intrinsic:
// branch(mem, cond, ifTrue, ifFalse) where ifTrue/ifFalse are fn(mem).
func (c *Continuation) Branch(mem, cond, ifTrue, ifFalse Def) {
	c.Jump(c.world.Branch(), mem, cond, ifTrue, ifFalse)
}

// RetParam returns the final parameter if it is a return continuation by
// the convention of IsRetContType, or nil.
func (c *Continuation) RetParam() *Param {
	if len(c.params) == 0 {
		return nil
	}
	last := c.params[len(c.params)-1]
	if IsRetContType(last.Type()) {
		return last
	}
	return nil
}

// IsReturning reports whether the continuation follows the returning-call
// convention (has a return continuation parameter).
func (c *Continuation) IsReturning() bool { return c.RetParam() != nil }

// IsBasicBlockLike reports whether all parameters are first-order, i.e. the
// continuation can be a basic block in control-flow form.
func (c *Continuation) IsBasicBlockLike() bool {
	for _, p := range c.params {
		if Order(p.Type()) != 0 {
			return false
		}
	}
	return true
}

func (c *Continuation) String() string { return c.name }
