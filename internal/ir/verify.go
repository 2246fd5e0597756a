package ir

import (
	"errors"
	"fmt"
)

// opShape is the operand contract of one primop kind: arity bounds and
// which operand positions must carry a memory token. The table is consulted
// by Verify for every reachable primop and by World.Rebuild before it
// constructs one; a kind missing from it is itself a verification error,
// and an exhaustiveness test keeps it in sync with the OpKind enum.
type opShape struct {
	minOps int
	maxOps int   // -1 = unbounded
	memIdx []int // operand indices that must be MemType
}

// admits reports whether n operands satisfy the arity bounds.
func (sh opShape) admits(n int) bool {
	return n >= sh.minOps && (sh.maxOps < 0 || n <= sh.maxOps)
}

// arity renders the arity bounds for error messages.
func (sh opShape) arity() string {
	if sh.maxOps < 0 {
		return fmt.Sprintf("%d or more", sh.minOps)
	}
	return fmt.Sprintf("%d..%d", sh.minOps, sh.maxOps)
}

var opShapes = map[OpKind]opShape{
	OpAdd: {minOps: 2, maxOps: 2}, OpSub: {minOps: 2, maxOps: 2},
	OpMul: {minOps: 2, maxOps: 2}, OpDiv: {minOps: 2, maxOps: 2},
	OpRem: {minOps: 2, maxOps: 2}, OpAnd: {minOps: 2, maxOps: 2},
	OpOr: {minOps: 2, maxOps: 2}, OpXor: {minOps: 2, maxOps: 2},
	OpShl: {minOps: 2, maxOps: 2}, OpShr: {minOps: 2, maxOps: 2},
	OpEq: {minOps: 2, maxOps: 2}, OpNe: {minOps: 2, maxOps: 2},
	OpLt: {minOps: 2, maxOps: 2}, OpLe: {minOps: 2, maxOps: 2},
	OpGt: {minOps: 2, maxOps: 2}, OpGe: {minOps: 2, maxOps: 2},
	OpSelect:  {minOps: 3, maxOps: 3},
	OpTuple:   {minOps: 0, maxOps: -1},
	OpExtract: {minOps: 2, maxOps: 2},
	OpInsert:  {minOps: 3, maxOps: 3},
	OpCast:    {minOps: 1, maxOps: 1},
	OpBitcast: {minOps: 1, maxOps: 1},
	OpSlot:    {minOps: 1, maxOps: 1, memIdx: []int{0}},
	OpAlloc:   {minOps: 2, maxOps: 2, memIdx: []int{0}},
	OpLoad:    {minOps: 2, maxOps: 2, memIdx: []int{0}},
	OpStore:   {minOps: 3, maxOps: 3, memIdx: []int{0}},
	OpLea:     {minOps: 2, maxOps: 2},
	OpALen:    {minOps: 1, maxOps: 1},
	OpGlobal:  {minOps: 1, maxOps: 1},
	OpClosure: {minOps: 1, maxOps: -1},
	OpRun:     {minOps: 1, maxOps: 1},
	OpHlt:     {minOps: 1, maxOps: 1},
}

// Verify checks structural and type sanity of the whole world:
//
//   - every body's callee has function type and argument types match the
//     callee's parameter types,
//   - branch intrinsic calls are well-formed,
//   - operand slices contain no nil entries and match the kind's opShapes
//     contract (arity, memory-token positions),
//   - params point back to their continuation.
//
// It returns a joined error describing every violation found.
func Verify(w *World) error {
	var errs []error
	for _, c := range w.Continuations() {
		if err := verifyCont(c); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

func verifyCont(c *Continuation) error {
	for i, p := range c.params {
		if p.cont != c || p.index != i {
			return fmt.Errorf("ir: %s: param %d broken back-link", c.name, i)
		}
	}
	if !c.HasBody() {
		return nil
	}
	if c.IsIntrinsic() {
		return fmt.Errorf("ir: %s: intrinsic continuation must not have a body", c.name)
	}
	callee := c.Callee()
	if callee == nil {
		return fmt.Errorf("ir: %s: nil callee", c.name)
	}
	ft, ok := callee.Type().(*FnType)
	if !ok {
		return fmt.Errorf("ir: %s: callee %s has non-function type %s", c.name, debugName(callee), callee.Type())
	}
	if len(ft.Params) != c.NumArgs() {
		return fmt.Errorf("ir: %s: callee %s expects %d args, got %d",
			c.name, debugName(callee), len(ft.Params), c.NumArgs())
	}
	for i, a := range c.Args() {
		if a == nil {
			return fmt.Errorf("ir: %s: nil argument %d", c.name, i)
		}
		if a.Type() != ft.Params[i] {
			return fmt.Errorf("ir: %s: argument %d has type %s, callee %s expects %s",
				c.name, i, a.Type(), debugName(callee), ft.Params[i])
		}
	}
	if cc, ok := callee.(*Continuation); ok && cc.Intrinsic() == IntrinsicBranch {
		if err := verifyBranch(c); err != nil {
			return err
		}
	}
	return verifyOps(c)
}

// verifyBranch checks the parts of a branch call the generic type check
// cannot see: ⊥ literals type-check against any parameter, but a branch
// whose condition or targets are ⊥ (or the branch intrinsic itself) has no
// executable meaning and would crash the code generator.
func verifyBranch(c *Continuation) error {
	if l, ok := c.Arg(1).(*Literal); ok && l.Bottom {
		return fmt.Errorf("ir: %s: branch condition is ⊥", c.name)
	}
	for _, i := range []int{2, 3} {
		switch t := c.Arg(i).(type) {
		case *Literal:
			return fmt.Errorf("ir: %s: branch target %d is the literal %s", c.name, i, t)
		case *Continuation:
			if t.IsIntrinsic() {
				return fmt.Errorf("ir: %s: branch target %d is the intrinsic %s", c.name, i, t.Name())
			}
		}
	}
	return nil
}

func verifyOps(c *Continuation) error {
	seen := map[int]bool{}
	var walk func(d Def) error
	walk = func(d Def) error {
		p, ok := d.(*PrimOp)
		if !ok || seen[p.gid] {
			return nil
		}
		seen[p.gid] = true
		for i, op := range p.Ops() {
			if op == nil {
				return fmt.Errorf("ir: primop %s in %s: nil operand %d", p.kind, c.name, i)
			}
			if err := walk(op); err != nil {
				return err
			}
		}
		return verifyShape(c, p)
	}
	for _, op := range c.Ops() {
		if err := walk(op); err != nil {
			return err
		}
	}
	return nil
}

// verifyShape checks p against the opShapes contract for its kind.
func verifyShape(c *Continuation, p *PrimOp) error {
	sh, ok := opShapes[p.kind]
	if !ok {
		return fmt.Errorf("ir: primop %s in %s: kind missing from opShapes table", p.kind, c.name)
	}
	if !sh.admits(p.NumOps()) {
		return fmt.Errorf("ir: primop %s in %s: %d operands (want %s)",
			p.kind, c.name, p.NumOps(), sh.arity())
	}
	for _, i := range sh.memIdx {
		if op := p.Op(i); !IsMemType(op.Type()) {
			return fmt.Errorf("ir: primop %s in %s: operand %d has type %s, want mem",
				p.kind, c.name, i, op.Type())
		}
	}
	return nil
}

// debugName renders a def for error messages.
func debugName(d Def) string {
	switch d := d.(type) {
	case *Literal:
		return d.String()
	case *Param:
		return d.String()
	case *Continuation:
		return d.Name()
	case *PrimOp:
		return fmt.Sprintf("%s_%d", d.kind, d.GID())
	}
	return "?"
}
