// Package transform implements the Thorin IR transformations of the paper:
// lambda mangling (the generalization of inlining, lambda lifting, lambda
// dropping and tail-recursion specialization), conversion to control-flow
// form, slot promotion (SSA construction as an IR transformation), partial
// evaluation, closure conversion and cleanup.
package transform

import (
	"fmt"

	"thorin/internal/ir"
)

// Rebuild reconstructs primop p with new operands through the World's
// smart constructors, so folding and hash-consing apply to the copy.
// Slots, allocs and globals copied this way get fresh identity. An operand
// kind Rebuild does not know how to reconstruct yields an error — a
// PassError-compatible condition that fails the running pass by name rather
// than tripping the pass manager's panic isolator.
func Rebuild(w *ir.World, p *ir.PrimOp, ops []ir.Def) (ir.Def, error) {
	k := p.OpKind()
	switch {
	case k.IsArith():
		return w.Arith(k, ops[0], ops[1]), nil
	case k.IsCmp():
		return w.Cmp(k, ops[0], ops[1]), nil
	}
	switch k {
	case ir.OpSelect:
		return w.Select(ops[0], ops[1], ops[2]), nil
	case ir.OpTuple:
		return w.Tuple(ops...), nil
	case ir.OpExtract:
		return w.Extract(ops[0], ops[1]), nil
	case ir.OpInsert:
		return w.Insert(ops[0], ops[1], ops[2]), nil
	case ir.OpCast:
		return w.Cast(p.Type().(*ir.PrimType), ops[0]), nil
	case ir.OpBitcast:
		return w.Bitcast(p.Type(), ops[0]), nil
	case ir.OpSlot:
		pointee := p.Type().(*ir.TupleType).ElemTypes[1].(*ir.PtrType).Pointee
		return w.Slot(ops[0], pointee), nil
	case ir.OpAlloc:
		elem := p.Type().(*ir.TupleType).ElemTypes[1].(*ir.PtrType).Pointee.(*ir.IndefArrayType).Elem
		return w.Alloc(ops[0], elem, ops[1]), nil
	case ir.OpLoad:
		return w.Load(ops[0], ops[1]), nil
	case ir.OpStore:
		return w.Store(ops[0], ops[1], ops[2]), nil
	case ir.OpLea:
		return w.Lea(ops[0], ops[1]), nil
	case ir.OpALen:
		return w.ALen(ops[0]), nil
	case ir.OpGlobal:
		// Globals are top-level entities; a rewrite never clones them.
		return p, nil
	case ir.OpClosure:
		return w.Closure(p.Type().(*ir.FnType), ops[0], ops[1:]...), nil
	case ir.OpRun:
		return w.Run(ops[0]), nil
	case ir.OpHlt:
		return w.Hlt(ops[0]), nil
	}
	return nil, fmt.Errorf("transform: cannot rebuild primop %s (kind %d)", k, int(k))
}

// ReplaceUses rewrites every (transitive) user of old to refer to new
// instead: continuation bodies are re-jumped in place, primop users are
// rebuilt through the world constructors and their users processed in turn.
func ReplaceUses(w *ir.World, old, new ir.Def) error {
	if old == new {
		return nil
	}
	type repl struct{ old, new ir.Def }
	work := []repl{{old, new}}
	replaced := map[ir.Def]ir.Def{old: new}

	resolve := func(d ir.Def) ir.Def {
		for {
			n, ok := replaced[d]
			if !ok || n == d {
				return d
			}
			d = n
		}
	}

	for len(work) > 0 {
		r := work[len(work)-1]
		work = work[:len(work)-1]
		for _, u := range r.old.Uses() {
			switch user := u.Def.(type) {
			case *ir.Continuation:
				ops := user.Ops()
				callee := resolve(ops[0])
				args := make([]ir.Def, len(ops)-1)
				for i, a := range ops[1:] {
					args[i] = resolve(a)
				}
				user.Jump(callee, args...)
			case *ir.PrimOp:
				if _, done := replaced[user]; done {
					continue
				}
				ops := make([]ir.Def, user.NumOps())
				for i, a := range user.Ops() {
					ops[i] = resolve(a)
				}
				nu, err := Rebuild(w, user, ops)
				if err != nil {
					return err
				}
				if nu != user {
					replaced[user] = nu
					work = append(work, repl{user, nu})
				}
			}
		}
	}
	return nil
}
