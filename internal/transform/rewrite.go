// Package transform implements the Thorin IR transformations of the paper:
// lambda mangling (the generalization of inlining, lambda lifting, lambda
// dropping and tail-recursion specialization), conversion to control-flow
// form, slot promotion (SSA construction as an IR transformation), partial
// evaluation, closure conversion and cleanup.
package transform

import "thorin/internal/ir"

// Rebuild reconstructs primop p with new operands through the World's
// smart constructors (ir.World.Rebuild), so folding and hash-consing apply
// to the copy. Slots and allocs copied this way get fresh identity; globals
// are top-level entities, and a rewrite never clones them. A kind the world
// cannot rebuild yields an error — a PassError-compatible condition that
// fails the running pass by name rather than tripping the pass manager's
// panic isolator.
func Rebuild(w *ir.World, p *ir.PrimOp, ops []ir.Def) (ir.Def, error) {
	if p.OpKind() == ir.OpGlobal {
		return p, nil
	}
	return w.Rebuild(p.OpKind(), p.Type(), ops)
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
