package link

import (
	"fmt"

	"thorin/internal/ir"
)

// copier clones defs from per-module source worlds into the destination
// world through its smart constructors, so hash-consing and folding apply
// across module boundaries. Identity nodes (slots, allocs, globals) are
// cloned exactly once per source node — the memo map preserves their
// uniqueness.
type copier struct {
	dst     *ir.World
	contMap map[*ir.Continuation]*ir.Continuation
	defMap  map[ir.Def]ir.Def
	typMap  map[ir.Type]ir.Type
}

func newCopier(dst *ir.World) *copier {
	return &copier{
		dst:     dst,
		contMap: map[*ir.Continuation]*ir.Continuation{},
		defMap:  map[ir.Def]ir.Def{},
		typMap:  map[ir.Type]ir.Type{},
	}
}

// declare creates the destination twin of a source continuation (header
// only; the body is copied by copyBody once all continuations exist).
func (cp *copier) declare(c *ir.Continuation) *ir.Continuation {
	if d, ok := cp.contMap[c]; ok {
		return d
	}
	d := cp.dst.Continuation(cp.copyType(c.Type()).(*ir.FnType), c.Name())
	d.SetExtern(c.IsExtern())
	d.AlwaysInline = c.AlwaysInline
	d.NoInline = c.NoInline
	for i := 0; i < c.NumParams(); i++ {
		d.Param(i).SetName(c.Param(i).Name())
	}
	cp.contMap[c] = d
	cp.defMap[c] = d
	return d
}

// copyBody clones c's terminator (and, transitively, every def feeding it)
// onto c's destination twin.
func (cp *copier) copyBody(c *ir.Continuation) error {
	dst, ok := cp.contMap[c]
	if !ok {
		return fmt.Errorf("link: body copy of undeclared continuation %q", c.Name())
	}
	ops := c.Ops()
	callee, err := cp.copyDef(ops[0])
	if err != nil {
		return err
	}
	args := make([]ir.Def, len(ops)-1)
	for i, a := range ops[1:] {
		if args[i], err = cp.copyDef(a); err != nil {
			return err
		}
	}
	dst.Jump(callee, args...)
	return nil
}

func (cp *copier) copyDef(d ir.Def) (ir.Def, error) {
	if n, ok := cp.defMap[d]; ok {
		return n, nil
	}
	var n ir.Def
	switch d := d.(type) {
	case *ir.Literal:
		n = cp.copyLiteral(d)
	case *ir.Param:
		cont, ok := cp.contMap[d.Cont()]
		if !ok {
			// A stub's param can only be referenced from the stub's own
			// (nonexistent) body, so this indicates a broken input world.
			return nil, fmt.Errorf("link: parameter of undeclared continuation %q", d.Cont().Name())
		}
		n = cont.Param(d.Index())
	case *ir.Continuation:
		if d.IsIntrinsic() {
			n = cp.intrinsic(d)
			break
		}
		// Non-intrinsic continuations (including import stubs, which map
		// to their trampoline or target) are all pre-declared.
		return nil, fmt.Errorf("link: reference to undeclared continuation %q", d.Name())
	case *ir.PrimOp:
		ops := make([]ir.Def, d.NumOps())
		for i, op := range d.Ops() {
			cop, err := cp.copyDef(op)
			if err != nil {
				return nil, err
			}
			ops[i] = cop
		}
		// The source node's type is interned in the source world; the
		// destination reads only its re-interned twin. Unlike a rewrite,
		// the copy clones globals.
		var err error
		if n, err = cp.dst.Rebuild(d.OpKind(), cp.copyType(d.Type()), ops); err != nil {
			return nil, err
		}
		if d.Name() != "" {
			n.SetName(d.Name())
		}
	default:
		return nil, fmt.Errorf("link: cannot copy def %T", d)
	}
	cp.defMap[d] = n
	return n, nil
}

func (cp *copier) copyLiteral(l *ir.Literal) ir.Def {
	ty := cp.copyType(l.Type())
	if l.Bottom {
		return cp.dst.Bottom(ty)
	}
	tag := ty.(*ir.PrimType).Tag
	switch {
	case tag == ir.PrimBool:
		return cp.dst.LitBool(l.I != 0)
	case tag.IsFloat():
		return cp.dst.LitFloat(tag, l.F)
	default:
		return cp.dst.LitInt(tag, l.I)
	}
}

func (cp *copier) intrinsic(c *ir.Continuation) *ir.Continuation {
	switch c.Intrinsic() {
	case ir.IntrinsicBranch:
		return cp.dst.Branch()
	case ir.IntrinsicPrintI64:
		return cp.dst.PrintI64()
	case ir.IntrinsicPrintF64:
		return cp.dst.PrintF64()
	case ir.IntrinsicPrintChar:
		return cp.dst.PrintChar()
	}
	panic(fmt.Sprintf("link: unknown intrinsic %s", c.Intrinsic()))
}

// copyType re-interns a source-world type in the destination world.
func (cp *copier) copyType(t ir.Type) ir.Type {
	if n, ok := cp.typMap[t]; ok {
		return n
	}
	var n ir.Type
	switch t := t.(type) {
	case *ir.PrimType:
		n = cp.dst.PrimType(t.Tag)
	case *ir.MemType:
		n = cp.dst.MemType()
	case *ir.FrameType:
		n = cp.dst.FrameType()
	case *ir.FnType:
		params := make([]ir.Type, len(t.Params))
		for i, p := range t.Params {
			params[i] = cp.copyType(p)
		}
		n = cp.dst.FnType(params...)
	case *ir.TupleType:
		elems := make([]ir.Type, len(t.ElemTypes))
		for i, e := range t.ElemTypes {
			elems[i] = cp.copyType(e)
		}
		n = cp.dst.TupleType(elems...)
	case *ir.PtrType:
		n = cp.dst.PtrType(cp.copyType(t.Pointee))
	case *ir.ArrayType:
		n = cp.dst.ArrayType(t.Len, cp.copyType(t.Elem))
	case *ir.IndefArrayType:
		n = cp.dst.IndefArrayType(cp.copyType(t.Elem))
	default:
		panic(fmt.Sprintf("link: cannot copy type %s", t))
	}
	cp.typMap[t] = n
	return n
}
