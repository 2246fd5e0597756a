package impala

import (
	"fmt"

	"thorin/internal/ir"
)

// Compile parses, checks and lowers src into a fresh Thorin world.
//
// Lowering follows the paper's recipe for the Impala frontend:
//
//   - every function becomes a continuation taking (mem, params..., ret),
//   - control flow becomes fresh continuations and jumps (the branch
//     intrinsic for conditionals),
//   - mutable variables become stack slots threaded through the memory
//     token — the mem2reg transformation later reconstructs SSA form,
//   - lambdas become first-class continuations; whether they cost anything
//     at runtime is decided entirely by the optimizer.
func Compile(src string) (*ir.World, error) {
	return compile(src, false)
}

// CompileNoCons is Compile with hash-consing disabled — the construction
// ablation: without global value numbering, structurally equal primops are
// materialized once per occurrence.
func CompileNoCons(src string) (*ir.World, error) {
	return compile(src, true)
}

func compile(src string, noCons bool) (*ir.World, error) {
	prog, err := Parse(src)
	if err != nil {
		return nil, err
	}
	if err := Check(prog); err != nil {
		return nil, err
	}
	return emit(prog, nil, noCons)
}

// EmitProgram lowers a checked program into a fresh world.
func EmitProgram(prog *Program) (*ir.World, error) {
	return emit(prog, nil, false)
}

// emit lowers a checked program or module unit into a fresh world.
// exports is a module's export surface (nil for a program): its
// functions become extern roots. A module's imports become bodyless
// extern stubs; a checked program has none.
func emit(prog *Program, exports map[string]ModExport, noCons bool) (*ir.World, error) {
	em := &emitter{
		w:       ir.NewWorld(),
		fnCont:  map[string]*ir.Continuation{},
		fnSig:   map[string]*Fn{},
		statics: map[string]ir.Def{},
	}
	em.w.NoCons = noCons
	for _, sd := range prog.Statics {
		init, err := em.staticInit(sd.Init)
		if err != nil {
			return nil, err
		}
		g := em.w.Global(init)
		g.SetName(sd.Name)
		em.statics[sd.Name] = g
	}
	c := &checker{funcs: map[string]*Fn{}}
	for _, im := range prog.Imports {
		sig, err := c.importSig(im)
		if err != nil {
			return nil, err
		}
		em.fnSig[im.Name] = sig
		stub := em.w.Continuation(em.cpsFnType(sig), im.Name)
		stub.SetExtern(true)
		em.fnCont[im.Name] = stub
	}
	for _, f := range prog.Funcs {
		sig, err := c.funcSig(f)
		if err != nil {
			return nil, err
		}
		em.fnSig[f.Name] = sig
		cont := em.w.Continuation(em.cpsFnType(sig), f.Name)
		_, exported := exports[f.Name]
		cont.SetExtern(f.Extern || exported)
		cont.AlwaysInline = f.ForceInline
		em.fnCont[f.Name] = cont
	}
	for _, f := range prog.Funcs {
		if err := em.emitFunc(f); err != nil {
			return nil, err
		}
	}
	if err := ir.Verify(em.w); err != nil {
		return nil, fmt.Errorf("impala: internal error: emitted invalid IR: %w", err)
	}
	return em.w, nil
}

type binding struct {
	def ir.Def // the value itself, or the slot pointer for mutable vars
	mut bool
	ty  Type
}

type loopTargets struct {
	brk  *ir.Continuation // break target, fn(mem)
	cont *ir.Continuation // continue target, fn(mem)
}

type emitter struct {
	w       *ir.World
	fnCont  map[string]*ir.Continuation
	fnSig   map[string]*Fn
	statics map[string]ir.Def // global cell pointers

	// Per-function state.
	cur      *ir.Continuation
	mem      ir.Def
	scopes   []map[string]binding
	retParam ir.Def
	retTy    Type
	loops    []loopTargets
	tmp      int
}

// irType maps a frontend type onto a Thorin type.
func (e *emitter) irType(t Type) ir.Type {
	switch t := t.(type) {
	case *Prim:
		switch t.Kind {
		case PrimI64:
			return e.w.PrimType(ir.PrimI64)
		case PrimF64:
			return e.w.PrimType(ir.PrimF64)
		default:
			return e.w.BoolType()
		}
	case *Unit:
		return e.w.UnitType()
	case *Array:
		return e.w.PtrType(e.w.IndefArrayType(e.irType(t.Elem)))
	case *Tuple:
		elems := make([]ir.Type, len(t.Elems))
		for i, el := range t.Elems {
			elems[i] = e.irType(el)
		}
		return e.w.TupleType(elems...)
	case *Fn:
		return e.cpsFnType(t)
	}
	panic(fmt.Sprintf("impala: cannot map type %v", t))
}

// cpsFnType converts fn(P...) -> R into fn(mem, P..., fn(mem, R)).
func (e *emitter) cpsFnType(f *Fn) *ir.FnType {
	params := []ir.Type{e.w.MemType()}
	for _, p := range f.Params {
		params = append(params, e.irType(p))
	}
	params = append(params, e.retContType(f.Ret))
	return e.w.FnType(params...)
}

// retContType is fn(mem) for unit results, fn(mem, R) otherwise.
func (e *emitter) retContType(ret Type) *ir.FnType {
	if Equal(ret, TyUnit) {
		return e.w.FnType(e.w.MemType())
	}
	return e.w.FnType(e.w.MemType(), e.irType(ret))
}

func (e *emitter) name(prefix string) string {
	e.tmp++
	return fmt.Sprintf("%s_%d", prefix, e.tmp)
}

func (e *emitter) push() { e.scopes = append(e.scopes, map[string]binding{}) }
func (e *emitter) pop()  { e.scopes = e.scopes[:len(e.scopes)-1] }

func (e *emitter) bind(name string, b binding) {
	e.scopes[len(e.scopes)-1][name] = b
}

func (e *emitter) lookup(name string) (binding, bool) {
	for i := len(e.scopes) - 1; i >= 0; i-- {
		if b, ok := e.scopes[i][name]; ok {
			return b, true
		}
	}
	return binding{}, false
}

// lookupPtr resolves an assignable name to its cell pointer (a mutable
// local's slot or a static global).
func (e *emitter) lookupPtr(name string) (ir.Def, bool) {
	if b, ok := e.lookup(name); ok && b.mut {
		return b.def, true
	}
	if g, ok := e.statics[name]; ok {
		return g, true
	}
	return nil, false
}

// staticInit folds a (possibly negated) literal initializer to a constant.
func (e *emitter) staticInit(x Expr) (ir.Def, error) {
	switch x := x.(type) {
	case *IntLit:
		return e.w.LitI64(x.Value), nil
	case *FloatLit:
		return e.w.LitF64(x.Value), nil
	case *BoolLit:
		return e.w.LitBool(x.Value), nil
	case *UnaryExpr:
		v, err := e.staticInit(x.X)
		if err != nil {
			return nil, err
		}
		if l, ok := v.(*ir.Literal); ok {
			if Equal(x.Ty(), TyF64) {
				return e.w.LitF64(-l.F), nil
			}
			return e.w.LitI64(-l.I), nil
		}
	}
	return nil, errf(x.Span(), "static initializer must be a literal")
}

// deadBlock replaces the current block with an unreachable one (after
// return/break/continue); everything emitted into it is swept by cleanup.
func (e *emitter) deadBlock() {
	nb := e.w.BasicBlock(e.name("dead"))
	e.cur = nb
	e.mem = nb.Param(0)
}

func (e *emitter) emitFunc(f *FuncDecl) error {
	sig := e.fnSig[f.Name]
	cont := e.fnCont[f.Name]
	e.cur = cont
	e.mem = cont.Param(0)
	e.retParam = cont.Param(cont.NumParams() - 1)
	e.retTy = sig.Ret
	e.scopes = nil
	e.loops = nil
	e.push()
	for i, p := range f.Params {
		cont.Param(i + 1).SetName(p.Name)
		e.bind(p.Name, binding{def: cont.Param(i + 1), ty: sig.Params[i]})
	}
	v, err := e.emitExpr(f.Body)
	if err != nil {
		return err
	}
	e.emitReturn(sig.Ret, f.Body.Ty(), v)
	e.pop()
	return nil
}

// emitReturn jumps the current block to the return continuation.
func (e *emitter) emitReturn(retTy, valTy Type, v ir.Def) {
	if Equal(retTy, TyUnit) {
		e.cur.Jump(e.retParam, e.mem)
		return
	}
	if valTy == nil || !Equal(valTy, retTy) {
		v = e.w.Bottom(e.irType(retTy)) // diverging body: unreachable
	}
	e.cur.Jump(e.retParam, e.mem, v)
}

func (e *emitter) unit() ir.Def { return e.w.Tuple() }

func (e *emitter) emitStmt(s Stmt) error {
	switch s := s.(type) {
	case *LetStmt:
		v, err := e.emitExpr(s.Init)
		if err != nil {
			return err
		}
		ty := s.Init.Ty()
		if !s.Mut {
			v.SetName(s.Name)
			e.bind(s.Name, binding{def: v, ty: ty})
			return nil
		}
		sl := e.w.Slot(e.mem, e.irType(ty))
		ptr := e.w.ExtractAt(sl, 1)
		ptr.SetName(s.Name + ".slot")
		e.mem = e.w.Store(e.w.ExtractAt(sl, 0), ptr, v)
		e.bind(s.Name, binding{def: ptr, mut: true, ty: ty})
		return nil

	case *AssignStmt:
		switch target := s.Target.(type) {
		case *Ident:
			ptr, ok := e.lookupPtr(target.Name)
			if !ok {
				return errf(s.Pos, "cannot assign to %q", target.Name)
			}
			v, err := e.emitExpr(s.Value)
			if err != nil {
				return err
			}
			e.mem = e.w.Store(e.mem, ptr, v)
			return nil
		case *IndexExpr:
			arr, err := e.emitExpr(target.Arr)
			if err != nil {
				return err
			}
			idx, err := e.emitExpr(target.Idx)
			if err != nil {
				return err
			}
			v, err := e.emitExpr(s.Value)
			if err != nil {
				return err
			}
			e.mem = e.w.Store(e.mem, e.w.Lea(arr, idx), v)
			return nil
		}
		return errf(s.Pos, "bad assignment target")

	case *ExprStmt:
		_, err := e.emitExpr(s.X)
		return err

	case *WhileStmt:
		head := e.w.Continuation(e.w.FnType(e.w.MemType()), e.name("while.head"))
		e.cur.Jump(head, e.mem)
		e.cur, e.mem = head, head.Param(0)
		cond, err := e.emitExpr(s.Cond)
		if err != nil {
			return err
		}
		body := e.w.BasicBlock(e.name("while.body"))
		exit := e.w.BasicBlock(e.name("while.exit"))
		e.cur.Branch(e.mem, cond, body, exit)

		e.loops = append(e.loops, loopTargets{brk: exit, cont: head})
		e.cur, e.mem = body, body.Param(0)
		if _, err := e.emitExpr(s.Body); err != nil {
			return err
		}
		e.cur.Jump(head, e.mem)
		e.loops = e.loops[:len(e.loops)-1]

		e.cur, e.mem = exit, exit.Param(0)
		return nil

	case *ForStmt:
		lo, err := e.emitExpr(s.Lo)
		if err != nil {
			return err
		}
		hi, err := e.emitExpr(s.Hi)
		if err != nil {
			return err
		}
		i64 := e.w.PrimType(ir.PrimI64)
		head := e.w.Continuation(e.w.FnType(e.w.MemType(), i64), e.name("for.head"))
		head.Param(1).SetName(s.Name)
		e.cur.Jump(head, e.mem, lo)
		i := head.Param(1)

		body := e.w.BasicBlock(e.name("for.body"))
		exit := e.w.BasicBlock(e.name("for.exit"))
		step := e.w.BasicBlock(e.name("for.step"))
		head.Branch(head.Param(0), e.w.Cmp(ir.OpLt, i, hi), body, exit)
		step.Jump(head, step.Param(0), e.w.Arith(ir.OpAdd, i, e.w.LitI64(1)))

		e.loops = append(e.loops, loopTargets{brk: exit, cont: step})
		e.push()
		e.bind(s.Name, binding{def: i, ty: TyI64})
		e.cur, e.mem = body, body.Param(0)
		if _, err := e.emitExpr(s.Body); err != nil {
			return err
		}
		e.cur.Jump(step, e.mem)
		e.pop()
		e.loops = e.loops[:len(e.loops)-1]

		e.cur, e.mem = exit, exit.Param(0)
		return nil

	case *ReturnStmt:
		var v ir.Def = e.unit()
		valTy := Type(TyUnit)
		if s.X != nil {
			var err error
			v, err = e.emitExpr(s.X)
			if err != nil {
				return err
			}
			valTy = s.X.Ty()
		}
		e.emitReturn(e.retTy, valTy, v)
		e.deadBlock()
		return nil

	case *BreakStmt:
		e.cur.Jump(e.loops[len(e.loops)-1].brk, e.mem)
		e.deadBlock()
		return nil

	case *ContinueStmt:
		e.cur.Jump(e.loops[len(e.loops)-1].cont, e.mem)
		e.deadBlock()
		return nil
	}
	return fmt.Errorf("impala: bad statement %T", s)
}

var binOpKind = map[string]ir.OpKind{
	"+": ir.OpAdd, "-": ir.OpSub, "*": ir.OpMul, "/": ir.OpDiv, "%": ir.OpRem,
	"&": ir.OpAnd, "|": ir.OpOr, "^": ir.OpXor, "<<": ir.OpShl, ">>": ir.OpShr,
	"==": ir.OpEq, "!=": ir.OpNe, "<": ir.OpLt, "<=": ir.OpLe,
	">": ir.OpGt, ">=": ir.OpGe,
}

func (e *emitter) emitExpr(x Expr) (ir.Def, error) {
	switch x := x.(type) {
	case *IntLit:
		return e.w.LitI64(x.Value), nil
	case *FloatLit:
		return e.w.LitF64(x.Value), nil
	case *BoolLit:
		return e.w.LitBool(x.Value), nil

	case *Ident:
		if b, ok := e.lookup(x.Name); ok {
			if !b.mut {
				return b.def, nil
			}
			ld := e.w.Load(e.mem, b.def)
			e.mem = e.w.ExtractAt(ld, 0)
			return e.w.ExtractAt(ld, 1), nil
		}
		if g, ok := e.statics[x.Name]; ok {
			ld := e.w.Load(e.mem, g)
			e.mem = e.w.ExtractAt(ld, 0)
			return e.w.ExtractAt(ld, 1), nil
		}
		if f, ok := e.fnCont[x.Name]; ok {
			return f, nil
		}
		return nil, errf(x.Span(), "undefined name %q", x.Name)

	case *UnaryExpr:
		v, err := e.emitExpr(x.X)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case "-":
			if Equal(x.Ty(), TyF64) {
				return e.w.Arith(ir.OpSub, e.w.LitF64(0), v), nil
			}
			return e.w.Arith(ir.OpSub, e.w.LitI64(0), v), nil
		default: // "!"
			return e.w.Arith(ir.OpXor, v, e.w.LitBool(true)), nil
		}

	case *BinaryExpr:
		if x.Op == "&&" || x.Op == "||" {
			return e.emitShortCircuit(x)
		}
		l, err := e.emitExpr(x.L)
		if err != nil {
			return nil, err
		}
		r, err := e.emitExpr(x.R)
		if err != nil {
			return nil, err
		}
		kind := binOpKind[x.Op]
		if kind.IsCmp() {
			return e.w.Cmp(kind, l, r), nil
		}
		return e.w.Arith(kind, l, r), nil

	case *CallExpr:
		return e.emitCall(x)

	case *IfExpr:
		return e.emitIf(x)

	case *BlockExpr:
		e.push()
		defer e.pop()
		for _, s := range x.Stmts {
			if err := e.emitStmt(s); err != nil {
				return nil, err
			}
		}
		if x.Tail == nil {
			return e.unit(), nil
		}
		return e.emitExpr(x.Tail)

	case *LambdaExpr:
		return e.emitLambda(x)

	case *ArrayLit:
		return e.emitArrayLit(x)

	case *IndexExpr:
		arr, err := e.emitExpr(x.Arr)
		if err != nil {
			return nil, err
		}
		idx, err := e.emitExpr(x.Idx)
		if err != nil {
			return nil, err
		}
		ld := e.w.Load(e.mem, e.w.Lea(arr, idx))
		e.mem = e.w.ExtractAt(ld, 0)
		return e.w.ExtractAt(ld, 1), nil

	case *TupleLit:
		elems := make([]ir.Def, len(x.Elems))
		for i, el := range x.Elems {
			v, err := e.emitExpr(el)
			if err != nil {
				return nil, err
			}
			elems[i] = v
		}
		return e.w.Tuple(elems...), nil

	case *FieldExpr:
		v, err := e.emitExpr(x.X)
		if err != nil {
			return nil, err
		}
		return e.w.ExtractAt(v, x.Index), nil

	case *CastExpr:
		v, err := e.emitExpr(x.X)
		if err != nil {
			return nil, err
		}
		return e.w.Cast(e.irType(x.Ty()).(*ir.PrimType), v), nil
	}
	return nil, fmt.Errorf("impala: bad expression %T", x)
}

// emitShortCircuit lowers && and || into branches.
func (e *emitter) emitShortCircuit(x *BinaryExpr) (ir.Def, error) {
	l, err := e.emitExpr(x.L)
	if err != nil {
		return nil, err
	}
	rhsB := e.w.BasicBlock(e.name("sc.rhs"))
	shortB := e.w.BasicBlock(e.name("sc.short"))
	join := e.w.Continuation(e.w.FnType(e.w.MemType(), e.w.BoolType()), e.name("sc.join"))

	if x.Op == "&&" {
		e.cur.Branch(e.mem, l, rhsB, shortB)
		shortB.Jump(join, shortB.Param(0), e.w.LitBool(false))
	} else {
		e.cur.Branch(e.mem, l, shortB, rhsB)
		shortB.Jump(join, shortB.Param(0), e.w.LitBool(true))
	}
	e.cur, e.mem = rhsB, rhsB.Param(0)
	r, err := e.emitExpr(x.R)
	if err != nil {
		return nil, err
	}
	e.cur.Jump(join, e.mem, r)
	e.cur, e.mem = join, join.Param(0)
	return join.Param(1), nil
}

// emitIf lowers a conditional expression; both arms jump a join
// continuation carrying the result value.
func (e *emitter) emitIf(x *IfExpr) (ir.Def, error) {
	cond, err := e.emitExpr(x.Cond)
	if err != nil {
		return nil, err
	}
	thenB := e.w.BasicBlock(e.name("if.then"))
	elseB := e.w.BasicBlock(e.name("if.else"))
	e.cur.Branch(e.mem, cond, thenB, elseB)

	resTy := x.Ty()
	unit := Equal(resTy, TyUnit)
	var join *ir.Continuation
	if unit {
		join = e.w.Continuation(e.w.FnType(e.w.MemType()), e.name("if.join"))
	} else {
		join = e.w.Continuation(e.w.FnType(e.w.MemType(), e.irType(resTy)), e.name("if.join"))
	}

	emitArm := func(entry *ir.Continuation, arm Expr) error {
		e.cur, e.mem = entry, entry.Param(0)
		var v ir.Def = e.unit()
		var armTy Type = TyUnit
		if arm != nil {
			var err error
			v, err = e.emitExpr(arm)
			if err != nil {
				return err
			}
			armTy = arm.Ty()
		}
		if unit {
			e.cur.Jump(join, e.mem)
			return nil
		}
		if !Equal(armTy, resTy) {
			v = e.w.Bottom(e.irType(resTy)) // diverging arm, unreachable
		}
		e.cur.Jump(join, e.mem, v)
		return nil
	}
	if err := emitArm(thenB, x.Then); err != nil {
		return nil, err
	}
	if err := emitArm(elseB, x.Else); err != nil {
		return nil, err
	}

	e.cur, e.mem = join, join.Param(0)
	if unit {
		return e.unit(), nil
	}
	return join.Param(1), nil
}

// emitCall lowers builtins and general calls. A general call jumps the
// callee with a fresh return continuation and resumes emission there.
func (e *emitter) emitCall(x *CallExpr) (ir.Def, error) {
	if id, ok := x.Callee.(*Ident); ok {
		if _, isLocal := e.lookup(id.Name); !isLocal {
			if _, isFn := e.fnCont[id.Name]; !isFn {
				return e.emitBuiltin(x, id)
			}
		}
	}
	callee, err := e.emitExpr(x.Callee)
	if err != nil {
		return nil, err
	}
	args := []ir.Def{nil} // mem placeholder, filled after arg emission
	for _, a := range x.Args {
		v, err := e.emitExpr(a)
		if err != nil {
			return nil, err
		}
		args = append(args, v)
	}
	ft := x.Callee.Ty().(*Fn)
	next := e.w.Continuation(e.retContType(ft.Ret), e.name("ret"))
	args[0] = e.mem
	args = append(args, next)
	e.cur.Jump(callee, args...)
	e.cur, e.mem = next, next.Param(0)
	if Equal(ft.Ret, TyUnit) {
		return e.unit(), nil
	}
	return next.Param(1), nil
}

func (e *emitter) emitBuiltin(x *CallExpr, id *Ident) (ir.Def, error) {
	switch id.Name {
	case "len":
		arr, err := e.emitExpr(x.Args[0])
		if err != nil {
			return nil, err
		}
		return e.w.ALen(arr), nil

	case "print", "print_char":
		v, err := e.emitExpr(x.Args[0])
		if err != nil {
			return nil, err
		}
		var intr *ir.Continuation
		switch {
		case id.Name == "print_char":
			intr = e.w.PrintChar()
		case Equal(x.Args[0].Ty(), TyF64):
			intr = e.w.PrintF64()
		default:
			intr = e.w.PrintI64()
		}
		next := e.w.BasicBlock(e.name("print.ret"))
		e.cur.Jump(intr, e.mem, v, next)
		e.cur, e.mem = next, next.Param(0)
		return e.unit(), nil
	}
	return nil, errf(x.Span(), "undefined function %q", id.Name)
}

// emitLambda creates a continuation for the lambda; captured values stay
// free defs in its scope (lambda lifting happens in the optimizer).
func (e *emitter) emitLambda(x *LambdaExpr) (ir.Def, error) {
	ft := x.Ty().(*Fn)
	lam := e.w.Continuation(e.cpsFnType(ft), e.name("lambda"))

	// Swap emission state; lexical scopes remain visible for capture.
	savedCur, savedMem := e.cur, e.mem
	savedRet, savedRetTy := e.retParam, e.retTy
	savedLoops := e.loops

	e.cur = lam
	e.mem = lam.Param(0)
	e.retParam = lam.Param(lam.NumParams() - 1)
	e.retTy = ft.Ret
	e.loops = nil
	e.push()
	for i, p := range x.Params {
		lam.Param(i + 1).SetName(p.Name)
		e.bind(p.Name, binding{def: lam.Param(i + 1), ty: ft.Params[i]})
	}
	v, err := e.emitExpr(x.Body)
	if err != nil {
		return nil, err
	}
	e.emitReturn(ft.Ret, x.Body.Ty(), v)
	e.pop()

	e.cur, e.mem = savedCur, savedMem
	e.retParam, e.retTy = savedRet, savedRetTy
	e.loops = savedLoops
	return lam, nil
}

// emitArrayLit allocates the array and fills it with the (once-evaluated)
// initializer using a frontend-generated loop.
func (e *emitter) emitArrayLit(x *ArrayLit) (ir.Def, error) {
	init, err := e.emitExpr(x.Init)
	if err != nil {
		return nil, err
	}
	n, err := e.emitExpr(x.Len)
	if err != nil {
		return nil, err
	}
	elemT := e.irType(x.Init.Ty())
	al := e.w.Alloc(e.mem, elemT, n)
	arr := e.w.ExtractAt(al, 1)
	i64 := e.w.PrimType(ir.PrimI64)

	head := e.w.Continuation(e.w.FnType(e.w.MemType(), i64), e.name("afill.head"))
	body := e.w.BasicBlock(e.name("afill.body"))
	done := e.w.BasicBlock(e.name("afill.done"))
	e.cur.Jump(head, e.w.ExtractAt(al, 0), e.w.LitI64(0))
	i := head.Param(1)
	head.Branch(head.Param(0), e.w.Cmp(ir.OpLt, i, n), body, done)
	st := e.w.Store(body.Param(0), e.w.Lea(arr, i), init)
	body.Jump(head, st, e.w.Arith(ir.OpAdd, i, e.w.LitI64(1)))

	e.cur, e.mem = done, done.Param(0)
	return arr, nil
}
