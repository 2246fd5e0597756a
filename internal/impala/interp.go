package impala

import (
	"errors"
	"fmt"
	"io"
	"math"
)

// This file implements a reference tree-walking interpreter for the
// language. It defines the intended semantics independently of any IR or
// code generator and serves as the oracle for the differential tests: every
// compilation pipeline must agree with it.

// IValue is an interpreter value. Integers and booleans live in I, floats
// in F; Ref holds arrays (*[]IValue), tuples ([]IValue), cells (*IValue,
// for mutable captures and statics) and closures (*iclosure).
type IValue struct {
	I   int64
	F   float64
	Ref any
}

type iclosure struct {
	params []string
	body   Expr
	env    *ienv
	retTy  Type
}

// ienv is a lexical environment frame. Every binding is a cell so closures
// capture locations, matching the compiled semantics for mutables.
type ienv struct {
	vars   map[string]*IValue
	parent *ienv
}

func (e *ienv) look(name string) (*IValue, bool) {
	for s := e; s != nil; s = s.parent {
		if v, ok := s.vars[name]; ok {
			return v, true
		}
	}
	return nil, false
}

func (e *ienv) child() *ienv { return &ienv{vars: map[string]*IValue{}, parent: e} }

// control signals non-local exits during evaluation.
type control uint8

const (
	ctlNone control = iota
	ctlReturn
	ctlBreak
	ctlContinue
)

// ErrFuel is returned when the interpreter exceeds its step budget.
var ErrFuel = errors.New("impala: interpreter step budget exceeded")

// MaxArrayLen is the largest array `[x; n]` allocates; a larger n is
// refused with an out-of-memory error before the host is asked for it.
// It equals vm.MaxArrayLen, the ceiling of both compiled targets, so the
// interpreter fails on exactly the sizes they refuse.
const MaxArrayLen = 1 << 27

// Interp evaluates a checked program.
type Interp struct {
	prog    *Program
	out     io.Writer
	statics map[string]*IValue
	fuel    int64
}

// DefaultFuel is the step budget NewInterp applies when the caller passes 0.
const DefaultFuel = 200_000_000

// NewInterp prepares an interpreter for a checked program. out receives
// print output (io.Discard if nil); fuel bounds evaluation steps — 0 means
// DefaultFuel, and a negative value is an explicit error (it used to be
// silently replaced with the default, which made it impossible for the
// differential fuzzer to budget-match interpreter and VM runs).
func NewInterp(prog *Program, out io.Writer, fuel int64) (*Interp, error) {
	if fuel < 0 {
		return nil, fmt.Errorf("impala: negative interpreter fuel %d", fuel)
	}
	if out == nil {
		out = io.Discard
	}
	if fuel == 0 {
		fuel = DefaultFuel
	}
	in := &Interp{prog: prog, out: out, statics: map[string]*IValue{}, fuel: fuel}
	for _, sd := range prog.Statics {
		v := in.staticValue(sd.Init)
		in.statics[sd.Name] = &v
	}
	return in, nil
}

// Remaining returns the unspent step budget, 0 once the interpreter has run
// out of fuel. The fuzzer uses it to derive a matching VM step budget so a
// miscompiled infinite loop fails fast instead of hanging a fuzz worker.
func (in *Interp) Remaining() int64 {
	if in.fuel < 0 {
		return 0
	}
	return in.fuel
}

func (in *Interp) staticValue(x Expr) IValue {
	switch x := x.(type) {
	case *IntLit:
		return IValue{I: x.Value}
	case *FloatLit:
		return IValue{F: x.Value}
	case *BoolLit:
		if x.Value {
			return IValue{I: 1}
		}
		return IValue{}
	case *UnaryExpr:
		v := in.staticValue(x.X)
		return IValue{I: -v.I, F: -v.F}
	}
	return IValue{}
}

// Run evaluates main with i64 arguments and returns its (integer) result.
func (in *Interp) Run(args ...int64) (IValue, error) {
	var main *FuncDecl
	for _, f := range in.prog.Funcs {
		if f.Name == "main" {
			main = f
		}
	}
	if main == nil {
		return IValue{}, fmt.Errorf("impala: no main")
	}
	if len(args) != len(main.Params) {
		return IValue{}, fmt.Errorf("impala: main expects %d args, got %d", len(main.Params), len(args))
	}
	vals := make([]IValue, len(args))
	for i, a := range args {
		vals[i] = IValue{I: a}
	}
	return in.callDecl(main, vals)
}

func (in *Interp) callDecl(fd *FuncDecl, args []IValue) (IValue, error) {
	env := &ienv{vars: map[string]*IValue{}}
	for i, p := range fd.Params {
		v := args[i]
		env.vars[p.Name] = &v
	}
	val, ctl, err := in.evalExpr(fd.Body, env)
	if err != nil {
		return IValue{}, err
	}
	_ = ctl // both a return and a tail value land in val
	return val, nil
}

func (in *Interp) step() error {
	in.fuel--
	if in.fuel <= 0 {
		return ErrFuel
	}
	return nil
}

func (in *Interp) evalStmt(s Stmt, env *ienv) (IValue, control, error) {
	if err := in.step(); err != nil {
		return IValue{}, ctlNone, err
	}
	switch s := s.(type) {
	case *LetStmt:
		v, ctl, err := in.evalExpr(s.Init, env)
		if err != nil || ctl != ctlNone {
			return v, ctl, err
		}
		env.vars[s.Name] = &v
		return IValue{}, ctlNone, nil

	case *AssignStmt:
		switch target := s.Target.(type) {
		case *Ident:
			cell, err := in.lvalue(target.Name, env)
			if err != nil {
				return IValue{}, ctlNone, err
			}
			v, ctl, err := in.evalExpr(s.Value, env)
			if err != nil || ctl != ctlNone {
				return v, ctl, err
			}
			*cell = v
			return IValue{}, ctlNone, nil
		case *IndexExpr:
			av, ctl, err := in.evalExpr(target.Arr, env)
			if err != nil || ctl != ctlNone {
				return av, ctl, err
			}
			iv, ctl, err := in.evalExpr(target.Idx, env)
			if err != nil || ctl != ctlNone {
				return iv, ctl, err
			}
			v, ctl, err := in.evalExpr(s.Value, env)
			if err != nil || ctl != ctlNone {
				return v, ctl, err
			}
			arr := av.Ref.(*[]IValue)
			if iv.I < 0 || iv.I >= int64(len(*arr)) {
				return IValue{}, ctlNone, fmt.Errorf("impala: index %d out of bounds [0,%d)", iv.I, len(*arr))
			}
			(*arr)[iv.I] = v
			return IValue{}, ctlNone, nil
		}
		return IValue{}, ctlNone, fmt.Errorf("impala: bad assignment target")

	case *ExprStmt:
		v, ctl, err := in.evalExpr(s.X, env)
		if ctl == ctlReturn {
			return v, ctl, err
		}
		return IValue{}, ctl, err

	case *WhileStmt:
		for {
			if err := in.step(); err != nil {
				return IValue{}, ctlNone, err
			}
			c, ctl, err := in.evalExpr(s.Cond, env)
			if err != nil || ctl != ctlNone {
				return c, ctl, err
			}
			if c.I == 0 {
				return IValue{}, ctlNone, nil
			}
			v, ctl, err := in.evalExpr(s.Body, env)
			if err != nil {
				return IValue{}, ctlNone, err
			}
			switch ctl {
			case ctlReturn:
				return v, ctl, nil
			case ctlBreak:
				return IValue{}, ctlNone, nil
			}
		}

	case *ForStmt:
		lo, ctl, err := in.evalExpr(s.Lo, env)
		if err != nil || ctl != ctlNone {
			return lo, ctl, err
		}
		hi, ctl, err := in.evalExpr(s.Hi, env)
		if err != nil || ctl != ctlNone {
			return hi, ctl, err
		}
		for i := lo.I; i < hi.I; i++ {
			if err := in.step(); err != nil {
				return IValue{}, ctlNone, err
			}
			inner := env.child()
			iv := IValue{I: i}
			inner.vars[s.Name] = &iv
			v, ctl, err := in.evalExpr(s.Body, inner)
			if err != nil {
				return IValue{}, ctlNone, err
			}
			switch ctl {
			case ctlReturn:
				return v, ctl, nil
			case ctlBreak:
				return IValue{}, ctlNone, nil
			}
		}
		return IValue{}, ctlNone, nil

	case *ReturnStmt:
		if s.X == nil {
			return IValue{}, ctlReturn, nil
		}
		v, ctl, err := in.evalExpr(s.X, env)
		if err != nil || ctl == ctlReturn {
			return v, ctl, err
		}
		return v, ctlReturn, nil

	case *BreakStmt:
		return IValue{}, ctlBreak, nil
	case *ContinueStmt:
		return IValue{}, ctlContinue, nil
	}
	return IValue{}, ctlNone, fmt.Errorf("impala: bad statement %T", s)
}

func (in *Interp) lvalue(name string, env *ienv) (*IValue, error) {
	if cell, ok := env.look(name); ok {
		return cell, nil
	}
	if cell, ok := in.statics[name]; ok {
		return cell, nil
	}
	return nil, fmt.Errorf("impala: assignment to undefined %q", name)
}

func (in *Interp) evalExpr(x Expr, env *ienv) (IValue, control, error) {
	if err := in.step(); err != nil {
		return IValue{}, ctlNone, err
	}
	switch x := x.(type) {
	case *IntLit:
		return IValue{I: x.Value}, ctlNone, nil
	case *FloatLit:
		return IValue{F: x.Value}, ctlNone, nil
	case *BoolLit:
		if x.Value {
			return IValue{I: 1}, ctlNone, nil
		}
		return IValue{}, ctlNone, nil

	case *Ident:
		if cell, ok := env.look(x.Name); ok {
			return *cell, ctlNone, nil
		}
		if cell, ok := in.statics[x.Name]; ok {
			return *cell, ctlNone, nil
		}
		for _, f := range in.prog.Funcs {
			if f.Name == x.Name {
				params := make([]string, len(f.Params))
				for i, p := range f.Params {
					params[i] = p.Name
				}
				return IValue{Ref: &iclosure{params: params, body: f.Body, env: nil}}, ctlNone, nil
			}
		}
		return IValue{}, ctlNone, fmt.Errorf("impala: undefined %q", x.Name)

	case *UnaryExpr:
		v, ctl, err := in.evalExpr(x.X, env)
		if err != nil || ctl != ctlNone {
			return v, ctl, err
		}
		if x.Op == "-" {
			if Equal(x.Ty(), TyF64) {
				return IValue{F: -v.F}, ctlNone, nil
			}
			return IValue{I: -v.I}, ctlNone, nil
		}
		return IValue{I: v.I ^ 1}, ctlNone, nil

	case *BinaryExpr:
		return in.evalBinary(x, env)

	case *CallExpr:
		return in.evalCall(x, env)

	case *IfExpr:
		c, ctl, err := in.evalExpr(x.Cond, env)
		if err != nil || ctl != ctlNone {
			return c, ctl, err
		}
		if c.I != 0 {
			return in.evalExpr(x.Then, env)
		}
		if x.Else != nil {
			return in.evalExpr(x.Else, env)
		}
		return IValue{}, ctlNone, nil

	case *BlockExpr:
		inner := env.child()
		for _, s := range x.Stmts {
			v, ctl, err := in.evalStmt(s, inner)
			if err != nil || ctl != ctlNone {
				return v, ctl, err
			}
		}
		if x.Tail == nil {
			return IValue{}, ctlNone, nil
		}
		return in.evalExpr(x.Tail, inner)

	case *LambdaExpr:
		params := make([]string, len(x.Params))
		for i, p := range x.Params {
			params[i] = p.Name
		}
		return IValue{Ref: &iclosure{params: params, body: x.Body, env: env}}, ctlNone, nil

	case *ArrayLit:
		init, ctl, err := in.evalExpr(x.Init, env)
		if err != nil || ctl != ctlNone {
			return init, ctl, err
		}
		n, ctl, err := in.evalExpr(x.Len, env)
		if err != nil || ctl != ctlNone {
			return n, ctl, err
		}
		if n.I < 0 {
			return IValue{}, ctlNone, fmt.Errorf("impala: negative array size %d", n.I)
		}
		if n.I > MaxArrayLen {
			return IValue{}, ctlNone, fmt.Errorf("impala: out of memory: array of %d elements", n.I)
		}
		elems := make([]IValue, n.I)
		for i := range elems {
			elems[i] = init
		}
		return IValue{Ref: &elems}, ctlNone, nil

	case *IndexExpr:
		av, ctl, err := in.evalExpr(x.Arr, env)
		if err != nil || ctl != ctlNone {
			return av, ctl, err
		}
		iv, ctl, err := in.evalExpr(x.Idx, env)
		if err != nil || ctl != ctlNone {
			return iv, ctl, err
		}
		arr := av.Ref.(*[]IValue)
		if iv.I < 0 || iv.I >= int64(len(*arr)) {
			return IValue{}, ctlNone, fmt.Errorf("impala: index %d out of bounds [0,%d)", iv.I, len(*arr))
		}
		return (*arr)[iv.I], ctlNone, nil

	case *TupleLit:
		vals := make([]IValue, len(x.Elems))
		for i, el := range x.Elems {
			v, ctl, err := in.evalExpr(el, env)
			if err != nil || ctl != ctlNone {
				return v, ctl, err
			}
			vals[i] = v
		}
		return IValue{Ref: vals}, ctlNone, nil

	case *FieldExpr:
		v, ctl, err := in.evalExpr(x.X, env)
		if err != nil || ctl != ctlNone {
			return v, ctl, err
		}
		return v.Ref.([]IValue)[x.Index], ctlNone, nil

	case *CastExpr:
		v, ctl, err := in.evalExpr(x.X, env)
		if err != nil || ctl != ctlNone {
			return v, ctl, err
		}
		srcF := Equal(x.X.Ty(), TyF64)
		dstF := Equal(x.Ty(), TyF64)
		switch {
		case srcF == dstF:
			return v, ctlNone, nil
		case dstF:
			return IValue{F: float64(v.I)}, ctlNone, nil
		default:
			return IValue{I: int64(v.F)}, ctlNone, nil
		}
	}
	return IValue{}, ctlNone, fmt.Errorf("impala: bad expression %T", x)
}

func (in *Interp) evalBinary(x *BinaryExpr, env *ienv) (IValue, control, error) {
	if x.Op == "&&" || x.Op == "||" {
		l, ctl, err := in.evalExpr(x.L, env)
		if err != nil || ctl != ctlNone {
			return l, ctl, err
		}
		if (x.Op == "&&" && l.I == 0) || (x.Op == "||" && l.I != 0) {
			return l, ctlNone, nil
		}
		return in.evalExpr(x.R, env)
	}
	l, ctl, err := in.evalExpr(x.L, env)
	if err != nil || ctl != ctlNone {
		return l, ctl, err
	}
	r, ctl, err := in.evalExpr(x.R, env)
	if err != nil || ctl != ctlNone {
		return r, ctl, err
	}
	isF := Equal(x.L.Ty(), TyF64)
	if isF {
		switch x.Op {
		case "+":
			return IValue{F: l.F + r.F}, ctlNone, nil
		case "-":
			return IValue{F: l.F - r.F}, ctlNone, nil
		case "*":
			return IValue{F: l.F * r.F}, ctlNone, nil
		case "/":
			return IValue{F: l.F / r.F}, ctlNone, nil
		case "%":
			return IValue{F: math.Mod(l.F, r.F)}, ctlNone, nil
		case "==":
			return boolIV(l.F == r.F), ctlNone, nil
		case "!=":
			return boolIV(l.F != r.F), ctlNone, nil
		case "<":
			return boolIV(l.F < r.F), ctlNone, nil
		case "<=":
			return boolIV(l.F <= r.F), ctlNone, nil
		case ">":
			return boolIV(l.F > r.F), ctlNone, nil
		case ">=":
			return boolIV(l.F >= r.F), ctlNone, nil
		}
	}
	switch x.Op {
	case "+":
		return IValue{I: l.I + r.I}, ctlNone, nil
	case "-":
		return IValue{I: l.I - r.I}, ctlNone, nil
	case "*":
		return IValue{I: l.I * r.I}, ctlNone, nil
	case "/":
		if r.I == 0 {
			return IValue{}, ctlNone, fmt.Errorf("impala: division by zero")
		}
		if r.I == -1 {
			// x / -1 is -x with two's-complement wrapping; Go's native
			// division panics on MinInt64 / -1.
			return IValue{I: -l.I}, ctlNone, nil
		}
		return IValue{I: l.I / r.I}, ctlNone, nil
	case "%":
		if r.I == 0 {
			return IValue{}, ctlNone, fmt.Errorf("impala: remainder by zero")
		}
		if r.I == -1 {
			return IValue{I: 0}, ctlNone, nil
		}
		return IValue{I: l.I % r.I}, ctlNone, nil
	case "&":
		return IValue{I: l.I & r.I}, ctlNone, nil
	case "|":
		return IValue{I: l.I | r.I}, ctlNone, nil
	case "^":
		return IValue{I: l.I ^ r.I}, ctlNone, nil
	case "<<":
		return IValue{I: l.I << (uint64(r.I) & 63)}, ctlNone, nil
	case ">>":
		return IValue{I: l.I >> (uint64(r.I) & 63)}, ctlNone, nil
	case "==":
		return boolIV(l.I == r.I), ctlNone, nil
	case "!=":
		return boolIV(l.I != r.I), ctlNone, nil
	case "<":
		return boolIV(l.I < r.I), ctlNone, nil
	case "<=":
		return boolIV(l.I <= r.I), ctlNone, nil
	case ">":
		return boolIV(l.I > r.I), ctlNone, nil
	case ">=":
		return boolIV(l.I >= r.I), ctlNone, nil
	}
	return IValue{}, ctlNone, fmt.Errorf("impala: bad operator %q", x.Op)
}

func (in *Interp) evalCall(x *CallExpr, env *ienv) (IValue, control, error) {
	// Builtins.
	if id, ok := x.Callee.(*Ident); ok {
		if _, shadowed := env.look(id.Name); !shadowed {
			if _, isStatic := in.statics[id.Name]; !isStatic {
				if v, handled, ctl, err := in.evalBuiltin(x, id, env); handled {
					return v, ctl, err
				}
				// Direct call to a top-level function.
				for _, f := range in.prog.Funcs {
					if f.Name == id.Name {
						args, ctl, err := in.evalArgs(x.Args, env)
						if err != nil || ctl != ctlNone {
							return IValue{}, ctl, err
						}
						v, err := in.callDecl(f, args)
						return v, ctlNone, err
					}
				}
			}
		}
	}
	cv, ctl, err := in.evalExpr(x.Callee, env)
	if err != nil || ctl != ctlNone {
		return cv, ctl, err
	}
	clo, ok := cv.Ref.(*iclosure)
	if !ok {
		return IValue{}, ctlNone, fmt.Errorf("impala: call of non-function")
	}
	args, ctl, err := in.evalArgs(x.Args, env)
	if err != nil || ctl != ctlNone {
		return IValue{}, ctl, err
	}
	callEnv := clo.env.child()
	if clo.env == nil {
		callEnv = &ienv{vars: map[string]*IValue{}}
	}
	for i, p := range clo.params {
		v := args[i]
		callEnv.vars[p] = &v
	}
	v, _, err := in.evalExpr(clo.body, callEnv)
	return v, ctlNone, err
}

func (in *Interp) evalArgs(args []Expr, env *ienv) ([]IValue, control, error) {
	out := make([]IValue, len(args))
	for i, a := range args {
		v, ctl, err := in.evalExpr(a, env)
		if err != nil || ctl != ctlNone {
			return nil, ctl, err
		}
		out[i] = v
	}
	return out, ctlNone, nil
}

func (in *Interp) evalBuiltin(x *CallExpr, id *Ident, env *ienv) (IValue, bool, control, error) {
	switch id.Name {
	case "print", "print_char", "len":
		// Shadowed by a user function of the same name?
		for _, f := range in.prog.Funcs {
			if f.Name == id.Name {
				return IValue{}, false, ctlNone, nil
			}
		}
	default:
		return IValue{}, false, ctlNone, nil
	}
	args, ctl, err := in.evalArgs(x.Args, env)
	if err != nil || ctl != ctlNone {
		return IValue{}, true, ctl, err
	}
	switch id.Name {
	case "print":
		if Equal(x.Args[0].Ty(), TyF64) {
			fmt.Fprintf(in.out, "%.9g\n", args[0].F)
		} else {
			fmt.Fprintf(in.out, "%d\n", args[0].I)
		}
		return IValue{}, true, ctlNone, nil
	case "print_char":
		fmt.Fprintf(in.out, "%c", rune(args[0].I))
		return IValue{}, true, ctlNone, nil
	case "len":
		arr := args[0].Ref.(*[]IValue)
		return IValue{I: int64(len(*arr))}, true, ctlNone, nil
	}
	return IValue{}, false, ctlNone, nil
}

func boolIV(b bool) IValue {
	if b {
		return IValue{I: 1}
	}
	return IValue{}
}
