// Package lower is the backend-neutral half of code generation: it owns
// function discovery and ordering, global registration, per-function
// scope/schedule construction and terminator classification. Emitters
// (internal/backend/vm, internal/backend/wasm) consume this layer and add
// only instruction selection and encoding — per the paper's claim that the
// schedule, not dominance bookkeeping, is the only thing a backend should
// depend on.
package lower

import (
	"fmt"

	"thorin/internal/analysis"
	"thorin/internal/ir"
)

// Unit tracks the functions and globals of one compilation in emission
// order. Discovery is demand-driven and interleaved with emission exactly
// like the original codegen: externs are declared first, then each emitted
// function declares the functions it references (closure code, direct call
// targets) as its blocks are lowered — so function indices, and therefore
// emitted programs, are byte-for-byte reproducible.
type Unit struct {
	W *ir.World
	// Mode selects primop placement for every function's schedule.
	Mode analysis.Mode

	funcIdx  map[*ir.Continuation]int
	funcs    []*ir.Continuation
	worklist []*ir.Continuation

	globalIdx map[*ir.PrimOp]int
	globals   []*ir.PrimOp
}

// NewUnit seeds a unit with every extern returning continuation of w, in
// the world's extern order. It fails when the world has nothing to emit.
func NewUnit(w *ir.World, mode analysis.Mode) (*Unit, error) {
	u := &Unit{
		W:         w,
		Mode:      mode,
		funcIdx:   map[*ir.Continuation]int{},
		globalIdx: map[*ir.PrimOp]int{},
	}
	for _, c := range w.Externs() {
		if c.IsIntrinsic() || !c.HasBody() || !c.IsReturning() {
			continue
		}
		u.Declare(c)
	}
	if len(u.worklist) == 0 {
		return nil, fmt.Errorf("no extern returning functions in world")
	}
	return u, nil
}

// Declare reserves a function index for c and queues it for emission.
func (u *Unit) Declare(c *ir.Continuation) int {
	if idx, ok := u.funcIdx[c]; ok {
		return idx
	}
	idx := len(u.funcs)
	u.funcs = append(u.funcs, c)
	u.funcIdx[c] = idx
	u.worklist = append(u.worklist, c)
	return idx
}

// Next pops the next function to emit (LIFO, matching the original
// codegen's worklist order); nil when emission is complete.
func (u *Unit) Next() *ir.Continuation {
	if len(u.worklist) == 0 {
		return nil
	}
	c := u.worklist[len(u.worklist)-1]
	u.worklist = u.worklist[:len(u.worklist)-1]
	return c
}

// Funcs returns the declared functions in index order. During emission the
// slice grows as new functions are discovered.
func (u *Unit) Funcs() []*ir.Continuation { return u.funcs }

// FuncIndex returns the index of an already-declared function.
func (u *Unit) FuncIndex(c *ir.Continuation) (int, bool) {
	idx, ok := u.funcIdx[c]
	return idx, ok
}

// Main resolves the entry point by name among the declared functions.
func (u *Unit) Main(name string) (int, error) {
	if main := u.W.Find(name); main != nil {
		if idx, ok := u.funcIdx[main]; ok {
			return idx, nil
		}
	}
	return 0, fmt.Errorf("main function %q not found", name)
}

// GlobalIndex registers an OpGlobal's cell in first-use order and returns
// its index. Initializers must be literals — the IR has no initialization
// order for arbitrary primop initializers.
func (u *Unit) GlobalIndex(p *ir.PrimOp) (int, error) {
	if idx, ok := u.globalIdx[p]; ok {
		return idx, nil
	}
	if _, ok := p.Op(0).(*ir.Literal); !ok {
		return 0, fmt.Errorf("global initializer must be a literal, got %T", p.Op(0))
	}
	idx := len(u.globals)
	u.globals = append(u.globals, p)
	u.globalIdx[p] = idx
	return idx, nil
}

// Globals returns the registered global cells in first-use order.
func (u *Unit) Globals() []*ir.PrimOp { return u.globals }

// GlobalInit returns a global's literal initializer.
func GlobalInit(p *ir.PrimOp) *ir.Literal { return p.Op(0).(*ir.Literal) }

// Func is the lowered form of one function: its scope and schedule. Every
// continuation of the scope's CFG becomes a basic block, numbered by its
// node's reverse-postorder Index.
type Func struct {
	Entry *ir.Continuation
	Scope *analysis.Scope
	Sched *analysis.Schedule
}

// NewFunc computes the scope and schedule for entry. It rejects functions
// that capture enclosing parameters: backends require closure-converted,
// top-level scopes.
func (u *Unit) NewFunc(entry *ir.Continuation) (*Func, error) {
	s := analysis.NewScope(entry)
	if !s.TopLevel() {
		return nil, fmt.Errorf("%s captures enclosing parameters; run closure conversion first", entry.Name())
	}
	return &Func{Entry: entry, Scope: s, Sched: analysis.NewSchedule(s, u.Mode)}, nil
}

// Nodes returns the CFG nodes in reverse postorder ([0] is the entry).
func (f *Func) Nodes() []*analysis.Node { return f.Sched.CFG.Nodes }

// IsVal reports whether d carries a runtime value (mem tokens do not).
func IsVal(d ir.Def) bool { return !ir.IsMemType(d.Type()) }

// ValArgs filters args down to the value-carrying ones.
func ValArgs(args []ir.Def) []ir.Def {
	var out []ir.Def
	for _, a := range args {
		if IsVal(a) {
			out = append(out, a)
		}
	}
	return out
}

// ValParams filters a continuation's params down to the value-carrying
// ones, excluding ret (pass the entry's ret param for function entries,
// nil for plain blocks).
func ValParams(c *ir.Continuation, ret *ir.Param) []*ir.Param {
	var out []*ir.Param
	for _, p := range c.Params() {
		if p == ret || !IsVal(p) {
			continue
		}
		out = append(out, p)
	}
	return out
}

// TermKind classifies a block's terminating jump.
type TermKind int

const (
	// TermBranch is the two-way conditional branch intrinsic.
	TermBranch TermKind = iota
	// TermPrint is a print intrinsic followed by a continuation transfer.
	TermPrint
	// TermGoto is a direct jump to another block of the same function.
	TermGoto
	// TermRet returns through the function's return parameter.
	TermRet
	// TermCall is a returning call: direct to a declared function, or
	// indirect through a closure value.
	TermCall
)

// Terminator is the classified form of one block's terminating jump. Only
// the fields of the matching Kind are set. Classification resolves no
// registers or locals: emitters decide evaluation order themselves.
type Terminator struct {
	Kind TermKind

	// TermBranch: if Cond then True else False.
	Cond        ir.Def
	True, False *analysis.Node

	// TermPrint: the intrinsic, its value argument, and the continuation
	// (Next == nil means the print returns through the ret param).
	Print ir.Intrinsic
	Val   ir.Def
	Next  *analysis.Node

	// TermGoto: Target receives Args (mem args included; filter with
	// ValArgs). Also the post-call transfer of TermCall.
	Target *analysis.Node

	// TermRet and TermGoto: the jump's arguments, mem included.
	Args []ir.Def

	// TermCall: Callee is the called value; Direct is set for a direct
	// call to a declared function. CallArgs excludes the trailing return
	// continuation. Tail calls return straight through the caller's ret
	// param; otherwise RetCont/RetNode receive the results.
	Callee   ir.Def
	Direct   *ir.Continuation
	CallArgs []ir.Def
	Tail     bool
	RetCont  *ir.Continuation
	RetNode  *analysis.Node
}

// Terminator classifies the body of continuation c, a block of f.
func (f *Func) Terminator(c *ir.Continuation) (*Terminator, error) {
	if !c.HasBody() {
		return nil, fmt.Errorf("block without body")
	}
	callee := c.Callee()
	cfg := f.Sched.CFG

	// Intrinsics: branch and prints.
	if ic, ok := callee.(*ir.Continuation); ok && ic.IsIntrinsic() {
		switch ic.Intrinsic() {
		case ir.IntrinsicBranch:
			tb, err := f.branchTarget(c.Arg(2))
			if err != nil {
				return nil, err
			}
			fb, err := f.branchTarget(c.Arg(3))
			if err != nil {
				return nil, err
			}
			return &Terminator{Kind: TermBranch, Cond: c.Arg(1), True: tb, False: fb}, nil
		case ir.IntrinsicPrintI64, ir.IntrinsicPrintF64, ir.IntrinsicPrintChar:
			t := &Terminator{Kind: TermPrint, Print: ic.Intrinsic(), Val: c.Arg(1)}
			switch k := c.Arg(2).(type) {
			case *ir.Continuation:
				n := cfg.NodeOf(k)
				if n == nil {
					return nil, fmt.Errorf("print continuation outside scope")
				}
				t.Next = n
			case *ir.Param:
				if k != f.Entry.RetParam() {
					return nil, fmt.Errorf("print continuation is a foreign param")
				}
			default:
				return nil, fmt.Errorf("bad print continuation %v", c.Arg(2))
			}
			return t, nil
		default:
			return nil, fmt.Errorf("unsupported intrinsic %s", ic.Intrinsic())
		}
	}

	// Direct jump to a block of this scope.
	if t, ok := callee.(*ir.Continuation); ok && !t.IsReturning() {
		n := cfg.NodeOf(t)
		if n == nil {
			return nil, fmt.Errorf("jump to foreign block %s", t.Name())
		}
		return &Terminator{Kind: TermGoto, Target: n, Args: c.Args()}, nil
	}

	// Return through the function's ret param.
	if p, ok := callee.(*ir.Param); ok && p == f.Entry.RetParam() {
		return &Terminator{Kind: TermRet, Args: c.Args()}, nil
	}

	// Returning call, direct or through a closure value.
	ft, ok := callee.Type().(*ir.FnType)
	if !ok || !ir.ReturnsValue(ft) {
		return nil, fmt.Errorf("callee %v is not callable", callee)
	}
	nargs := c.NumArgs()
	t := &Terminator{Kind: TermCall, Callee: callee, CallArgs: c.Args()[:nargs-1]}
	switch r := c.Arg(nargs - 1).(type) {
	case *ir.Param:
		if r != f.Entry.RetParam() {
			return nil, fmt.Errorf("return continuation %s is not the ret param (missing eta expansion?)", r)
		}
		t.Tail = true
	case *ir.Continuation:
		n := cfg.NodeOf(r)
		if n == nil {
			return nil, fmt.Errorf("return continuation %s outside scope", r.Name())
		}
		t.RetCont, t.RetNode = r, n
	default:
		return nil, fmt.Errorf("bad return continuation %v (missing eta expansion?)", c.Arg(nargs-1))
	}
	if target, ok := callee.(*ir.Continuation); ok {
		if !target.HasBody() {
			return nil, fmt.Errorf("call to bodyless %s", target.Name())
		}
		t.Direct = target
	}
	return t, nil
}

func (f *Func) branchTarget(d ir.Def) (*analysis.Node, error) {
	t, ok := d.(*ir.Continuation)
	if !ok {
		return nil, fmt.Errorf("branch target is not a continuation")
	}
	n := f.Sched.CFG.NodeOf(t)
	if n == nil {
		return nil, fmt.Errorf("branch target %s outside scope", t.Name())
	}
	return n, nil
}
