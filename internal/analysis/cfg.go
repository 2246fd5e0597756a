package analysis

import (
	"fmt"
	"slices"

	"thorin/internal/gidtab"
	"thorin/internal/ir"
)

// Node is a vertex of a CFG: one continuation of the scope, or the virtual
// exit (Cont == nil).
type Node struct {
	Cont  *ir.Continuation
	Index int // reverse-postorder index; entry is 0
	Succs []*Node
	Preds []*Node
}

func (n *Node) String() string {
	if n.Cont == nil {
		return "<exit>"
	}
	return n.Cont.Name()
}

// CFG is the control-flow graph of one scope. Successor extraction follows
// the paper's conservative control-flow analysis:
//
//   - a jump to the branch intrinsic has the two target blocks as successors;
//   - a jump to a continuation inside the scope goes directly there;
//   - a jump whose callee leaves the scope (a call to a top-level function,
//     a parameter, or a closure value) may invoke any continuation-typed
//     argument that belongs to the scope — typically the return continuation
//     of a call — so all such arguments become successors;
//   - a node with no successors inside the scope (e.g. a jump to the entry's
//     return parameter) is connected to the virtual Exit node.
type CFG struct {
	Scope *Scope
	// Nodes in reverse postorder; Nodes[0] is the entry.
	Nodes []*Node
	// Exit is the virtual exit node (not part of Nodes).
	Exit *Node
	// nodes[i] is the node of Scope.Conts[i] (Cont == nil while the
	// continuation is not a node) and nodes[len(Scope.Conts)] is Exit, so
	// one allocation holds every node and NodeOf needs no map.
	nodes []Node
}

// NewCFG builds the CFG of s.
func NewCFG(s *Scope) *CFG {
	g := &CFG{Scope: s, nodes: make([]Node, len(s.Conts)+1)}
	g.Exit = &g.nodes[len(s.Conts)]

	node := func(c *ir.Continuation) *Node {
		n := &g.nodes[s.contIndex(c)]
		n.Cont = c
		return n
	}

	link := func(from, to *Node) {
		for _, s := range from.Succs {
			if s == to {
				return
			}
		}
		from.Succs = append(from.Succs, to)
		to.Preds = append(to.Preds, from)
	}

	// Depth-first from entry following the successor rules; only reachable
	// continuations become CFG nodes.
	var visit func(c *ir.Continuation)
	visit = func(c *ir.Continuation) {
		n := node(c)
		if len(n.Succs) != 0 || !c.HasBody() {
			return
		}
		for _, t := range Successors(s, c) {
			link(n, node(t)) // link drops duplicate edges
		}
		for _, succ := range n.Succs {
			visit(succ.Cont)
		}
	}
	visit(s.Entry)

	// Reverse postorder.
	g.Nodes = postorderReversed(node(s.Entry), s.Entry.World())
	for i, n := range g.Nodes {
		n.Index = i
	}

	// Connect terminal nodes to the virtual exit.
	for _, n := range g.Nodes {
		if len(n.Succs) == 0 {
			link(n, g.Exit)
		}
	}
	g.Exit.Index = len(g.Nodes)
	return g
}

// Successors computes the intra-scope control-flow successors of c's body.
func Successors(s *Scope, c *ir.Continuation) []*ir.Continuation {
	if !c.HasBody() {
		return nil
	}
	var out []*ir.Continuation
	callee := c.Callee()
	if tc, ok := callee.(*ir.Continuation); ok {
		if tc.Intrinsic() == ir.IntrinsicBranch {
			for _, a := range c.Args()[2:] {
				if t, ok := a.(*ir.Continuation); ok && s.Contains(t) {
					out = append(out, t)
				}
			}
			return out
		}
		if s.Contains(tc) && !tc.IsReturning() {
			// A direct jump to a block of the scope.
			return []*ir.Continuation{tc}
		}
		// A call to a returning continuation — even a recursive call to a
		// function in this very scope — runs in a fresh activation; control
		// re-enters this scope at the continuation-typed arguments (the
		// return continuation), so fall through to the argument rule.
	}
	// The call transfers to another activation (function, intrinsic, param
	// or first-class function value): any continuation-typed argument inside
	// the scope may be the next thing to run.
	for _, a := range c.Args() {
		if t, ok := a.(*ir.Continuation); ok && s.Contains(t) {
			out = append(out, t)
		}
	}
	return out
}

// postorderReversed returns the nodes reachable from entry in reverse
// postorder.
func postorderReversed(entry *Node, w *ir.World) []*Node {
	var order []*Node
	seen := tableFor(w)
	defer gidtab.Put(seen)
	var dfs func(n *Node)
	dfs = func(n *Node) {
		if !seen.Add(n.Cont.GID()) {
			return
		}
		for _, s := range n.Succs {
			dfs(s)
		}
		order = append(order, n)
	}
	dfs(entry)
	slices.Reverse(order)
	return order
}

// NodeOf returns the CFG node for c, or nil if c is not a reachable node.
func (g *CFG) NodeOf(c *ir.Continuation) *Node {
	i := g.Scope.contIndex(c)
	if i < 0 || g.nodes[i].Cont == nil {
		return nil
	}
	return &g.nodes[i]
}

// Entry returns the entry node.
func (g *CFG) Entry() *Node { return g.Nodes[0] }

// String renders the CFG edges for debugging.
func (g *CFG) String() string {
	s := ""
	for _, n := range g.Nodes {
		s += fmt.Sprintf("%s ->", n)
		for _, t := range n.Succs {
			s += " " + t.String()
		}
		s += "\n"
	}
	return s
}
