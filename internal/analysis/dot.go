package analysis

import (
	"fmt"
	"io"

	"thorin/internal/ir"
)

// WriteScopeDot renders the dependency graph of a scope in Graphviz format:
// continuations as boxes, primops as ellipses, parameters as diamonds, with
// operand edges. Control transfers (a continuation's callee) are drawn bold.
func WriteScopeDot(out io.Writer, s *Scope) {
	fmt.Fprintf(out, "digraph %q {\n", s.Entry.Name())
	fmt.Fprintln(out, "  rankdir=TB; node [fontname=\"monospace\"];")

	id := func(d ir.Def) string { return fmt.Sprintf("n%d", d.GID()) }
	seen := map[ir.Def]bool{}

	var visit func(d ir.Def)
	declare := func(d ir.Def) {
		switch d := d.(type) {
		case *ir.Continuation:
			shape := "box"
			style := "solid"
			if d == s.Entry {
				style = "bold"
			}
			fmt.Fprintf(out, "  %s [label=%q shape=%s style=%s];\n", id(d), d.Name(), shape, style)
		case *ir.Param:
			fmt.Fprintf(out, "  %s [label=%q shape=diamond];\n", id(d), d.String())
		case *ir.PrimOp:
			fmt.Fprintf(out, "  %s [label=%q shape=ellipse];\n", id(d), d.OpKind().String())
		case *ir.Literal:
			fmt.Fprintf(out, "  %s [label=%q shape=plaintext];\n", id(d), d.String())
		}
	}
	visit = func(d ir.Def) {
		if seen[d] {
			return
		}
		seen[d] = true
		declare(d)
		c, isCont := d.(*ir.Continuation)
		if isCont && !s.Contains(c) {
			return // free function: a leaf
		}
		if !isCont {
			if _, isPrim := d.(*ir.PrimOp); !isPrim {
				return // params and literals are leaves
			}
		}
		for i, op := range d.Ops() {
			visit(op)
			attr := ""
			if isCont && i == 0 {
				attr = " [style=bold]"
			}
			fmt.Fprintf(out, "  %s -> %s%s;\n", id(d), id(op), attr)
		}
	}
	for _, c := range s.Conts {
		visit(c)
		for _, p := range c.Params() {
			if p.NumUses() > 0 {
				visit(p)
				fmt.Fprintf(out, "  %s -> %s [style=dotted arrowhead=none];\n", id(c), id(p))
			}
		}
	}
	fmt.Fprintln(out, "}")
}

// WriteCFGDot renders the scope's control-flow graph (one node per
// continuation, successor edges) in Graphviz format, annotating loop depths.
func WriteCFGDot(out io.Writer, s *Scope) {
	g := NewCFG(s)
	depth, _ := LoopDepths(g, NewDomTree(g))

	fmt.Fprintf(out, "digraph %q {\n", s.Entry.Name()+".cfg")
	fmt.Fprintln(out, "  node [shape=box fontname=\"monospace\"];")
	for _, n := range g.Nodes {
		label := n.Cont.Name()
		if d := depth[n.Index]; d > 0 {
			label = fmt.Sprintf("%s\\nloop depth %d", label, d)
		}
		fmt.Fprintf(out, "  b%d [label=%q];\n", n.Index, label)
	}
	fmt.Fprintln(out, "  exit [label=\"<exit>\" shape=plaintext];")
	for _, n := range g.Nodes {
		for _, t := range n.Succs {
			if t == g.Exit {
				fmt.Fprintf(out, "  b%d -> exit;\n", n.Index)
			} else {
				fmt.Fprintf(out, "  b%d -> b%d;\n", n.Index, t.Index)
			}
		}
	}
	fmt.Fprintln(out, "}")
}
