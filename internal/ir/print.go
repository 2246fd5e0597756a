package ir

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// printer resolves display names, disambiguating duplicate continuation
// names (specialization copies often share one) with a #gid suffix so dumps
// can be parsed back (see ParseWorld).
type printer struct {
	out      io.Writer
	contName map[*Continuation]string
}

func newPrinter(out io.Writer, conts []*Continuation) *printer {
	p := &printer{out: out, contName: map[*Continuation]string{}}
	count := map[string]int{}
	for _, c := range conts {
		count[c.name]++
	}
	for _, c := range conts {
		if count[c.name] > 1 {
			p.contName[c] = fmt.Sprintf("%s#%d", c.name, c.gid)
		} else {
			p.contName[c] = c.name
		}
	}
	return p
}

// Print writes a human-readable dump of every continuation with a body to
// out, grouped per continuation in gid order. PrimOps reachable from a body
// are printed as let-bindings in dependency order. The format is parseable
// by ParseWorld.
func Print(out io.Writer, w *World) {
	conts := w.Continuations()
	sort.Slice(conts, func(i, j int) bool { return conts[i].gid < conts[j].gid })
	p := newPrinter(out, conts)
	for _, c := range conts {
		if c.IsIntrinsic() {
			continue
		}
		p.printContinuation(c)
	}
}

func (p *printer) printContinuation(c *Continuation) {
	ps := make([]string, len(c.params))
	for i, prm := range c.params {
		ps[i] = fmt.Sprintf("%s: %s", p.defName(prm), prm.Type())
	}
	ext := ""
	if c.extern {
		ext = "extern "
	}
	fmt.Fprintf(p.out, "%s%s(%s)", ext, p.contName[c], strings.Join(ps, ", "))
	if !c.HasBody() {
		fmt.Fprintf(p.out, " = <unset>\n\n")
		return
	}
	fmt.Fprintf(p.out, " = {\n")

	// Collect primops feeding the body, topo-ordered.
	var order []*PrimOp
	seen := map[Def]bool{}
	var visit func(d Def)
	visit = func(d Def) {
		if seen[d] {
			return
		}
		seen[d] = true
		prim, ok := d.(*PrimOp)
		if !ok {
			return
		}
		for _, op := range prim.Ops() {
			visit(op)
		}
		order = append(order, prim)
	}
	for _, op := range c.Ops() {
		visit(op)
	}
	for _, prim := range order {
		args := make([]string, len(prim.Ops()))
		for i, op := range prim.Ops() {
			args[i] = p.defName(op)
		}
		fmt.Fprintf(p.out, "    %s = %s %s(%s)\n",
			p.defName(prim), prim.Type(), prim.kind, strings.Join(args, ", "))
	}
	args := make([]string, c.NumArgs())
	for i := range args {
		args[i] = p.defName(c.Arg(i))
	}
	fmt.Fprintf(p.out, "    %s(%s)\n}\n\n", p.defName(c.Callee()), strings.Join(args, ", "))
}

// DumpString returns the printed form of the world as a string.
func DumpString(w *World) string {
	var sb strings.Builder
	Print(&sb, w)
	return sb.String()
}

func (p *printer) defName(d Def) string {
	switch d := d.(type) {
	case *Literal:
		return d.String()
	case *Param:
		if d.name != "" {
			return fmt.Sprintf("%s_%d", sanitizeName(d.name), d.gid)
		}
		return fmt.Sprintf("%s.p%d", p.contName[d.cont], d.index)
	case *Continuation:
		if n, ok := p.contName[d]; ok {
			return n
		}
		return d.name
	case *PrimOp:
		if d.name != "" {
			return fmt.Sprintf("%s_%d", sanitizeName(d.name), d.gid)
		}
		return fmt.Sprintf("_%d", d.gid)
	}
	return "?"
}

// reservedNameChars are the characters of the dump syntax that a printed
// name cannot contain.
const reservedNameChars = "(),:= #"

// sanitizeName replaces each reserved character with '_'.
func sanitizeName(s string) string {
	return strings.Map(func(r rune) rune {
		if strings.ContainsRune(reservedNameChars, r) {
			return '_'
		}
		return r
	}, s)
}
