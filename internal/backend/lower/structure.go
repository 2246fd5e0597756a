package lower

import "thorin/internal/analysis"

// Structure is the control-flow shape a structured target (wasm) needs on
// top of the schedule: which nodes are merge points (they get an enclosing
// block whose label forward branches target), which are loop headers (they
// get an enclosing loop whose label back edges target), and each node's
// merge children in the dominator tree. The construction follows Ramsey's
// "Beyond Relooper" recipe over the existing CFG/dominator-tree/loop-forest
// trio: reverse postorder decides block nesting, so every forward branch
// targets a label that is still open.
type Structure struct {
	f *Func
	// merge marks nodes with two or more forward in-edges.
	merge map[*analysis.Node]bool
	// header marks loop headers (nodes with a back in-edge).
	header map[*analysis.Node]bool
	// mergeChildren lists each node's dominator-tree children that are
	// merge nodes, in ascending reverse-postorder index — the last child
	// gets the outermost enclosing block.
	mergeChildren map[*analysis.Node][]*analysis.Node
}

// NewStructure analyzes f's CFG for structured emission.
func NewStructure(f *Func) *Structure {
	s := &Structure{
		f:             f,
		merge:         map[*analysis.Node]bool{},
		header:        map[*analysis.Node]bool{},
		mergeChildren: map[*analysis.Node][]*analysis.Node{},
	}
	dom := f.Sched.Dom
	for _, n := range f.Nodes() {
		forward := 0
		for _, p := range n.Preds {
			if s.IsBackEdge(p, n) {
				s.header[n] = true
			} else {
				forward++
			}
		}
		if forward >= 2 {
			s.merge[n] = true
		}
	}
	// Dominator-tree children in ascending RPO: CFG.Nodes is already in
	// reverse postorder, so a forward sweep appends children in order.
	for _, n := range f.Nodes() {
		if n == f.Nodes()[0] {
			continue
		}
		if idom := dom.IDom(n); idom != nil && s.merge[n] {
			s.mergeChildren[idom] = append(s.mergeChildren[idom], n)
		}
	}
	return s
}

// IsBackEdge reports whether the CFG edge p→n closes a loop: in a
// reducible CFG every retreating edge targets a dominator of its source.
func (s *Structure) IsBackEdge(p, n *analysis.Node) bool {
	return s.f.Sched.Dom.Dominates(n, p)
}

// IsLoopHeader reports whether n has a back in-edge and therefore needs an
// enclosing loop label.
func (s *Structure) IsLoopHeader(n *analysis.Node) bool { return s.header[n] }

// MergeChildren returns n's merge-node dominator children in ascending
// reverse-postorder index.
func (s *Structure) MergeChildren(n *analysis.Node) []*analysis.Node {
	return s.mergeChildren[n]
}

// Inlinable reports whether target can be emitted inline at a jump from
// src: it is not a merge point (single forward predecessor, necessarily
// src, so src immediately dominates it). Loop headers can be inlined too —
// the emitter wraps them in their loop on arrival. A jump to a node that
// is neither labeled nor inlinable means the CFG is irreducible.
func (s *Structure) Inlinable(src, target *analysis.Node) bool {
	if s.merge[target] {
		return false
	}
	return s.f.Sched.Dom.IDom(target) == src
}
