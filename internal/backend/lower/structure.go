package lower

import "thorin/internal/analysis"

// Structure is the control-flow shape a structured target (wasm) needs on
// top of the schedule: which nodes are merge points (they get an enclosing
// block whose label forward branches target), which are loop headers (they
// get an enclosing loop whose label back edges target), and each node's
// merge children in the dominator tree. The construction follows Ramsey's
// "Beyond Relooper" recipe over the CFG, its dominator tree and the loop
// headers of analysis.LoopDepths: reverse postorder decides block nesting,
// so every forward branch targets a label that is still open. Every slice
// is indexed by Node.Index.
type Structure struct {
	f *Func
	// merge marks nodes with two or more forward in-edges.
	merge []bool
	// header marks loop headers (nodes with a back in-edge).
	header []bool
	// mergeChildren lists each node's dominator-tree children that are
	// merge nodes, in ascending reverse-postorder index — the last child
	// gets the outermost enclosing block.
	mergeChildren [][]*analysis.Node
}

// NewStructure analyzes f's CFG for structured emission.
func NewStructure(f *Func) *Structure {
	nodes := f.Nodes()
	dom := f.Sched.Dom
	_, header := analysis.LoopDepths(f.Sched.CFG, dom)
	s := &Structure{
		f:             f,
		merge:         make([]bool, len(nodes)),
		header:        header,
		mergeChildren: make([][]*analysis.Node, len(nodes)),
	}
	for _, n := range nodes {
		// An in-edge p→n is a back edge iff n dominates p.
		forward := 0
		for _, p := range n.Preds {
			if !dom.Dominates(n, p) {
				forward++
			}
		}
		s.merge[n.Index] = forward >= 2
	}
	// Dominator-tree children in ascending RPO: CFG.Nodes is already in
	// reverse postorder, so a forward sweep appends children in order.
	for _, n := range nodes[1:] {
		if s.merge[n.Index] {
			idom := dom.IDom(n).Index
			s.mergeChildren[idom] = append(s.mergeChildren[idom], n)
		}
	}
	return s
}

// IsLoopHeader reports whether n has a back in-edge and therefore needs an
// enclosing loop label.
func (s *Structure) IsLoopHeader(n *analysis.Node) bool { return s.header[n.Index] }

// MergeChildren returns n's merge-node dominator children in ascending
// reverse-postorder index.
func (s *Structure) MergeChildren(n *analysis.Node) []*analysis.Node {
	return s.mergeChildren[n.Index]
}

// Inlinable reports whether target can be emitted inline at a jump from
// src: it is not a merge point (single forward predecessor, necessarily
// src, so src immediately dominates it). Loop headers can be inlined too —
// the emitter wraps them in their loop on arrival. A jump to a node that
// is neither labeled nor inlinable means the CFG is irreducible.
func (s *Structure) Inlinable(src, target *analysis.Node) bool {
	return !s.merge[target.Index] && s.f.Sched.Dom.IDom(target) == src
}
