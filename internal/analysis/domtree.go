package analysis

// DomTree is a dominator tree over a CFG, computed with the iterative
// algorithm of Cooper, Harvey and Kennedy. Both slices are indexed by
// Node.Index, the reverse-postorder number.
type DomTree struct {
	idom  []*Node
	depth []int
}

// NewDomTree computes the dominator tree of g.
func NewDomTree(g *CFG) *DomTree {
	order := g.Nodes // reverse postorder
	t := &DomTree{idom: make([]*Node, len(order)), depth: make([]int, len(order))}
	t.idom[0] = order[0]
	changed := true
	for changed {
		changed = false
		for _, n := range order[1:] {
			var newIdom *Node
			for _, p := range n.Preds {
				if t.idom[p.Index] == nil {
					continue
				}
				if newIdom == nil {
					newIdom = p
				} else {
					newIdom = t.intersect(p, newIdom)
				}
			}
			if newIdom == nil {
				continue // unreachable
			}
			if t.idom[n.Index] != newIdom {
				t.idom[n.Index] = newIdom
				changed = true
			}
		}
	}

	// An idom precedes its node in reverse postorder, so one forward sweep
	// sees every parent's depth before its children's.
	for _, n := range order[1:] {
		t.depth[n.Index] = t.depth[t.idom[n.Index].Index] + 1
	}
	return t
}

func (t *DomTree) intersect(a, b *Node) *Node {
	for a != b {
		for a.Index > b.Index {
			a = t.idom[a.Index]
		}
		for b.Index > a.Index {
			b = t.idom[b.Index]
		}
	}
	return a
}

// IDom returns the immediate dominator of n (the root dominates itself).
func (t *DomTree) IDom(n *Node) *Node { return t.idom[n.Index] }

// Depth returns n's depth in the dominator tree.
func (t *DomTree) Depth(n *Node) int { return t.depth[n.Index] }

// Dominates reports whether a dominates b: climbing from b to a's depth
// reaches a.
func (t *DomTree) Dominates(a, b *Node) bool {
	for t.depth[b.Index] > t.depth[a.Index] {
		b = t.idom[b.Index]
	}
	return a == b
}

// LCA returns the least common ancestor of a and b in the dominator tree.
func (t *DomTree) LCA(a, b *Node) *Node {
	for t.depth[a.Index] > t.depth[b.Index] {
		a = t.idom[a.Index]
	}
	for t.depth[b.Index] > t.depth[a.Index] {
		b = t.idom[b.Index]
	}
	for a != b {
		a = t.idom[a.Index]
		b = t.idom[b.Index]
	}
	return a
}
