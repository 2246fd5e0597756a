package analysis

// DomTree is a dominator tree over a CFG, computed with the iterative
// algorithm of Cooper, Harvey and Kennedy.
type DomTree struct {
	root  *Node
	idom  map[*Node]*Node
	depth map[*Node]int
	kids  map[*Node][]*Node
}

// NewDomTree computes the dominator tree of g.
func NewDomTree(g *CFG) *DomTree {
	t := &DomTree{
		root:  g.Nodes[0],
		idom:  make(map[*Node]*Node),
		depth: make(map[*Node]int),
		kids:  make(map[*Node][]*Node),
	}
	order := g.Nodes // reverse postorder

	rpoIndex := make(map[*Node]int, len(order))
	for i, n := range order {
		rpoIndex[n] = i
	}

	t.idom[t.root] = t.root
	changed := true
	for changed {
		changed = false
		for _, n := range order {
			if n == t.root {
				continue
			}
			var newIdom *Node
			for _, p := range n.Preds {
				if _, ok := t.idom[p]; !ok {
					continue
				}
				if newIdom == nil {
					newIdom = p
				} else {
					newIdom = t.intersect(rpoIndex, p, newIdom)
				}
			}
			if newIdom == nil {
				continue // unreachable
			}
			if t.idom[n] != newIdom {
				t.idom[n] = newIdom
				changed = true
			}
		}
	}

	// Children and depths.
	for n, d := range t.idom {
		if n != t.root {
			t.kids[d] = append(t.kids[d], n)
		}
	}
	var setDepth func(n *Node, d int)
	setDepth = func(n *Node, d int) {
		t.depth[n] = d
		for _, k := range t.kids[n] {
			setDepth(k, d+1)
		}
	}
	setDepth(t.root, 0)
	return t
}

func (t *DomTree) intersect(rpo map[*Node]int, a, b *Node) *Node {
	for a != b {
		for rpo[a] > rpo[b] {
			a = t.idom[a]
		}
		for rpo[b] > rpo[a] {
			b = t.idom[b]
		}
	}
	return a
}

// Root returns the tree root, the entry.
func (t *DomTree) Root() *Node { return t.root }

// IDom returns the immediate dominator of n (the root dominates itself).
func (t *DomTree) IDom(n *Node) *Node { return t.idom[n] }

// Depth returns n's depth in the dominator tree.
func (t *DomTree) Depth(n *Node) int { return t.depth[n] }

// Children returns the nodes immediately dominated by n.
func (t *DomTree) Children(n *Node) []*Node { return t.kids[n] }

// Dominates reports whether a dominates b.
func (t *DomTree) Dominates(a, b *Node) bool {
	for {
		if a == b {
			return true
		}
		if b == t.root {
			return false
		}
		nb, ok := t.idom[b]
		if !ok || nb == b {
			return false
		}
		b = nb
	}
}

// LCA returns the least common ancestor of a and b in the dominator tree.
func (t *DomTree) LCA(a, b *Node) *Node {
	for t.depth[a] > t.depth[b] {
		a = t.idom[a]
	}
	for t.depth[b] > t.depth[a] {
		b = t.idom[b]
	}
	for a != b {
		a = t.idom[a]
		b = t.idom[b]
	}
	return a
}
