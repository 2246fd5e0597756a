package analysis

// LoopDepths returns, indexed by Node.Index, each node's loop nesting depth
// (0 = not in a loop) and whether it heads a natural loop. An edge u→h is a
// back edge iff h dominates u; h's natural loop is h plus every node that
// reaches the source of one of its back edges without passing through h.
// Natural loops with distinct headers are disjoint or nested, so a node's
// depth is the number of natural loops that contain it.
func LoopDepths(g *CFG, dom *DomTree) (depth []int, header []bool) {
	depth = make([]int, len(g.Nodes))
	header = make([]bool, len(g.Nodes))
	in := make([]int, len(g.Nodes)) // h.Index+1 once counted in h's loop
	var stack []*Node
	add := func(n *Node, mark int) {
		if in[n.Index] != mark {
			in[n.Index] = mark
			depth[n.Index]++
			stack = append(stack, n)
		}
	}
	for _, h := range g.Nodes {
		mark := h.Index + 1
		for _, u := range h.Preds {
			if !dom.Dominates(h, u) {
				continue
			}
			if !header[h.Index] {
				header[h.Index] = true
				in[h.Index] = mark // the walk stops at h
				depth[h.Index]++
			}
			add(u, mark)
			for len(stack) > 0 {
				n := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				for _, p := range n.Preds {
					add(p, mark)
				}
			}
		}
	}
	return depth, header
}
