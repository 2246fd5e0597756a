package analysis

import (
	"thorin/internal/ir"
)

// This file implements the region alias analysis behind dead-store
// elimination and read-only load hoisting: allocation sites (slots,
// allocs, globals) whose address provably never escapes form singleton
// alias regions, everything else melts into the conservative ⊤ region. The lattice is flat — a
// pointer either traces to exactly one non-escaped site or it is ⊤ — which
// is all the disjointness the passes need:
//
//   - two distinct non-escaped sites never alias,
//   - a non-escaped site never aliases ⊤ (the escape invariant: every
//     pointer to a non-escaped cell is a tracked projection of its site,
//     so an unknown pointer cannot reach it),
//   - ⊤ may alias ⊤.

// AliasOracle answers world-wide escape and aliasing queries about
// allocation sites. It is scope-free: escape is decided by walking the
// site's use lists, which span every scope of the world, so the answers
// are sound wherever the site is referenced. Queries memoize; an oracle
// must not be reused across IR rewrites.
type AliasOracle struct {
	escaped map[*ir.PrimOp]bool
	stores  map[*ir.PrimOp]int // tracked stores through the site's projections
	loads   map[*ir.PrimOp]int
}

// NewAliasOracle returns an empty oracle for on-demand queries.
func NewAliasOracle() *AliasOracle {
	return &AliasOracle{
		escaped: map[*ir.PrimOp]bool{},
		stores:  map[*ir.PrimOp]int{},
		loads:   map[*ir.PrimOp]int{},
	}
}

// SiteOf traces ptr to the allocation site it points into: through lea
// chains to the base pointer, through the address projection of a slot or
// alloc, or to a global node itself. It returns nil for pointers with no
// statically known site (params, loaded pointers, closure environment).
func SiteOf(ptr ir.Def) *ir.PrimOp {
	for {
		p, ok := ptr.(*ir.PrimOp)
		if !ok {
			return nil
		}
		switch p.OpKind() {
		case ir.OpGlobal:
			return p
		case ir.OpLea:
			ptr = p.Op(0)
		case ir.OpExtract:
			src, ok := p.Op(0).(*ir.PrimOp)
			if !ok {
				return nil
			}
			if i, iok := ir.LitValue(p.Op(1)); !iok || i != 1 {
				return nil
			}
			switch src.OpKind() {
			case ir.OpSlot, ir.OpAlloc:
				return src
			}
			return nil
		default:
			return nil
		}
	}
}

// Escapes reports whether site's address may be observed through anything
// but its tracked projections: the address stored as a value, passed to a
// continuation, or reaching any use the walk does not understand. Escaped
// sites fall into the ⊤ region. Results are memoized.
func (o *AliasOracle) Escapes(site *ir.PrimOp) bool {
	if esc, ok := o.escaped[site]; ok {
		return esc
	}
	// Seed optimistically so cyclic lea chains (impossible, but cheap to
	// guard) terminate; the sweep overwrites the entry before returning.
	o.escaped[site] = true
	esc, stores, loads := walkSite(site)
	o.escaped[site] = esc
	o.stores[site] = stores
	o.loads[site] = loads
	return esc
}

// StoreCount returns the number of stores writing through the site's
// tracked projections, across the whole world. Meaningful only for
// non-escaped sites (an escaped site can be written through untracked
// aliases).
func (o *AliasOracle) StoreCount(site *ir.PrimOp) int {
	o.Escapes(site) // ensure the walk ran
	return o.stores[site]
}

// MayAlias reports whether stores through p1 can be observed by loads
// through p2 (or vice versa).
func (o *AliasOracle) MayAlias(p1, p2 ir.Def) bool {
	s1, s2 := SiteOf(p1), SiteOf(p2)
	if s1 != nil && o.Escapes(s1) {
		s1 = nil
	}
	if s2 != nil && o.Escapes(s2) {
		s2 = nil
	}
	switch {
	case s1 != nil && s2 != nil:
		return s1 == s2
	case s1 == nil && s2 == nil:
		return true // ⊤ vs ⊤
	default:
		return false // a non-escaped site is unreachable from unknown pointers
	}
}

// walkSite scans every use of the site's address projections, world-wide.
func walkSite(site *ir.PrimOp) (escaped bool, stores, loads int) {
	seen := map[ir.Def]bool{}
	var visitPtr func(d ir.Def)
	// visitPtr walks the uses of a pointer derived from the site.
	visitPtr = func(d ir.Def) {
		if seen[d] {
			return
		}
		seen[d] = true
		d.EachUse(func(u ir.Use) bool {
			p, ok := u.Def.(*ir.PrimOp)
			if !ok {
				escaped = true // jump argument: the address leaves the graph we track
				return true
			}
			switch p.OpKind() {
			case ir.OpLoad:
				if u.Index == 1 {
					loads++
				} else {
					escaped = true
				}
			case ir.OpStore:
				if u.Index == 1 {
					stores++
				} else {
					escaped = true // the address itself is stored as a value
				}
			case ir.OpLea:
				if u.Index == 0 {
					visitPtr(p)
				} else {
					escaped = true
				}
			case ir.OpALen:
				// Length inspection does not leak the address.
			default:
				escaped = true
			}
			return true
		})
	}

	if site.OpKind() == ir.OpGlobal {
		visitPtr(site)
		return
	}
	// Slot/alloc results are (mem, ptr) tuples: projections at index 1 are
	// the address, index 0 the memory token; anything else observes the
	// aggregate and escapes the site.
	site.EachUse(func(u ir.Use) bool {
		e := ir.AsPrimOp(u.Def, ir.OpExtract)
		if e == nil || u.Index != 0 {
			escaped = true
			return true
		}
		switch i, ok := ir.LitValue(e.Op(1)); {
		case !ok:
			escaped = true
		case i == 1:
			visitPtr(e)
		}
		return true
	})
	return
}

// ReadOnlyIn reports whether ptr points into a read-only alias region of
// scope s: a non-escaped allocation site that is never stored to, anywhere
// in the world. Slots and allocs free in s (defined by an enclosing scope)
// never qualify, whatever their escape status — the enclosing activation
// may interleave accesses s cannot see. Globals are the exception: they
// belong to no scope, but the oracle's escape and store counts span the
// whole world, so the same argument justifies them anywhere. Loads through
// such a pointer are pure values as far as scheduling is concerned.
func (o *AliasOracle) ReadOnlyIn(s *Scope, ptr ir.Def) bool {
	site := SiteOf(ptr)
	if site == nil || (site.OpKind() != ir.OpGlobal && !s.Contains(site)) {
		return false
	}
	return !o.Escapes(site) && o.StoreCount(site) == 0
}
