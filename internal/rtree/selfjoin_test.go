package rtree

// The synchronized self-join: a second traversal shape over the tree
// (two slots per level, a node joined with itself loaded once) that the
// slot, fault and brute-force tests exercise. The query engine's joins
// run in internal/core, so this lives with the tests.

import (
	"tsq/internal/geom"
	"tsq/internal/storage"
)

// JoinPair is one result of a spatial self-join.
type JoinPair struct {
	RecA, RecB int64
}

// SelfJoin returns all pairs of records whose rectangles come within eps of
// each other (RectMinDist <= eps), using a synchronized depth-first
// traversal of the tree against itself. Pairs are reported once with
// RecA < RecB; the pair (r, r) is not reported.
func (t *Tree) SelfJoin(eps float64) ([]JoinPair, SearchStats, error) {
	var st SearchStats
	var out []JoinPair
	slots := t.AcquireSlots()
	defer slots.Release()
	err := t.joinNodes(slots, 0, t.root, t.root, eps, &st, &out)
	return out, st, err
}

// joinNodes joins the subtrees rooted at a and b. Loading is counted per
// visit; when a == b the node is loaded once. Each recursion depth holds
// its pair of nodes in slots 2*depth and 2*depth+1.
func (t *Tree) joinNodes(slots *Slots, depth int, a, b storage.PageID, eps float64, st *SearchStats, out *[]JoinPair) error {
	na, err := t.LoadInto(nil, a, slots.At(2*depth))
	if err != nil {
		return err
	}
	st.NodeAccesses++
	if na.Leaf {
		st.LeafAccesses++
	}
	var nb *Node
	if a == b {
		nb = na
	} else {
		nb, err = t.LoadInto(nil, b, slots.At(2*depth+1))
		if err != nil {
			return err
		}
		st.NodeAccesses++
		if nb.Leaf {
			st.LeafAccesses++
		}
	}
	switch {
	case na.Leaf && nb.Leaf:
		for i, ea := range na.Entries {
			jStart := 0
			if a == b {
				jStart = i + 1
			}
			for _, eb := range nb.Entries[jStart:] {
				if ea.Rec == eb.Rec {
					continue
				}
				if geom.RectMinDist(ea.Rect, eb.Rect) <= eps {
					ra, rb := ea.Rec, eb.Rec
					if ra > rb {
						ra, rb = rb, ra
					}
					*out = append(*out, JoinPair{RecA: ra, RecB: rb})
				}
			}
		}
	case !na.Leaf && !nb.Leaf:
		for i, ea := range na.Entries {
			jStart := 0
			if a == b {
				jStart = i // include (i, i): records inside one subtree join among themselves
			}
			for _, eb := range nb.Entries[jStart:] {
				if geom.RectMinDist(ea.Rect, eb.Rect) <= eps {
					if err := t.joinNodes(slots, depth+1, ea.Child, eb.Child, eps, st, out); err != nil {
						return err
					}
				}
			}
		}
	case na.Leaf && !nb.Leaf:
		for _, eb := range nb.Entries {
			if err := t.joinNodes(slots, depth+1, a, eb.Child, eps, st, out); err != nil {
				return err
			}
		}
	default: // !na.Leaf && nb.Leaf
		for _, ea := range na.Entries {
			if err := t.joinNodes(slots, depth+1, ea.Child, b, eps, st, out); err != nil {
				return err
			}
		}
	}
	return nil
}
