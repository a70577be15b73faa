package rtree

import (
	"tsq/internal/geom"
	"tsq/internal/storage"
)

// SearchStats reports the work done by one traversal.
type SearchStats struct {
	// NodeAccesses counts every node fetched, all levels (the paper's
	// DA_all).
	NodeAccesses int
	// LeafAccesses counts leaf nodes fetched (the paper's DA_leaf).
	LeafAccesses int
	// Pruned counts internal entries Search did not descend into because
	// their rectangles miss the query rectangle. It measures the filtering
	// power the paper's disk-access figures come from.
	Pruned int
}

// Search returns the record ids of all entries whose rectangles intersect
// query, plus traversal statistics.
func (t *Tree) Search(query geom.Rect) ([]int64, SearchStats, error) {
	var out []int64
	var st SearchStats
	slots := t.AcquireSlots()
	defer slots.Release()
	err := t.walk(slots, 0, t.root, query, &st, &out)
	return out, st, err
}

// walk collects into out the records under node id whose rectangles
// intersect query, decoding each level of the descent into its own slot.
func (t *Tree) walk(slots *Slots, depth int, id storage.PageID, query geom.Rect, st *SearchStats, out *[]int64) error {
	n, err := t.LoadInto(nil, id, slots.At(depth))
	if err != nil {
		return err
	}
	st.NodeAccesses++
	if n.Leaf {
		st.LeafAccesses++
	}
	for _, e := range n.Entries {
		switch {
		case !e.Rect.Intersects(query):
			if !n.Leaf {
				st.Pruned++
			}
		case n.Leaf:
			*out = append(*out, e.Rec)
		default:
			if err := t.walk(slots, depth+1, e.Child, query, st, out); err != nil {
				return err
			}
		}
	}
	return nil
}

// Visit walks the whole tree in depth-first order, calling fn for every
// node. It is used by integrity checks and debugging tools. The node is
// decoded into a slot the walk reuses: it is valid only during the
// callback, which must copy whatever it keeps (rectangles included).
func (t *Tree) Visit(fn func(n *Node, level int) error) error {
	slots := t.AcquireSlots()
	defer slots.Release()
	return t.visit(slots, t.root, t.height, fn)
}

func (t *Tree) visit(slots *Slots, id storage.PageID, level int, fn func(n *Node, level int) error) error {
	n, err := t.LoadInto(nil, id, slots.At(t.height-level))
	if err != nil {
		return err
	}
	if err := fn(n, level); err != nil {
		return err
	}
	if n.Leaf {
		return nil
	}
	for _, e := range n.Entries {
		if err := t.visit(slots, e.Child, level-1, fn); err != nil {
			return err
		}
	}
	return nil
}

// CheckInvariants verifies structural invariants of the tree: every
// internal entry's rectangle equals the MBR of its child, nodes respect
// their kind's capacity bounds (root exempt from the minimum), all leaves
// are at the same level and of the kind the meta page names, and the
// record count matches Len. It returns a descriptive error on the first
// violation.
func (t *Tree) CheckInvariants() error {
	var records int64
	var problem error
	err := t.Visit(func(n *Node, level int) error {
		if problem != nil {
			return problem
		}
		if n.Leaf && level != 1 {
			problem = errLeafLevel(n.ID, level)
			return problem
		}
		if !n.Leaf && level == 1 {
			problem = errLeafLevel(n.ID, level)
			return problem
		}
		if n.Leaf && n.kind != t.leafKind {
			problem = errKind(n.ID, n.kind, t.leafKind)
			return problem
		}
		minE, maxE := t.Capacity(n.Leaf)
		if n.ID == t.root {
			minE = 0
		}
		if len(n.Entries) < minE || len(n.Entries) > maxE {
			problem = errCapacity(n.ID, len(n.Entries), minE, maxE)
			return problem
		}
		if n.Leaf {
			records += int64(len(n.Entries))
			return nil
		}
		for _, e := range n.Entries {
			child, err := t.Load(e.Child)
			if err != nil {
				return err
			}
			cm := child.mbr()
			if !rectsEqual(e.Rect, cm) {
				problem = errMBR(n.ID, e.Child)
				return problem
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	if records != t.size {
		return errCount(records, t.size)
	}
	return nil
}

func rectsEqual(a, b geom.Rect) bool {
	for i := range a.Lo {
		if a.Lo[i] != b.Lo[i] || a.Hi[i] != b.Hi[i] {
			return false
		}
	}
	return true
}
