package rtree

import (
	"errors"
	"fmt"

	"tsq/internal/geom"
	"tsq/internal/storage"
)

// ErrNotFound is returned by Delete when no matching entry exists.
var ErrNotFound = errors.New("rtree: entry not found")

func errLeafLevel(id storage.PageID, level int) error {
	return fmt.Errorf("rtree: node %d is a leaf iff level==1, got level %d", id, level)
}

func errCapacity(id storage.PageID, n, lo, hi int) error {
	return fmt.Errorf("rtree: node %d has %d entries, want [%d, %d]", id, n, lo, hi)
}

func errKind(id storage.PageID, got, want byte) error {
	return fmt.Errorf("rtree: leaf %d is of kind %d, the tree's leaves are of kind %d", id, got, want)
}

func errMBR(parent, child storage.PageID) error {
	return fmt.Errorf("rtree: entry for child %d in node %d is not the child's MBR", child, parent)
}

func errCount(got, want int64) error {
	return fmt.Errorf("rtree: tree holds %d records, meta says %d", got, want)
}

// Delete removes the entry with the given rectangle and record id. It
// returns ErrNotFound if no such entry exists.
func (t *Tree) Delete(r geom.Rect, rec int64) error {
	t.begin()
	return t.end(t.delete(r, rec))
}

// delete is the body of Delete, run as one operation (writeSet).
func (t *Tree) delete(r geom.Rect, rec int64) error {
	t.path = t.path[:0]
	idx, err := t.findLeaf(t.root, -1, r, rec)
	if err != nil {
		return err
	}
	path := t.path
	leaf := path[len(path)-1].node
	leaf.Entries = append(leaf.Entries[:idx], leaf.Entries[idx+1:]...)

	// Condense: walk the path bottom-up; underfull non-root nodes are
	// removed and their entries copied out of their slots, to be
	// reinserted at their level. Only a node that lost an entry can
	// underflow, so the removed nodes are the lowest ones of the path, one
	// per level from the leaves up. A node whose rectangle comes out as it
	// was ends the walk: nothing above it changed.
	sc := &t.ovf
	orphans := 0
	for i := len(path) - 1; i >= 0; i-- {
		n := path[i].node
		if minE, _ := t.Capacity(n.Leaf); i > 0 && len(n.Entries) < minE {
			if len(sc.orphans) == orphans {
				sc.orphans = append(sc.orphans, held{})
			}
			sc.orphans[orphans].keep(n.Entries, t.dim)
			orphans++
			parent := path[i-1].node
			parent.Entries = append(parent.Entries[:path[i].entryIdx], parent.Entries[path[i].entryIdx+1:]...)
			t.free(n.ID)
			continue
		}
		if err := t.store(n); err != nil {
			return err
		}
		if i == 0 || !n.refit(path[i-1].node.Entries[path[i].entryIdx].Rect) {
			break
		}
	}

	// Shrink the root while it is an internal node with a single child.
	for {
		root, err := t.loadOp(t.root, t.writeSlot(0))
		if err != nil {
			return err
		}
		if root.Leaf || len(root.Entries) != 1 {
			break
		}
		old := t.root
		t.root = root.Entries[0].Child
		t.height--
		t.free(old)
	}

	// Reinsert the orphaned entries at their original levels, the leaves'
	// first.
	for o, orphan := range sc.orphans[:orphans] {
		level := o + 1
		for _, e := range orphan.entries {
			if level > t.height {
				// The tree shrank below the orphan's level; reinsert the
				// subtree's records instead.
				if err := t.reinsertSubtree(e, level); err != nil {
					return err
				}
				continue
			}
			if err := t.insertAtLevel(e, level, new(levelSet)); err != nil {
				return err
			}
		}
	}

	t.size--
	return t.writeMeta()
}

// reinsertSubtree reinserts every leaf record under entry e (which lived at
// the given level) one by one. Used only in the rare case where root
// shrinkage removed the level an orphan belonged to; its nodes are decoded
// into slots of their own, since the reinsertions reload the write slots.
func (t *Tree) reinsertSubtree(e Entry, level int) error {
	if level == 1 {
		return t.insertAtLevel(e, 1, new(levelSet))
	}
	n, err := t.loadOp(e.Child, newScratch(t.mgr.PageSize(), t.dim))
	if err != nil {
		return err
	}
	t.free(n.ID)
	for _, child := range n.Entries {
		if err := t.reinsertSubtree(child, level-1); err != nil {
			return err
		}
	}
	return nil
}

// findLeaf locates the leaf containing (r, rec) in the subtree of node id,
// whose entry index in its parent is entryIdx, and returns the entry's
// index inside the leaf. Each node of the subtree is decoded into the
// write slot of its depth and, while it is searched, appended to t.path,
// which on success holds the path from the node to the leaf.
func (t *Tree) findLeaf(id storage.PageID, entryIdx int, r geom.Rect, rec int64) (int, error) {
	depth := len(t.path)
	slot := t.writeSlot(depth)
	n, err := t.loadOp(id, slot)
	if err != nil {
		return 0, err
	}
	t.path = append(t.path, pathElem{node: n, slot: slot, entryIdx: entryIdx})
	for i, e := range n.Entries {
		if n.Leaf {
			if e.Rec == rec && rectsEqual(e.Rect, r) {
				return i, nil
			}
			continue
		}
		if !e.Rect.ContainsRect(r) {
			continue
		}
		idx, err := t.findLeaf(e.Child, i, r, rec)
		if !errors.Is(err, ErrNotFound) {
			return idx, err
		}
	}
	t.path = t.path[:depth]
	return 0, ErrNotFound
}
