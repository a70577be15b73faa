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
	path, idx, err := t.findLeaf(t.root, t.height, r, rec)
	if err != nil {
		return err
	}
	leaf := path[len(path)-1].node
	leaf.Entries = append(leaf.Entries[:idx], leaf.Entries[idx+1:]...)

	// Condense: walk the path bottom-up; underfull non-root nodes are
	// removed and their entries queued for reinsertion at their level. A
	// node whose rectangle comes out as it was ends the walk: nothing
	// above it changed.
	type orphan struct {
		entries []Entry
		level   int
	}
	var orphans []orphan
	for i := len(path) - 1; i >= 0; i-- {
		n := path[i].node
		if minE, _ := t.Capacity(n.Leaf); i > 0 && len(n.Entries) < minE {
			orphans = append(orphans, orphan{entries: n.Entries, level: t.height - i})
			parent := path[i-1].node
			parent.Entries = append(parent.Entries[:path[i].entryIdx], parent.Entries[path[i].entryIdx+1:]...)
			// Re-index siblings' stored positions in the remaining path is
			// unnecessary: only this branch of the path is walked.
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
		root, err := t.loadOwned(t.root)
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

	// Reinsert orphaned entries at their original levels.
	for _, o := range orphans {
		for _, e := range o.entries {
			level := o.level
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
// shrinkage removed the level an orphan belonged to.
func (t *Tree) reinsertSubtree(e Entry, level int) error {
	if level == 1 {
		return t.insertAtLevel(e, 1, new(levelSet))
	}
	n, err := t.loadOwned(e.Child)
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

// findLeaf locates the leaf containing (r, rec), returning the path to it
// and the entry index inside the leaf.
func (t *Tree) findLeaf(id storage.PageID, level int, r geom.Rect, rec int64) ([]pathElem, int, error) {
	n, err := t.loadOwned(id)
	if err != nil {
		return nil, 0, err
	}
	if n.Leaf {
		for i, e := range n.Entries {
			if e.Rec == rec && rectsEqual(e.Rect, r) {
				return []pathElem{{node: n, entryIdx: -1}}, i, nil
			}
		}
		return nil, 0, ErrNotFound
	}
	for i, e := range n.Entries {
		if !e.Rect.ContainsRect(r) {
			continue
		}
		sub, idx, err := t.findLeaf(e.Child, level-1, r, rec)
		if err == nil {
			path := append([]pathElem{{node: n, entryIdx: -1}}, sub...)
			path[1].entryIdx = i
			return path, idx, nil
		}
		if !errors.Is(err, ErrNotFound) {
			return nil, 0, err
		}
	}
	return nil, 0, ErrNotFound
}
