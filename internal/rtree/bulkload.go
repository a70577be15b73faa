package rtree

import (
	"math"
	"sort"

	"tsq/internal/geom"
	"tsq/internal/storage"
)

// BulkItem is one record for bulk loading.
type BulkItem struct {
	Rect geom.Rect
	Rec  int64
}

// BulkLoad builds a tree of points from all items at once with
// Sort-Tile-Recursive packing (Leutenegger et al.): items are recursively
// sliced along each organised dimension (every one after the first
// carried, see Tree) by the center of their rectangles so every leaf
// holds ~M entries, then upper levels are packed the same way. The items
// must be points (ErrNotPoint otherwise); none makes an empty tree. The
// resulting tree has near-full nodes — fewer pages and fewer disk
// accesses per query than one grown by repeated insertion — and supports
// the same searches, inserts and deletes afterwards, which place by the
// same dimensions.
func BulkLoad(mgr *storage.Manager, dim, carried int, items []BulkItem) (*Tree, error) {
	m := meta{leafKind: kindPointLeaf, dim: dim}
	if len(items) == 0 {
		return create(mgr, m, carried)
	}
	t, err := newTree(mgr, m, carried)
	if err != nil {
		return nil, err
	}
	for _, it := range items {
		if err := t.fits(it.Rect); err != nil {
			return nil, err
		}
	}
	if t.metaID, err = mgr.Alloc(); err != nil {
		return nil, err
	}

	// Pack the leaf level.
	entries := make([]Entry, len(items))
	for i, it := range items {
		entries[i] = Entry{Rect: it.Rect.Clone(), Rec: it.Rec}
	}
	level, err := t.packLevel(entries, true)
	if err != nil {
		return nil, err
	}
	t.height = 1
	// Pack upper levels until one node remains.
	for len(level) > 1 {
		level, err = t.packLevel(level, false)
		if err != nil {
			return nil, err
		}
		t.height++
	}
	t.root = level[0].Child
	t.size = int64(len(items))
	return t, t.writeMeta()
}

// packLevel groups entries into nodes with STR tiling and returns the
// parent entries (MBR + child page) for the next level.
func (t *Tree) packLevel(entries []Entry, leaf bool) ([]Entry, error) {
	_, maxE := t.Capacity(leaf)
	groups := strTile(entries, maxE, t.dim, t.carried)
	parents := make([]Entry, 0, len(groups))
	for _, g := range groups {
		id, err := t.mgr.Alloc()
		if err != nil {
			return nil, err
		}
		n := &Node{ID: id, Leaf: leaf, Entries: g}
		if err := t.store(n); err != nil {
			return nil, err
		}
		parents = append(parents, Entry{Rect: n.mbr(), Child: id})
	}
	return parents, nil
}

// strTile recursively slices entries into groups of at most capacity,
// sorting by rectangle centers one dimension at a time from dimension d
// on.
func strTile(entries []Entry, capacity, dims, d int) [][]Entry {
	if len(entries) <= capacity {
		return [][]Entry{entries}
	}
	if d == dims-1 {
		// Final dimension: sort and chop into evenly-sized runs (even
		// distribution keeps every node above the minimum fill, which a
		// plain capacity-sized chop would violate with a small remainder).
		sortByCenter(entries, d)
		groups := int(math.Ceil(float64(len(entries)) / float64(capacity)))
		per := int(math.Ceil(float64(len(entries)) / float64(groups)))
		var out [][]Entry
		for start := 0; start < len(entries); start += per {
			end := start + per
			if end > len(entries) {
				end = len(entries)
			}
			out = append(out, entries[start:end])
		}
		return out
	}
	// Number of leaves still needed and slabs along this dimension.
	leaves := int(math.Ceil(float64(len(entries)) / float64(capacity)))
	slabs := int(math.Ceil(math.Pow(float64(leaves), 1/float64(dims-d))))
	if slabs < 1 {
		slabs = 1
	}
	sortByCenter(entries, d)
	per := int(math.Ceil(float64(len(entries)) / float64(slabs)))
	var out [][]Entry
	for start := 0; start < len(entries); start += per {
		end := start + per
		if end > len(entries) {
			end = len(entries)
		}
		out = append(out, strTile(entries[start:end], capacity, dims, d+1)...)
	}
	return out
}

func sortByCenter(entries []Entry, d int) {
	sort.SliceStable(entries, func(i, j int) bool {
		return entries[i].Rect.Lo[d]+entries[i].Rect.Hi[d] < entries[j].Rect.Lo[d]+entries[j].Rect.Hi[d]
	})
}
