package rtree

import (
	"fmt"
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
// holds ~M entries, then upper levels are packed the same way. units,
// if given, holds one length per organised dimension (units[i] for
// dimension carried+i): what one unit of that coordinate is worth in
// the distance the queries measure. Slabs are then sized so tiles are
// about equal-sided in those lengths; without units every dimension is
// cut into the same number of slabs. The units shape this build only
// and are not stored. The items must be points (ErrNotPoint otherwise);
// none makes an empty tree. The resulting tree has near-full nodes —
// fewer pages and fewer disk accesses per query than one grown by
// repeated insertion — and supports the same searches, inserts and
// deletes afterwards, which place by the same dimensions.
func BulkLoad(mgr *storage.Manager, dim, carried int, items []BulkItem, units ...float64) (*Tree, error) {
	m := meta{leafKind: kindPointLeaf, dim: dim}
	if len(items) == 0 {
		return create(mgr, m, carried)
	}
	if len(units) > 0 && len(units) != dim-carried {
		return nil, fmt.Errorf("rtree: %d units for %d organised dimensions", len(units), dim-carried)
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
	level, err := t.packLevel(entries, units, true)
	if err != nil {
		return nil, err
	}
	t.height = 1
	// Pack upper levels until one node remains.
	for len(level) > 1 {
		level, err = t.packLevel(level, units, false)
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
func (t *Tree) packLevel(entries []Entry, units []float64, leaf bool) ([]Entry, error) {
	_, maxE := t.Capacity(leaf)
	groups := strTile(entries, maxE, t.dim, t.carried, units)
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

// Tile cuts entries into groups of at most capacity with the STR slicing
// a build packs a level with, over the dimensions from the carried ones
// on and without units, sorting entries in place. It is how a caller
// lays out data that follows the tree's leaves (the index's record
// heap). Every group holds at least len/groups entries.
func Tile(entries []Entry, capacity, carried int) [][]Entry {
	if len(entries) == 0 {
		return nil
	}
	return strTile(entries, capacity, len(entries[0].Rect.Lo), carried, nil)
}

// strTile recursively slices entries into groups of at most capacity,
// sorting by rectangle centers one dimension at a time from dimension d
// on; the last dimension is cut into as many slabs as groups are needed.
// Every cut shares its entries evenly among its slabs, so no group holds
// fewer than len/groups entries, which keeps every node at its minimum
// fill (a capacity-sized chop leaves a small remainder).
func strTile(entries []Entry, capacity, dims, d int, units []float64) [][]Entry {
	if len(entries) <= capacity {
		return [][]Entry{entries}
	}
	leaves := (len(entries) + capacity - 1) / capacity
	slabs := leaves
	if d < dims-1 {
		slabs = slabCount(entries, leaves, dims, d, units)
	}
	sortByCenter(entries, d)
	var out [][]Entry
	for i := 0; i < slabs; i++ {
		slab := entries[i*len(entries)/slabs : (i+1)*len(entries)/slabs]
		out = append(out, strTile(slab, capacity, dims, d+1, units)...)
	}
	return out
}

// slabCount returns how many slabs dimension d is cut into when entries
// fill leaves groups and dimensions d.. remain. Without units it is
// leaves^(1/remaining), rounded up. With units each remaining dimension
// spans its centres' range times its unit, and d gets its span over the
// side of an equal-sided tile, (product of the spans / leaves)^(1/their
// number), rounded and clamped to [1, leaves]. A dimension whose span is
// zero (one value, duplicates, a zero unit) is not cut and does not count.
func slabCount(entries []Entry, leaves, dims, d int, units []float64) int {
	if len(units) == 0 {
		return int(math.Ceil(math.Pow(float64(leaves), 1/float64(dims-d))))
	}
	spans, cut, own := 1.0, 0, 0.0
	for e := d; e < dims; e++ {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, en := range entries {
			c := en.Rect.Lo[e] + en.Rect.Hi[e]
			lo, hi = min(lo, c), max(hi, c)
		}
		span := (hi - lo) * units[e-(dims-len(units))]
		if e == d {
			own = span
		}
		if span > 0 {
			spans *= span
			cut++
		}
	}
	if !(own > 0) {
		return 1
	}
	side := math.Pow(spans/float64(leaves), 1/float64(cut))
	return int(min(max(math.Round(own/side), 1), float64(leaves)))
}

func sortByCenter(entries []Entry, d int) {
	sort.SliceStable(entries, func(i, j int) bool {
		return entries[i].Rect.Lo[d]+entries[i].Rect.Hi[d] < entries[j].Rect.Lo[d]+entries[j].Rect.Hi[d]
	})
}
