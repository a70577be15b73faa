package rtree

import (
	"math/rand"
	"testing"

	"tsq/internal/geom"
	"tsq/internal/storage"
)

// TestTreeHealthGroundTruth cross-checks the health walker against an
// independent Visit pass and the tree's own metadata.
func TestTreeHealthGroundTruth(t *testing.T) {
	mgr := storage.NewManager(storage.Options{PageSize: 512})
	tr, err := New(mgr, 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	const n = 800
	for i := 0; i < n; i++ {
		p := geom.Point{rng.Float64() * 100, rng.Float64() * 100}
		if err := tr.InsertPoint(p, int64(i)); err != nil {
			t.Fatal(err)
		}
	}

	h, err := tr.Health()
	if err != nil {
		t.Fatal(err)
	}
	if h.Height != tr.Height() || h.Size != tr.Len() || h.Dim != 2 {
		t.Errorf("header = height=%d size=%d dim=%d, want %d/%d/2", h.Height, h.Size, h.Dim, tr.Height(), tr.Len())
	}
	if len(h.Levels) != h.Height {
		t.Fatalf("%d levels, want %d", len(h.Levels), h.Height)
	}

	// Independent tally via Visit.
	nodes, entries := 0, 0
	leafEntries := 0
	if err := tr.Visit(func(n *Node, level int) error {
		nodes++
		entries += len(n.Entries)
		if n.Leaf {
			leafEntries += len(n.Entries)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if h.Nodes != nodes || h.Entries != entries {
		t.Errorf("totals = nodes=%d entries=%d, want %d/%d", h.Nodes, h.Entries, nodes, entries)
	}
	// Every record is exactly one leaf entry.
	leaf := h.Levels[h.Height-1]
	if int64(leaf.Entries) != tr.Len() || leafEntries != leaf.Entries {
		t.Errorf("leaf entries = %d, want %d", leaf.Entries, tr.Len())
	}
	// Root level holds exactly one node.
	if h.Levels[0].Nodes != 1 {
		t.Errorf("root level nodes = %d, want 1", h.Levels[0].Nodes)
	}
	// Internal-level entries equal the node count one level down (one
	// entry per child).
	for i := 0; i+1 < len(h.Levels); i++ {
		if h.Levels[i].Entries != h.Levels[i+1].Nodes {
			t.Errorf("level %d entries = %d, want %d (children)", i, h.Levels[i].Entries, h.Levels[i+1].Nodes)
		}
	}

	for i, lh := range h.Levels {
		// Occupancy histogram sums to the node count.
		sum := 0
		for _, c := range lh.Occupancy {
			sum += c
		}
		if sum != lh.Nodes {
			t.Errorf("level %d occupancy sums to %d, want %d", i, sum, lh.Nodes)
		}
		if lh.AvgFill <= 0 || lh.AvgFill > 1 {
			t.Errorf("level %d avg fill = %v", i, lh.AvgFill)
		}
		// Non-root nodes respect the minimum fill, so average fill must
		// be at least m/M on levels with more than one node.
		if lh.Nodes > 1 && lh.AvgFill < float64(lh.MinFill)/float64(lh.MaxFill) {
			t.Errorf("level %d avg fill %v below m/M", i, lh.AvgFill)
		}
		if lh.MarginSum <= 0 || lh.CoveredArea <= 0 {
			t.Errorf("level %d margin=%v covered=%v, want > 0", i, lh.MarginSum, lh.CoveredArea)
		}
		if lh.DeadSpace < 0 || lh.Overlap < 0 {
			t.Errorf("level %d dead=%v overlap=%v, want >= 0", i, lh.DeadSpace, lh.Overlap)
		}
	}
	// Point data: leaf entries have zero area, so leaf dead space equals
	// covered area.
	if leaf.EntryArea != 0 || leaf.DeadSpace != leaf.CoveredArea {
		t.Errorf("leaf entry_area=%v dead=%v covered=%v", leaf.EntryArea, leaf.DeadSpace, leaf.CoveredArea)
	}
}

// TestTreeHealthEmpty checks the degenerate single-empty-root tree.
func TestTreeHealthEmpty(t *testing.T) {
	mgr := storage.NewManager(storage.Options{PageSize: 512})
	tr, err := New(mgr, 2)
	if err != nil {
		t.Fatal(err)
	}
	h, err := tr.Health()
	if err != nil {
		t.Fatal(err)
	}
	if h.Height != 1 || h.Nodes != 1 || h.Entries != 0 || h.Size != 0 {
		t.Errorf("empty tree health = %+v", h)
	}
	if h.Levels[0].Occupancy[0] != 1 {
		t.Errorf("empty root not in the lowest occupancy bucket: %v", h.Levels[0].Occupancy)
	}
}

// TestTreeHealthBulkVsIncremental: STR bulk loading packs nodes full, so
// its average fill must beat incremental insertion's — the discriminating
// signal the report exists to surface.
func TestTreeHealthBulkVsIncremental(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n = 1500
	items := bulkItems(rng, n, 2)

	inc, err := New(storage.NewManager(storage.Options{PageSize: 512}), 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range items {
		if err := inc.Insert(it.Rect, it.Rec); err != nil {
			t.Fatal(err)
		}
	}
	bulk, err := BulkLoad(storage.NewManager(storage.Options{PageSize: 512}), 2, 0, items)
	if err != nil {
		t.Fatal(err)
	}

	hInc, err := inc.Health()
	if err != nil {
		t.Fatal(err)
	}
	hBulk, err := bulk.Health()
	if err != nil {
		t.Fatal(err)
	}
	leafInc := hInc.Levels[hInc.Height-1]
	leafBulk := hBulk.Levels[hBulk.Height-1]
	if leafBulk.AvgFill <= leafInc.AvgFill {
		t.Errorf("bulk leaf fill %v not above incremental %v", leafBulk.AvgFill, leafInc.AvgFill)
	}
	if leafBulk.Nodes >= leafInc.Nodes {
		t.Errorf("bulk uses %d leaves, incremental %d — packing should use fewer", leafBulk.Nodes, leafInc.Nodes)
	}
}
