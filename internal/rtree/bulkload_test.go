package rtree

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"tsq/internal/geom"
	"tsq/internal/storage"
)

func bulkItems(rng *rand.Rand, n, dim int) []BulkItem {
	items := make([]BulkItem, n)
	for i := range items {
		p := make(geom.Point, dim)
		for d := range p {
			p[d] = rng.NormFloat64() * 10
		}
		items[i] = BulkItem{Rect: geom.PointRect(p), Rec: int64(i)}
	}
	return items
}

func TestBulkLoadInvariantsAndSearch(t *testing.T) {
	f := func(seed int64, sizeRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(sizeRaw)%3000 + 1
		mgr := storage.NewManager(storage.Options{PageSize: 512})
		items := bulkItems(rng, n, 3)
		tr, err := BulkLoad(mgr, 3, 0, items)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Logf("seed %d n %d: %v", seed, n, err)
			return false
		}
		if tr.Len() != int64(n) {
			return false
		}
		// Random range query equals brute force.
		center := items[rng.Intn(n)].Rect.Lo
		query := geom.PointRect(center).Expand(3)
		got, _, err := tr.Search(query)
		if err != nil {
			t.Fatal(err)
		}
		var want []int64
		for _, it := range items {
			if query.Contains(it.Rect.Lo) {
				want = append(want, it.Rec)
			}
		}
		return equalInt64(sortedInt64(got), sortedInt64(want))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

func TestBulkLoadEmpty(t *testing.T) {
	mgr := storage.NewManager(storage.Options{PageSize: 512})
	tr, err := BulkLoad(mgr, 2, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 0 || tr.Height() != 1 {
		t.Errorf("empty bulk load: len=%d h=%d", tr.Len(), tr.Height())
	}
	// Still usable for inserts.
	if err := tr.InsertPoint(geom.Point{1, 2}, 7); err != nil {
		t.Fatal(err)
	}
	got, _, _ := tr.Search(geom.PointRect(geom.Point{1, 2}))
	if len(got) != 1 || got[0] != 7 {
		t.Errorf("search after insert: %v", got)
	}
}

func TestBulkLoadPacksTighter(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	items := bulkItems(rng, 2000, 4)
	mgrA := storage.NewManager(storage.Options{PageSize: 512})
	packed, err := BulkLoad(mgrA, 4, 0, items)
	if err != nil {
		t.Fatal(err)
	}
	mgrB := storage.NewManager(storage.Options{PageSize: 512})
	grown, err := New(mgrB, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range items {
		if err := grown.Insert(it.Rect, it.Rec); err != nil {
			t.Fatal(err)
		}
	}
	countNodes := func(tr *Tree) int {
		n := 0
		tr.Visit(func(*Node, int) error { n++; return nil })
		return n
	}
	np, ng := countNodes(packed), countNodes(grown)
	if np >= ng {
		t.Errorf("packed tree has %d nodes, grown tree %d; packing saved nothing", np, ng)
	}
}

func TestBulkLoadSupportsUpdates(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	items := bulkItems(rng, 500, 2)
	mgr := storage.NewManager(storage.Options{PageSize: 512})
	tr, err := BulkLoad(mgr, 2, 0, items)
	if err != nil {
		t.Fatal(err)
	}
	// Delete half, insert new ones, invariants hold.
	for i := 0; i < 250; i++ {
		if err := tr.Delete(items[i].Rect, items[i].Rec); err != nil {
			t.Fatalf("delete %d: %v", i, err)
		}
	}
	for i := 0; i < 100; i++ {
		if err := tr.InsertPoint(geom.Point{float64(i), -float64(i)}, int64(10000+i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 350 {
		t.Errorf("Len = %d, want 350", tr.Len())
	}
}

func TestBulkLoadRejectsMismatchedDims(t *testing.T) {
	mgr := storage.NewManager(storage.Options{PageSize: 512})
	_, err := BulkLoad(mgr, 3, 0, []BulkItem{{Rect: geom.PointRect(geom.Point{1, 2})}})
	if err == nil {
		t.Error("mismatched dimension accepted")
	}
	if _, err := BulkLoad(mgr, 2, 0, []BulkItem{{Rect: geom.PointRect(geom.Point{1, 2})}}, 1); err == nil {
		t.Error("one unit for two organised dimensions accepted")
	}
}

func BenchmarkBulkLoadVsInsert(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	items := bulkItems(rng, 10000, 6)
	b.Run("bulkload", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mgr := storage.NewManager(storage.Options{PageSize: 4096})
			if _, err := BulkLoad(mgr, 6, 0, items); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("insert", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mgr := storage.NewManager(storage.Options{PageSize: 4096})
			tr, _ := New(mgr, 6)
			for _, it := range items {
				if err := tr.Insert(it.Rect, it.Rec); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// polarItems draws n feature-like points: mean and std (carried), then
// two magnitude-phase pairs whose magnitudes are three orders of
// magnitude apart, phases in [-π, π). About one in eight series is
// constant (zero magnitudes and phases) and one in five repeats an
// earlier point. It returns the items and the units the feature index
// packs them with: 1 for a magnitude, its mean for the phase beside it.
func polarItems(rng *rand.Rand, n int) ([]BulkItem, []float64) {
	items := make([]BulkItem, n)
	units := []float64{1, 0, 1, 0}
	for i := range items {
		p := geom.Point{rng.NormFloat64() * 50, rng.Float64() * 20, rng.Float64() * 40, (rng.Float64()*2 - 1) * math.Pi, rng.Float64() * 0.04, (rng.Float64()*2 - 1) * math.Pi}
		switch r := rng.Intn(40); {
		case r < 5:
			p[2], p[3], p[4], p[5] = 0, 0, 0, 0
		case r < 13 && i > 0:
			p = items[rng.Intn(i)].Rect.Lo.Clone()
		}
		units[1] += p[2] / float64(n)
		units[3] += p[4] / float64(n)
		items[i] = BulkItem{Rect: geom.PointRect(p), Rec: int64(i)}
	}
	return items, units
}

// TestUnitPackingKeepsFillAndAnswers: packed with units, as the feature
// index packs, trees of 1 to 3 000 polar points on 512 B and 4 KiB pages
// keep every node within its fill (cuts shared unevenly leave a node
// below its minimum), hold every item and find what a brute-force scan
// finds. The sizes sit at and just past products of the capacities (9
// per leaf and 4 per internal node at 512 B, 73 and 39 at 4 KiB), and
// ten more are drawn at random.
func TestUnitPackingKeepsFillAndAnswers(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	sizes := []int{1, 2, 9, 10, 36, 37, 73, 74, 146, 147, 324, 325, 2847, 2848, 3000}
	for i := 0; i < 10; i++ {
		sizes = append(sizes, 1+rng.Intn(3000))
	}
	for _, page := range []int{512, 4096} {
		for _, n := range sizes {
			items, units := polarItems(rng, n)
			tr, err := BulkLoad(storage.NewManager(storage.Options{PageSize: page}), 6, 2, items, units...)
			if err != nil {
				t.Fatal(err)
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("page %d, n %d: %v", page, n, err)
			}
			if tr.Len() != int64(n) {
				t.Fatalf("page %d, n %d: Len %d", page, n, tr.Len())
			}
			c := items[rng.Intn(n)].Rect.Lo
			query := geom.Rect{Lo: c.Clone(), Hi: c.Clone()}
			for d, w := range []float64{100, 10, 8, 1, 0.01, 1} {
				query.Lo[d] -= w
				query.Hi[d] += w
			}
			got, _, err := tr.Search(query)
			if err != nil {
				t.Fatal(err)
			}
			var want []int64
			for _, it := range items {
				if query.Contains(it.Rect.Lo) {
					want = append(want, it.Rec)
				}
			}
			if !equalInt64(sortedInt64(got), sortedInt64(want)) {
				t.Fatalf("page %d, n %d: search found %d items, brute force %d", page, n, len(got), len(want))
			}
		}
	}
}
