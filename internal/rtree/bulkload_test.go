package rtree

import (
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
