package rtree

import (
	"errors"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"tsq/internal/geom"
	"tsq/internal/storage"
)

func newTestTree(t testing.TB, dim, pageSize int) *Tree {
	t.Helper()
	mgr := storage.NewManager(storage.Options{PageSize: pageSize})
	tr, err := New(mgr, dim)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func randPoints(rng *rand.Rand, n, dim int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		p := make(geom.Point, dim)
		for d := range p {
			p[d] = rng.NormFloat64() * 10
		}
		pts[i] = p
	}
	return pts
}

func sortedInt64(xs []int64) []int64 {
	out := append([]int64(nil), xs...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func equalInt64(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestInsertSearchSmall(t *testing.T) {
	tr := newTestTree(t, 2, 512)
	pts := []geom.Point{{0, 0}, {1, 1}, {5, 5}, {-3, 2}}
	for i, p := range pts {
		if err := tr.InsertPoint(p, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	got, _, err := tr.Search(geom.NewRect(geom.Point{-1, -1}, geom.Point{2, 2}))
	if err != nil {
		t.Fatal(err)
	}
	if !equalInt64(sortedInt64(got), []int64{0, 1}) {
		t.Errorf("Search = %v, want [0 1]", got)
	}
	if tr.Len() != 4 {
		t.Errorf("Len = %d, want 4", tr.Len())
	}
}

func TestSearchMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := newTestTree(t, 3, 512) // small pages force deep trees
		n := 300 + rng.Intn(200)
		pts := randPoints(rng, n, 3)
		for i, p := range pts {
			if err := tr.InsertPoint(p, int64(i)); err != nil {
				t.Fatal(err)
			}
		}
		for trial := 0; trial < 5; trial++ {
			center := randPoints(rng, 1, 3)[0]
			query := geom.PointRect(center).Expand(2 + rng.Float64()*10)
			got, _, err := tr.Search(query)
			if err != nil {
				t.Fatal(err)
			}
			var want []int64
			for i, p := range pts {
				if query.Contains(p) {
					want = append(want, int64(i))
				}
			}
			if !equalInt64(sortedInt64(got), sortedInt64(want)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestInvariantsAfterBulkInsert(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tr := newTestTree(t, 4, 512)
	for i, p := range randPoints(rng, 1500, 4) {
		if err := tr.InsertPoint(p, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if tr.Height() < 2 {
		t.Errorf("height = %d, expected a multi-level tree", tr.Height())
	}
}

func TestRectangleEntries(t *testing.T) {
	// A tree of rectangle leaves stores true rectangles, not just points;
	// a tree of point leaves refuses them.
	tr, err := NewRectLeaves(storage.NewManager(storage.Options{PageSize: 512}), 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := newTestTree(t, 2, 512).Insert(geom.NewRect(geom.Point{0, 0}, geom.Point{0, 1}), 0); !errors.Is(err, ErrNotPoint) {
		t.Fatalf("rectangle into a point tree: err = %v, want ErrNotPoint", err)
	}
	rects := []geom.Rect{
		geom.NewRect(geom.Point{0, 0}, geom.Point{2, 2}),
		geom.NewRect(geom.Point{5, 5}, geom.Point{7, 9}),
		geom.NewRect(geom.Point{-4, -4}, geom.Point{-1, -1}),
	}
	for i, r := range rects {
		if err := tr.Insert(r, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	got, _, err := tr.Search(geom.NewRect(geom.Point{1, 1}, geom.Point{6, 6}))
	if err != nil {
		t.Fatal(err)
	}
	if !equalInt64(sortedInt64(got), []int64{0, 1}) {
		t.Errorf("Search = %v, want [0 1]", got)
	}
}

func TestDeleteAndInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	tr := newTestTree(t, 3, 512)
	pts := randPoints(rng, 800, 3)
	for i, p := range pts {
		if err := tr.InsertPoint(p, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Delete a random 60%.
	perm := rng.Perm(len(pts))
	deleted := make(map[int64]bool)
	for _, i := range perm[:480] {
		if err := tr.Delete(geom.PointRect(pts[i]), int64(i)); err != nil {
			t.Fatalf("delete %d: %v", i, err)
		}
		deleted[int64(i)] = true
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 320 {
		t.Errorf("Len = %d, want 320", tr.Len())
	}
	// Survivors still findable, deleted gone.
	all, _, err := tr.Search(geom.NewRect(
		geom.Point{-1e9, -1e9, -1e9}, geom.Point{1e9, 1e9, 1e9}))
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 320 {
		t.Fatalf("full search returned %d records, want 320", len(all))
	}
	for _, rec := range all {
		if deleted[rec] {
			t.Fatalf("deleted record %d still present", rec)
		}
	}
}

func TestDeleteToEmptyAndReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tr := newTestTree(t, 2, 512)
	pts := randPoints(rng, 300, 2)
	for i, p := range pts {
		if err := tr.InsertPoint(p, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i, p := range pts {
		if err := tr.Delete(geom.PointRect(p), int64(i)); err != nil {
			t.Fatalf("delete %d: %v", i, err)
		}
	}
	if tr.Len() != 0 {
		t.Fatalf("Len = %d after deleting everything", tr.Len())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// The tree remains usable.
	for i, p := range pts[:50] {
		if err := tr.InsertPoint(p, int64(1000+i)); err != nil {
			t.Fatal(err)
		}
	}
	all, _, _ := tr.Search(geom.NewRect(geom.Point{-1e9, -1e9}, geom.Point{1e9, 1e9}))
	if len(all) != 50 {
		t.Errorf("search after refill returned %d, want 50", len(all))
	}
}

func TestDeleteNotFound(t *testing.T) {
	tr := newTestTree(t, 2, 512)
	if err := tr.InsertPoint(geom.Point{1, 1}, 1); err != nil {
		t.Fatal(err)
	}
	err := tr.Delete(geom.PointRect(geom.Point{9, 9}), 1)
	if !errors.Is(err, ErrNotFound) {
		t.Errorf("err = %v, want ErrNotFound", err)
	}
	err = tr.Delete(geom.PointRect(geom.Point{1, 1}), 2)
	if !errors.Is(err, ErrNotFound) {
		t.Errorf("wrong-rec err = %v, want ErrNotFound", err)
	}
}

func TestSelfJoinMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	tr := newTestTree(t, 2, 512)
	pts := randPoints(rng, 250, 2)
	for i, p := range pts {
		if err := tr.InsertPoint(p, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	eps := 2.0
	got, _, err := tr.SelfJoin(eps)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[[2]int64]bool)
	for i := range pts {
		for j := i + 1; j < len(pts); j++ {
			if geom.Dist(pts[i], pts[j]) <= eps {
				want[[2]int64{int64(i), int64(j)}] = true
			}
		}
	}
	gotSet := make(map[[2]int64]bool)
	for _, p := range got {
		key := [2]int64{p.RecA, p.RecB}
		if gotSet[key] {
			t.Fatalf("duplicate pair %v", key)
		}
		gotSet[key] = true
	}
	if len(gotSet) != len(want) {
		t.Fatalf("join returned %d pairs, want %d", len(gotSet), len(want))
	}
	for k := range want {
		if !gotSet[k] {
			t.Fatalf("missing pair %v", k)
		}
	}
}

func TestSearchStatsCounting(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tr := newTestTree(t, 2, 512)
	for i, p := range randPoints(rng, 1000, 2) {
		if err := tr.InsertPoint(p, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	_, st, err := tr.Search(geom.NewRect(geom.Point{-2, -2}, geom.Point{2, 2}))
	if err != nil {
		t.Fatal(err)
	}
	if st.NodeAccesses == 0 || st.LeafAccesses == 0 || st.LeafAccesses > st.NodeAccesses {
		t.Errorf("stats = %+v", st)
	}
	// A tiny query should touch far fewer nodes than a full scan.
	_, full, _ := tr.Search(geom.NewRect(geom.Point{-1e9, -1e9}, geom.Point{1e9, 1e9}))
	if st.NodeAccesses >= full.NodeAccesses {
		t.Errorf("selective query accessed %d nodes, full scan %d", st.NodeAccesses, full.NodeAccesses)
	}
}

func TestPersistenceAcrossOpen(t *testing.T) {
	mgr := storage.NewManager(storage.Options{PageSize: 512})
	tr, err := New(mgr, 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	pts := randPoints(rng, 300, 2)
	for i, p := range pts {
		if err := tr.InsertPoint(p, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	meta := tr.MetaID()

	re, err := Open(mgr, meta, 0)
	if err != nil {
		t.Fatal(err)
	}
	if re.Len() != 300 || re.Dim() != 2 || re.Height() != tr.Height() {
		t.Fatalf("reopened tree: len=%d dim=%d h=%d", re.Len(), re.Dim(), re.Height())
	}
	got, _, err := re.Search(geom.PointRect(pts[0]).Expand(1e-9))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, rec := range got {
		if rec == 0 {
			found = true
		}
	}
	if !found {
		t.Error("reopened tree lost record 0")
	}
	if err := re.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDimensionMismatchRejected(t *testing.T) {
	tr := newTestTree(t, 3, 512)
	if err := tr.InsertPoint(geom.Point{1, 2}, 1); err == nil {
		t.Error("2-dim insert into 3-dim tree succeeded")
	}
}

func TestMaxEntriesSizing(t *testing.T) {
	// 512-byte pages, 2 dims: entry = 40 bytes, header 8 -> 12 entries.
	if got := MaxEntries(512, 2); got != 12 {
		t.Errorf("MaxEntries(512, 2) = %d, want 12", got)
	}
	// 4096-byte pages, 6 dims: entry = 104 -> 39 entries.
	if got := MaxEntries(4096, 6); got != 39 {
		t.Errorf("MaxEntries(4096, 6) = %d, want 39", got)
	}
	mgr := storage.NewManager(storage.Options{PageSize: 64})
	if _, err := New(mgr, 6); err == nil {
		t.Error("tiny page accepted for 6-dim tree")
	}
}

func TestDuplicatePointsSupported(t *testing.T) {
	tr := newTestTree(t, 2, 512)
	p := geom.Point{1, 1}
	for i := 0; i < 50; i++ {
		if err := tr.InsertPoint(p, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	got, _, err := tr.Search(geom.PointRect(p))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 50 {
		t.Errorf("found %d duplicates, want 50", len(got))
	}
	// Deleting one specific record leaves the other 49.
	if err := tr.Delete(geom.PointRect(p), 25); err != nil {
		t.Fatal(err)
	}
	got, _, _ = tr.Search(geom.PointRect(p))
	if len(got) != 49 {
		t.Errorf("found %d after delete, want 49", len(got))
	}
	for _, r := range got {
		if r == 25 {
			t.Error("record 25 still present")
		}
	}
}

func TestInterleavedInsertDelete(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	tr := newTestTree(t, 2, 512)
	live := make(map[int64]geom.Point)
	next := int64(0)
	for step := 0; step < 3000; step++ {
		if len(live) == 0 || rng.Float64() < 0.6 {
			p := randPoints(rng, 1, 2)[0]
			if err := tr.InsertPoint(p, next); err != nil {
				t.Fatal(err)
			}
			live[next] = p
			next++
		} else {
			// Delete a random live record.
			var rec int64
			for r := range live {
				rec = r
				break
			}
			if err := tr.Delete(geom.PointRect(live[rec]), rec); err != nil {
				t.Fatalf("step %d: delete %d: %v", step, rec, err)
			}
			delete(live, rec)
		}
	}
	if int(tr.Len()) != len(live) {
		t.Fatalf("Len = %d, live = %d", tr.Len(), len(live))
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	all, _, _ := tr.Search(geom.NewRect(geom.Point{-1e9, -1e9}, geom.Point{1e9, 1e9}))
	if len(all) != len(live) {
		t.Fatalf("search returned %d, want %d", len(all), len(live))
	}
}

func BenchmarkInsert6D(b *testing.B) {
	mgr := storage.NewManager(storage.Options{PageSize: 4096})
	tr, err := New(mgr, 6)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	pts := randPoints(rng, b.N, 6)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := tr.InsertPoint(pts[i], int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSearch6D(b *testing.B) {
	mgr := storage.NewManager(storage.Options{PageSize: 4096})
	tr, _ := New(mgr, 6)
	rng := rand.New(rand.NewSource(2))
	for i, p := range randPoints(rng, 10000, 6) {
		tr.InsertPoint(p, int64(i))
	}
	queries := randPoints(rng, 64, 6)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q := geom.PointRect(queries[i%len(queries)]).Expand(2)
		if _, _, err := tr.Search(q); err != nil {
			b.Fatal(err)
		}
	}
}
