package rtree

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"tsq/internal/geom"
	"tsq/internal/storage"
)

// TestInsertPointOnWarmTreeAllocatesOnlyNewPages pins the write path's
// scratch: an insertion decodes its path into the tree's write slots,
// folds bounding rectangles in place and ranks, removes and splits in the
// tree's splitScratch, so what is left to allocate is the page of a node
// a split creates (the in-memory backend's). It used to be two slices per
// entry per bounding rectangle, a fresh slot per node read and a clone of
// every rectangle that moved.
func TestInsertPointOnWarmTreeAllocatesOnlyNewPages(t *testing.T) {
	const warm, runs, perRun = 3000, 20, 100
	tr, _ := filledTree(t, 1, warm, 6, 1024)
	pts := randPoints(rand.New(rand.NewSource(2)), (runs+1)*perRun, 6)
	next := 0
	pagesBefore := tr.mgr.Stats().Allocs
	allocs := testing.AllocsPerRun(runs, func() {
		for i := 0; i < perRun; i++ {
			if err := tr.InsertPoint(pts[next], int64(warm+next)); err != nil {
				t.Fatal(err)
			}
			next++
		}
	})
	pages := float64(tr.mgr.Stats().Allocs-pagesBefore) / (runs + 1)
	t.Logf("%d inserts: %.1f allocations, %.1f new pages", perRun, allocs, pages)
	if pages < 5 || pages > perRun/3 {
		t.Fatalf("%.1f new pages per %d inserts: the tree does not split as the test assumes", pages, perRun)
	}
	// The backend's page map grows now and then; 1.5 leaves room for it.
	if allocs > 1.5*pages {
		t.Errorf("%d inserts allocated %.1f times for %.1f new pages: the insert path allocates per node or per entry", perRun, allocs, pages)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestDeleteOnWarmTreeAllocatesNothing pins the delete path's scratch: the
// search for the leaf decodes into the write slots, one per depth,
// abandoned subtrees included, the condensed nodes' entries are copied
// into the tree's orphan sets and the root is read into a write slot.
// It used to decode every node it read into a fresh slot, some 30
// allocations per delete.
func TestDeleteOnWarmTreeAllocatesNothing(t *testing.T) {
	const n, runs = 20000, 200
	tr, pts := filledTree(t, 3, n, 6, 4096)
	if tr.Height() != 3 {
		t.Fatalf("height %d, want 3", tr.Height())
	}
	victims := rand.New(rand.NewSource(4)).Perm(n)
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		v := victims[next]
		if err := tr.Delete(geom.Rect{Lo: pts[v], Hi: pts[v]}, int64(v)); err != nil {
			t.Fatal(err)
		}
		next++
	})
	t.Logf("%.2f allocations per delete", allocs)
	// A reinserted orphan that splits a node allocates its page now and
	// then (the in-memory backend's).
	if allocs > 2 {
		t.Errorf("a delete allocated %.2f times: the delete path allocates per node", allocs)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// chooseLeastOverlapFull is chooseLeastOverlap as it was before it
// abandoned candidates: every candidate's overlap growth summed in full.
func chooseLeastOverlapFull(entries []Entry, r geom.Rect) int {
	best := -1
	bestOverlap, bestEnlarge, bestArea := 0.0, 0.0, 0.0
	for i, e := range entries {
		var overlapDelta float64
		for j, other := range entries {
			if j == i {
				continue
			}
			overlapDelta += e.Rect.UnionOverlapArea(r, other.Rect) - e.Rect.OverlapArea(other.Rect)
		}
		enlarge := e.Rect.Enlargement(r)
		area := e.Rect.Area()
		if best == -1 || overlapDelta < bestOverlap ||
			(overlapDelta == bestOverlap && (enlarge < bestEnlarge ||
				(enlarge == bestEnlarge && area < bestArea))) {
			best, bestOverlap, bestEnlarge, bestArea = i, overlapDelta, enlarge, area
		}
	}
	return best
}

// TestChooseLeastOverlapAbandonIsExact holds the abandoning choice to the
// full sums on 10 000 random nodes. The coordinates come from a grid of
// eight values, so entries that cover the new rectangle, duplicates,
// dimensions without width and exact ties on all three criteria are the
// common case, not the exception.
func TestChooseLeastOverlapAbandonIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	randRect := func(dim int, point bool) geom.Rect {
		lo, hi := make(geom.Point, dim), make(geom.Point, dim)
		for d := range lo {
			a, b := float64(rng.Intn(8)), float64(rng.Intn(8))
			if point || rng.Intn(4) == 0 {
				b = a // no width in this dimension
			}
			lo[d], hi[d] = min(a, b), max(a, b)
		}
		return geom.Rect{Lo: lo, Hi: hi}
	}
	ties, covers := 0, 0
	for trial := 0; trial < 10000; trial++ {
		dim := 1 + rng.Intn(4)
		entries := make([]Entry, 2+rng.Intn(12))
		for i := range entries {
			entries[i].Rect = randRect(dim, false)
			if i > 0 && rng.Intn(5) == 0 {
				entries[i].Rect = entries[rng.Intn(i)].Rect // a duplicate
			}
		}
		r := randRect(dim, rng.Intn(2) == 0)
		want := chooseLeastOverlapFull(entries, r)
		if got := chooseLeastOverlap(entries, r, 0); got != want {
			t.Fatalf("trial %d: chose entry %d, the full sums choose %d\nentries %v\nrect %v", trial, got, want, entries, r)
		}
		for i, e := range entries {
			if i != want && rectsEqual(e.Rect, entries[want].Rect) {
				ties++
				break
			}
		}
		if entries[want].Rect.ContainsRect(r) {
			covers++
		}
	}
	if ties < 500 || covers < 500 {
		t.Fatalf("%d trials with a tie for the winner, %d with a covering winner: the corpus is too tame", ties, covers)
	}
}

// pageCounter counts the reads and writes of each page that reach the
// backend since the last reset.
type pageCounter struct {
	storage.Backend
	reads, writes map[storage.PageID]int
}

func (c *pageCounter) ReadPage(id storage.PageID, buf []byte) error {
	c.reads[id]++
	return c.Backend.ReadPage(id, buf)
}

func (c *pageCounter) WritePage(id storage.PageID, buf []byte) error {
	c.writes[id]++
	return c.Backend.WritePage(id, buf)
}

func (c *pageCounter) reset() {
	c.reads, c.writes = map[storage.PageID]int{}, map[storage.PageID]int{}
}

func total(m map[storage.PageID]int) (n int) {
	for _, c := range m {
		n += c
	}
	return n
}

var errProbe = errors.New("probe")

// probeLeaf returns the leaf an insertion of p goes to, and whether the
// insertion leaves the leaf's rectangle as it is and fits in the leaf: p
// lies in the leaf's entry in its parent (or the leaf is the root) and
// the leaf is not full. It runs the descent in an operation it abandons,
// which writes nothing.
func probeLeaf(tr *Tree, p geom.Point) (leaf storage.PageID, same bool) {
	tr.begin()
	defer tr.end(errProbe)
	path, err := tr.choosePath(geom.PointRect(p), 1)
	if err != nil {
		return storage.NilPage, false
	}
	last := path[len(path)-1]
	_, maxE := tr.Capacity(true)
	same = len(last.node.Entries) < maxE
	if len(path) > 1 {
		same = same && path[len(path)-2].node.Entries[last.entryIdx].Rect.Contains(p)
	}
	return last.node.ID, same
}

// TestInsertTouchesEachPageOnce drives 2 000 inserts and 300 deletes
// through a 1 KiB-page tree on a counting backend without a buffer pool:
// 50 deletes first empty most of a 60-point tree, so its root shrinks,
// and the inserts then grow it to four levels through splits and forced
// reinsertions, with the other 250 deletes among them. No operation reads a page from the backend twice or
// writes one twice: an insertion keeps what it read and encoded until it
// ends, and writes once what changed. An insert whose leaf rectangle does
// not grow writes its leaf and the meta page and nothing else: the
// adjustment stops at the first rectangle that did not change. Every
// third insert is a copy of a stored point, so that case is common.
func TestInsertTouchesEachPageOnce(t *testing.T) {
	const dim, pageSize = 6, 1024
	c := &pageCounter{Backend: storage.NewMemBackend(pageSize)}
	c.reset()
	mgr := storage.NewManager(storage.Options{PageSize: pageSize, Backend: c})
	tr, err := New(mgr, dim)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	pts := randPoints(rng, 2060, dim)
	const warm = 60
	for i, p := range pts[:warm] {
		if err := tr.InsertPoint(p, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	// live holds the stored record ids, point their points.
	var live []int64
	point := map[int64]geom.Point{}
	for i, p := range pts[:warm] {
		live, point[int64(i)] = append(live, int64(i)), p
	}
	var grew, shrank, splits, reinserts, unchanged int
	check := func(op string, height int) {
		t.Helper()
		for id, n := range c.reads {
			if n > 1 {
				t.Fatalf("%s read page %d %d times", op, id, n)
			}
		}
		for id, n := range c.writes {
			if n > 1 {
				t.Fatalf("%s wrote page %d %d times", op, id, n)
			}
		}
		switch {
		case tr.Height() > height:
			grew++
		case tr.Height() < height:
			shrank++
		}
	}
	del := func() {
		t.Helper()
		k := rng.Intn(len(live))
		rec := live[k]
		height := tr.Height()
		c.reset()
		if err := tr.Delete(geom.PointRect(point[rec]), rec); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("delete of %d", rec), height)
		live = slices.Delete(live, k, k+1)
	}
	next := int64(warm)
	ins := func(p geom.Point) {
		t.Helper()
		leaf, same := probeLeaf(tr, p)
		height, allocs := tr.Height(), mgr.Stats().Allocs
		c.reset()
		if err := tr.InsertPoint(p, next); err != nil {
			t.Fatal(err)
		}
		op := fmt.Sprintf("insert %d", next)
		check(op, height)
		if mgr.Stats().Allocs > allocs {
			splits++
		}
		if total(c.reads) > height {
			reinserts++ // only a reinsertion reads past the insertion's path
		}
		if same {
			unchanged++
			if len(c.writes) != 2 || c.writes[leaf] != 1 || c.writes[tr.MetaID()] != 1 {
				t.Fatalf("%s into leaf %d, whose rectangle holds the point, wrote %v: want the leaf and the meta page %d", op, leaf, c.writes, tr.MetaID())
			}
		}
		live, point[next] = append(live, next), p
		next++
	}
	const first = 50
	for range first {
		del()
	}
	for i, p := range pts[warm:] {
		if i%3 == 2 {
			p = point[live[rng.Intn(len(live))]]
		}
		ins(p)
		if i%8 == 7 {
			del()
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	t.Logf("height %d: %d growths, %d shrinks, %d inserts with splits, %d with reinsertions, %d into an unchanged leaf",
		tr.Height(), grew, shrank, splits, reinserts, unchanged)
	if grew < 2 || shrank < 1 || splits < 50 || reinserts < 50 || unchanged < 300 {
		t.Fatal("the sequence does not exercise what the test assumes")
	}
}

// TestPackedTreeTakesUpdates packs 5 000 points carrying two of six
// dimensions, as the feature index does, into pages whose leaves hold 10
// points: an exactly full leaf level of 500 leaves, and with one point
// more a level one leaf over it. 3 000 inserts and 1 000 deletes follow,
// so the first inserts all meet full leaves. Every operation keeps the
// rule of TestInsertTouchesEachPageOnce (no page read or written twice
// on the backend), the tree passes its checks, and it finds exactly the
// live records.
func TestPackedTreeTakesUpdates(t *testing.T) {
	const dim, carried, pageSize = 6, 2, 576
	for _, n := range []int{5000, 5001} {
		c := &pageCounter{Backend: storage.NewMemBackend(pageSize)}
		c.reset()
		rng := rand.New(rand.NewSource(int64(n)))
		pts := randPoints(rng, n+3000, dim)
		items := make([]BulkItem, n)
		for i, p := range pts[:n] {
			items[i] = BulkItem{Rect: geom.PointRect(p), Rec: int64(i)}
		}
		tr, err := BulkLoad(storage.NewManager(storage.Options{PageSize: pageSize, Backend: c}), dim, carried, items)
		if err != nil {
			t.Fatal(err)
		}
		h, err := tr.Health()
		if err != nil {
			t.Fatal(err)
		}
		leaves := h.Levels[h.Height-1]
		if _, maxE := tr.Capacity(true); maxE != 10 || n == 5000 && leaves.AvgFill != 1 {
			t.Fatalf("%d points: %d leaves of %d, fill %.3f: not the full leaf level the test assumes", n, leaves.Nodes, maxE, leaves.AvgFill)
		}
		live := make(map[int64]geom.Point, n+3000)
		for i, p := range pts[:n] {
			live[int64(i)] = p
		}
		check := func(op string) {
			t.Helper()
			for id, k := range c.reads {
				if k > 1 {
					t.Fatalf("%d points: %s read page %d %d times", n, op, id, k)
				}
			}
			for id, k := range c.writes {
				if k > 1 {
					t.Fatalf("%d points: %s wrote page %d %d times", n, op, id, k)
				}
			}
		}
		for i, p := range pts[n:] {
			rec := int64(n + i)
			c.reset()
			if err := tr.InsertPoint(p, rec); err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("insert %d", rec))
			live[rec] = p
			if i%3 == 2 {
				victim := int64(rng.Intn(n + i + 1))
				q, ok := live[victim]
				for ; !ok; q, ok = live[victim] {
					victim = (victim + 1) % int64(n+i+1)
				}
				c.reset()
				if err := tr.Delete(geom.PointRect(q), victim); err != nil {
					t.Fatalf("%d points: delete %d: %v", n, victim, err)
				}
				check(fmt.Sprintf("delete %d", victim))
				delete(live, victim)
			}
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("%d points: %v", n, err)
		}
		everything := geom.Rect{Lo: make(geom.Point, dim), Hi: make(geom.Point, dim)}
		for d := range everything.Lo {
			everything.Lo[d], everything.Hi[d] = math.Inf(-1), math.Inf(1)
		}
		got, _, err := tr.Search(everything)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(live) || int(tr.Len()) != len(live) {
			t.Fatalf("%d points: search finds %d records, Len is %d, %d live", n, len(got), tr.Len(), len(live))
		}
		for _, rec := range got {
			if _, ok := live[rec]; !ok {
				t.Fatalf("%d points: search finds record %d, which is not live", n, rec)
			}
		}
	}
}

// TestFailedInsertWritesNothing fails a backend read part-way through an
// insert that has already encoded nodes (a forced reinsertion reading a
// subtree off its path). Nothing reaches the backend's pages, the tree's
// root, height and size are as before, and once the backend is revived
// the tree is whole and finds every record it held.
func TestFailedInsertWritesNothing(t *testing.T) {
	const dim, pageSize = 3, 512
	pts := randPoints(rand.New(rand.NewSource(4)), 600, dim)
	// A twin tree on a counting backend finds an insert whose first
	// backend operation past its path is a read: the reinsertion's.
	c := &pageCounter{Backend: storage.NewMemBackend(pageSize)}
	c.reset()
	twin, err := New(storage.NewManager(storage.Options{PageSize: pageSize, Backend: c}), dim)
	if err != nil {
		t.Fatal(err)
	}
	victim := -1
	for i, p := range pts {
		height := twin.Height()
		c.reset()
		if err := twin.InsertPoint(p, int64(i)); err != nil {
			t.Fatal(err)
		}
		if i > 100 && total(c.reads) > height && len(c.writes) > 2 {
			victim = i
			break
		}
	}
	if victim < 0 {
		t.Fatal("no insert reinserted past its path")
	}

	fb := &flakyBackend{inner: storage.NewMemBackend(pageSize), budget: 1 << 30}
	w := &pageCounter{Backend: fb}
	w.reset()
	tr, err := New(storage.NewManager(storage.Options{PageSize: pageSize, Backend: w}), dim)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pts[:victim] {
		if err := tr.InsertPoint(p, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	root, height, size := tr.Root(), tr.Height(), tr.Len()
	w.reset()
	fb.budget = height // the path's reads succeed, the next read fails
	if err := tr.InsertPoint(pts[victim], int64(victim)); !errors.Is(err, errInjected) {
		t.Fatalf("insert %d with a dying backend: %v, want the injected failure", victim, err)
	}
	if total(w.reads) <= height {
		t.Fatalf("the failed insert read %d pages, the path is %d: it failed before reinserting", total(w.reads), height)
	}
	if len(w.writes) != 0 {
		t.Fatalf("the failed insert wrote %v", w.writes)
	}
	if tr.Root() != root || tr.Height() != height || tr.Len() != size {
		t.Fatalf("after the failed insert: root %d height %d size %d, want %d %d %d", tr.Root(), tr.Height(), tr.Len(), root, height, size)
	}
	fb.budget = 1 << 30
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for i, p := range pts[:victim] {
		got, _, err := tr.Search(geom.PointRect(p))
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Contains(got, int64(i)) {
			t.Fatalf("record %d lost after the failed insert", i)
		}
	}
	if err := tr.InsertPoint(pts[victim], int64(victim)); err != nil {
		t.Fatal(err)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
