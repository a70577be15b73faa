package rtree

import (
	"math/rand"
	"testing"

	"tsq/internal/geom"
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
		if got := chooseLeastOverlap(entries, r); got != want {
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
