package rtree

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"tsq/internal/geom"
	"tsq/internal/storage"
)

// TestLeafKinds runs inserts, deletes, the invariant check and searches
// against brute force over trees of point leaves and of rectangle leaves
// at three page sizes, so splits, forced reinsertion and condensing work
// against a leaf capacity that is not the internal one, and the 40 %
// minimum fill of both is held by CheckInvariants after every phase.
// Each tree is reopened from its meta page and must keep its leaf kind.
func TestLeafKinds(t *testing.T) {
	const dim, n = 3, 2500
	for _, kind := range []byte{kindPointLeaf, kindRectLeaf} {
		for _, pageSize := range []int{512, 1024, 4096} {
			mgr := storage.NewManager(storage.Options{PageSize: pageSize})
			tr, err := create(mgr, meta{leafKind: kind, dim: dim}, 0)
			if err != nil {
				t.Fatal(err)
			}
			wantM := MaxEntries(pageSize, dim)
			if kind == kindPointLeaf {
				wantM = MaxPointEntries(pageSize, dim)
			}
			if m, M := tr.Capacity(true); M != wantM || m != int(minFillFraction*float64(wantM)) {
				t.Fatalf("kind %d, %d B: leaf capacity (%d, %d), want M = %d at 40 %%", kind, pageSize, m, M, wantM)
			}
			if _, M := tr.Capacity(false); M != MaxEntries(pageSize, dim) {
				t.Fatalf("kind %d, %d B: internal capacity %d", kind, pageSize, M)
			}
			rng := rand.New(rand.NewSource(int64(pageSize) + int64(kind)))
			rects := make([]geom.Rect, n)
			for i, p := range randPoints(rng, n, dim) {
				rects[i] = geom.PointRect(p)
				if kind == kindRectLeaf {
					rects[i] = geom.PointRect(p).Expand(rng.Float64())
				}
				if err := tr.Insert(rects[i], int64(i)); err != nil {
					t.Fatal(err)
				}
			}
			live := make(map[int64]bool, n)
			for i := range rects {
				live[int64(i)] = true
			}
			check := func(phase string) {
				t.Helper()
				if err := tr.CheckInvariants(); err != nil {
					t.Fatalf("kind %d, %d B, %s: %v", kind, pageSize, phase, err)
				}
				for q := 0; q < 10; q++ {
					query := geom.PointRect(randPoints(rng, 1, dim)[0]).Expand(3 + 5*rng.Float64())
					got, _, err := tr.Search(query)
					if err != nil {
						t.Fatal(err)
					}
					var want []int64
					for i, r := range rects {
						if live[int64(i)] && r.Intersects(query) {
							want = append(want, int64(i))
						}
					}
					if !equalInt64(sortedInt64(got), want) {
						t.Fatalf("kind %d, %d B, %s: search found %d records, brute force %d", kind, pageSize, phase, len(got), len(want))
					}
				}
			}
			check("after inserts")
			if tr.Height() < 2 {
				t.Fatalf("kind %d, %d B: height %d, no leaf has a sibling", kind, pageSize, tr.Height())
			}
			for _, i := range rng.Perm(n)[:3*n/5] {
				if err := tr.Delete(rects[i], int64(i)); err != nil {
					t.Fatalf("kind %d, %d B: delete %d: %v", kind, pageSize, i, err)
				}
				delete(live, int64(i))
			}
			check("after deletes")
			if tr, err = Open(mgr, tr.MetaID(), 0); err != nil {
				t.Fatal(err)
			}
			if tr.leafKind != kind {
				t.Fatalf("reopened a tree of leaf kind %d as kind %d", kind, tr.leafKind)
			}
			check("after reopening")
		}
	}
}

// TestLeafKindMismatchReported: a leaf whose kind byte disagrees with the
// meta page (a rectangle leaf in a tree of points, a point leaf in a tree
// of rectangles) is reported by CheckInvariants, and a page whose kind is
// none of 0, 1 and 2 does not decode.
func TestLeafKindMismatchReported(t *testing.T) {
	for _, c := range []struct{ tree, page byte }{
		{kindPointLeaf, kindRectLeaf},
		{kindRectLeaf, kindPointLeaf},
	} {
		mgr := storage.NewManager(storage.Options{PageSize: 512})
		tr, err := create(mgr, meta{leafKind: c.tree, dim: 2}, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range randPoints(rand.New(rand.NewSource(3)), 200, 2) {
			if err := tr.InsertPoint(p, int64(i)); err != nil {
				t.Fatal(err)
			}
		}
		// The fullest leaf a rectangle page holds: its bytes change kind
		// and nothing else.
		var leaf *Node
		if err := tr.Visit(func(n *Node, _ int) error {
			if n.Leaf && len(n.Entries) <= MaxEntries(mgr.PageSize(), tr.Dim()) && (leaf == nil || len(n.Entries) > len(leaf.Entries)) {
				leaf = &Node{ID: n.ID, Leaf: true}
				for _, e := range n.Entries { // the slot is reused after the callback
					leaf.Entries = append(leaf.Entries, Entry{Rect: e.Rect.Clone(), Rec: e.Rec})
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if leaf == nil || tr.Height() < 2 {
			t.Fatalf("tree of kind %d: no leaf fits a rectangle page", c.tree)
		}
		page := make([]byte, mgr.PageSize())
		encodeNode(leaf, c.page, tr.Dim(), page)
		if err := mgr.Write(leaf.ID, page); err != nil {
			t.Fatal(err)
		}
		if err := tr.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "kind") {
			t.Errorf("leaf of kind %d in a tree of kind %d: CheckInvariants = %v", c.page, c.tree, err)
		}
		for _, bad := range []byte{3, 0x80, 255} {
			page[0] = bad
			if err := mgr.Write(leaf.ID, page); err != nil {
				t.Fatal(err)
			}
			if _, err := tr.Load(leaf.ID); !errors.Is(err, ErrCorruptNode) {
				t.Errorf("page of kind %d: Load = %v, want ErrCorruptNode", bad, err)
			}
		}
	}
}
