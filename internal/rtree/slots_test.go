package rtree

import (
	"math/rand"
	"strings"
	"sync"
	"testing"

	"tsq/internal/geom"
	"tsq/internal/storage"
)

// filledTree builds a tree of n random points and returns it with the
// points (record id = index).
func filledTree(t testing.TB, seed int64, n, dim, pageSize int) (*Tree, []geom.Point) {
	t.Helper()
	tr := newTestTree(t, dim, pageSize)
	pts := randPoints(rand.New(rand.NewSource(seed)), n, dim)
	for i, p := range pts {
		if err := tr.InsertPoint(p, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	return tr, pts
}

// TestLoadIntoWarmSlotAllocatesNothing pins the point of the decode
// slot: once a slot exists, a node access is a page read, a checksum and
// a decode (or, for a leaf through LoadView, a view), and no allocation.
func TestLoadIntoWarmSlotAllocatesNothing(t *testing.T) {
	tr, _ := filledTree(t, 1, 600, 6, 1024)
	var ids []storage.PageID
	if err := tr.Visit(func(n *Node, _ int) error {
		ids = append(ids, n.ID)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(ids) < 50 {
		t.Fatalf("only %d nodes; the test is vacuous", len(ids))
	}
	slots := tr.AcquireSlots()
	defer slots.Release()
	slot := slots.At(0)
	entries := 0
	allocs := testing.AllocsPerRun(10, func() {
		for _, id := range ids {
			n, err := tr.LoadInto(nil, id, slot)
			if err != nil {
				t.Fatal(err)
			}
			entries += len(n.Entries)
		}
	})
	if allocs != 0 {
		t.Errorf("%d node loads into a warm slot allocated %.0f times, want 0", len(ids), allocs)
	}
	allocs = testing.AllocsPerRun(10, func() {
		for _, id := range ids {
			if _, _, err := tr.LoadView(nil, id, slot); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("%d views and loads into a warm slot allocated %.0f times, want 0", len(ids), allocs)
	}
	if entries == 0 {
		t.Error("loads decoded no entries")
	}
}

// TestLoadIntoMatchesLoad checks that a node read into a reused slot is
// the node Load returns, for every node of a tree, whatever the slot
// held before, and that LoadView gives the same node for an internal
// one and a view of the same points and record ids for a leaf, in a
// slot that held a view or a node before. A tree of rectangle leaves,
// as files written before point leaves have, is read the same way: its
// view gives the low corners.
func TestLoadIntoMatchesLoad(t *testing.T) {
	for _, kind := range []byte{kindPointLeaf, kindRectLeaf} {
		tr, err := create(storage.NewManager(storage.Options{PageSize: 512}), meta{leafKind: kind, dim: 3}, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range randPoints(rand.New(rand.NewSource(2)), 400, 3) {
			if err := tr.InsertPoint(p, int64(i)); err != nil {
				t.Fatal(err)
			}
		}
		slots := tr.AcquireSlots()
		nodes, views := 0, 0
		err = tr.Visit(func(n *Node, _ int) error {
			nodes++
			owned, err := tr.Load(n.ID)
			if err != nil {
				return err
			}
			// Slot 0 of a second set: the walk's own slots are not disturbed.
			reused, err := tr.LoadInto(nil, n.ID, slots.At(0))
			if err != nil {
				return err
			}
			if !sameNode(owned, reused, tr.Dim()) || !sameNode(owned, n, tr.Dim()) {
				t.Errorf("kind %d, node %d: Load, LoadInto and Visit disagree", kind, n.ID)
			}
			node, view, err := tr.LoadView(nil, n.ID, slots.At(1))
			if err != nil {
				return err
			}
			if view != nil {
				views++
			}
			if n.Leaf && (node != nil || !sameView(view, owned, tr.Dim())) || !n.Leaf && (view != nil || !sameNode(owned, node, tr.Dim())) {
				t.Errorf("kind %d, node %d: LoadView and Load disagree", kind, n.ID)
			}
			return nil
		})
		slots.Release()
		if err != nil {
			t.Fatal(err)
		}
		if nodes < 20 || views == 0 || views == nodes {
			t.Fatalf("kind %d: %d nodes of which %d leaves; the test is vacuous", kind, nodes, views)
		}
	}
}

// TestSlotOfAnotherTreeRejected checks the guard that keeps a slot sized
// for one tree out of a tree with another page size or dimensionality.
func TestSlotOfAnotherTreeRejected(t *testing.T) {
	small, _ := filledTree(t, 3, 50, 2, 1024)
	large, _ := filledTree(t, 4, 50, 6, 4096)
	slots := small.AcquireSlots()
	defer slots.Release()
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "decode slot") {
			t.Errorf("loading into another tree's slot: recovered %q, want the slot-mismatch panic", msg)
		}
	}()
	_, _ = large.LoadInto(nil, large.Root(), slots.At(0)) // must panic
	t.Error("a 1 KiB, 2-dimensional slot was accepted by a 4 KiB, 6-dimensional tree")
}

// TestTwoTreesQueriedConcurrently runs every read traversal of two trees
// with different page sizes and dimensionalities from many goroutines at
// once. Slots are pooled per tree, so no traversal may ever receive a
// slot sized for the other tree, and no two traversals may share one;
// run under -race this also proves the pool hands each set to one owner.
func TestTwoTreesQueriedConcurrently(t *testing.T) {
	type fixture struct {
		tr    *Tree
		query geom.Rect
		want  []int64
		joins int
	}
	build := func(seed int64, n, dim, pageSize int) *fixture {
		tr, pts := filledTree(t, seed, n, dim, pageSize)
		lo, hi := make(geom.Point, dim), make(geom.Point, dim)
		for d := range lo {
			lo[d], hi[d] = -6, 6
		}
		f := &fixture{tr: tr, query: geom.NewRect(lo, hi)}
		for i, p := range pts {
			if f.query.Contains(p) {
				f.want = append(f.want, int64(i))
			}
		}
		pairs, _, err := tr.SelfJoin(1.5)
		if err != nil {
			t.Fatal(err)
		}
		f.joins = len(pairs)
		if len(f.want) == 0 || tr.Height() < 3 {
			t.Fatalf("fixture too small: %d answers, height %d", len(f.want), tr.Height())
		}
		return f
	}
	fixtures := []*fixture{build(5, 1500, 2, 1024), build(6, 900, 6, 2048)}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		f := fixtures[g%2]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 15; round++ {
				got, _, err := f.tr.Search(f.query)
				if err != nil {
					t.Error(err)
					return
				}
				if !equalInt64(sortedInt64(got), f.want) {
					t.Errorf("dim %d: concurrent Search returned %d records, want %d", f.tr.Dim(), len(got), len(f.want))
					return
				}
				pairs, _, err := f.tr.SelfJoin(1.5)
				if err != nil {
					t.Error(err)
					return
				}
				if len(pairs) != f.joins {
					t.Errorf("dim %d: concurrent SelfJoin found %d pairs, want %d", f.tr.Dim(), len(pairs), f.joins)
					return
				}
				if err := f.tr.CheckInvariants(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
