package rtree

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"tsq/internal/geom"
	"tsq/internal/storage"
)

// leafMembership returns the record ids of every leaf, each sorted, in
// depth-first order: the shape of the tree as far as a search can tell.
func leafMembership(t testing.TB, tr *Tree) [][]int64 {
	t.Helper()
	var leaves [][]int64
	err := tr.Visit(func(n *Node, level int) error {
		if !n.Leaf {
			return nil
		}
		recs := make([]int64, len(n.Entries))
		for i, e := range n.Entries {
			recs[i] = e.Rec
		}
		sort.Slice(recs, func(i, j int) bool { return recs[i] < recs[j] })
		leaves = append(leaves, recs)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return leaves
}

// featureLikePoints draws points whose coordinates live on scales as far
// apart as the feature index's: dimension d spans about scales[d].
func featureLikePoints(rng *rand.Rand, n int, scales []float64) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		p := make(geom.Point, len(scales))
		for d, s := range scales {
			p[d] = rng.Float64() * s
		}
		pts[i] = p
	}
	return pts
}

// TestSplitsAreScaleFree: the tree a sequence of inserts and deletes
// grows does not depend on the unit of any coordinate. The same points
// with one dimension multiplied by 2^14 — a power of two, so every
// normalised margin and centre distance is the same float64 and every
// area scales exactly — build a tree with identical leaves, whichever
// dimension is scaled. With margins summed in raw coordinates the scaled
// dimension outweighs the rest and takes every split.
func TestSplitsAreScaleFree(t *testing.T) {
	const n, dim, factor = 3000, 4, 1 << 14
	rng := rand.New(rand.NewSource(31))
	pts := featureLikePoints(rng, n, []float64{100, 1, 8, 6.3})
	build := func(scaled int) *Tree {
		tr := newTestTree(t, dim, 1024)
		at := func(i int) geom.Point {
			p := pts[i].Clone()
			if scaled >= 0 {
				p[scaled] *= factor
			}
			return p
		}
		for i := range pts {
			if err := tr.InsertPoint(at(i), int64(i)); err != nil {
				t.Fatal(err)
			}
			if i%7 == 6 { // deletes condense and reinsert: the same heuristics
				if err := tr.Delete(geom.PointRect(at(i-3)), int64(i-3)); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		return tr
	}
	want := leafMembership(t, build(-1))
	if len(want) < 50 {
		t.Fatalf("%d leaves; the test is vacuous", len(want))
	}
	for d := 0; d < dim; d++ {
		if got := leafMembership(t, build(d)); !reflect.DeepEqual(got, want) {
			t.Errorf("dimension %d times %d: %d leaves with other members than the %d of the unscaled tree", d, factor, len(got), len(want))
		}
	}
}

// TestSplitsPartitionEveryDimension: on coordinates three orders of
// magnitude apart in scale the leaves are cut along every dimension the
// tree organises by and along none it only carries, whichever way the
// tree was built. Uniform data, 8 000 points in six dimensions, some 150
// leaves. With no carried dimension no dimension's mean leaf
// extent is more than three quarters of the root's: two to three cuts
// each if shared evenly (summed raw margins cut the two large dimensions
// only and leave the other four spanned whole). With the two largest
// carried, as the feature index carries mean and std, the four others
// share the cuts and the carried two are spanned almost whole (at least
// 0.9): a cut there is one no query of normal forms can use.
func TestSplitsPartitionEveryDimension(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	scales := []float64{14000, 3500, 8, 6.3, 4, 6.3}
	pts := featureLikePoints(rng, 8000, scales)
	for _, carried := range []int{0, 2} {
		for _, packed := range []bool{false, true} {
			// Packed from the items, or empty and grown by insertion.
			var items []BulkItem
			if packed {
				for i, p := range pts {
					items = append(items, BulkItem{Rect: geom.Rect{Lo: p, Hi: p}, Rec: int64(i)})
				}
			}
			tr, err := BulkLoad(storage.NewManager(storage.Options{PageSize: 4096}), len(scales), carried, items)
			if err != nil {
				t.Fatal(err)
			}
			if !packed {
				for i, p := range pts {
					if err := tr.InsertPoint(p, int64(i)); err != nil {
						t.Fatal(err)
					}
				}
			}
			h, err := tr.Health()
			if err != nil {
				t.Fatal(err)
			}
			share := h.Levels[h.Height-1].ExtentShare
			t.Logf("carried %d, packed %v: %d leaves, mean leaf extent shares %s", carried, packed, h.Levels[h.Height-1].Nodes, fmtShares(share))
			for d, s := range share {
				if d >= carried && s > 0.75 || d < carried && s < 0.9 {
					t.Errorf("carried %d, packed %v: mean leaf extent per dimension, as a share of the root's: %s; want the first %d at least 0.9 and none after above 0.75",
						carried, packed, fmtShares(share), carried)
					break
				}
			}
		}
	}
}

func fmtShares(share []float64) string {
	out := ""
	for _, s := range share {
		out += fmt.Sprintf(" %.2f", s)
	}
	return out[1:]
}

// TestInvariantsAfterManyInsertsAndDeletes: 20 000 inserts with deletes
// interleaved, through every overflow path (reinsertion, split, root
// split, condense) and their shared scratch, leave a valid tree that
// still finds exactly the live records.
func TestInvariantsAfterManyInsertsAndDeletes(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	scales := []float64{14000, 3500, 8, 6.3, 4, 6.3}
	pts := featureLikePoints(rng, 20000, scales)
	tr := newTestTree(t, len(scales), 4096)
	live := make(map[int64]bool)
	for i, p := range pts {
		if err := tr.InsertPoint(p, int64(i)); err != nil {
			t.Fatal(err)
		}
		live[int64(i)] = true
		if i%5 == 4 {
			victim := int64(rng.Intn(i + 1))
			if live[victim] {
				if err := tr.Delete(geom.PointRect(pts[victim]), victim); err != nil {
					t.Fatalf("insert %d: delete %d: %v", i, victim, err)
				}
				delete(live, victim)
			}
		}
		if i%5000 == 4999 {
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("after %d inserts: %v", i+1, err)
			}
		}
	}
	if int(tr.Len()) != len(live) {
		t.Fatalf("Len = %d, %d live", tr.Len(), len(live))
	}
	everything := geom.Rect{Lo: make(geom.Point, len(scales)), Hi: geom.Point(scales).Clone()}
	got, _, err := tr.Search(everything)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(live) {
		t.Fatalf("search returned %d records, %d live", len(got), len(live))
	}
	for _, rec := range got {
		if !live[rec] {
			t.Fatalf("search returned deleted record %d", rec)
		}
	}
}
