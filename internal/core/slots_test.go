package core

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"tsq/internal/geom"
	"tsq/internal/rtree"
	"tsq/internal/series"
	"tsq/internal/storage"
	"tsq/internal/transform"
)

// deepFixture builds an index whose R*-tree is at least three levels
// deep (1 KiB pages hold nine 6-dimensional rectangles, eighteen points).
func deepFixture(t testing.TB) (*Dataset, *Index) {
	t.Helper()
	opts := DefaultIndexOptions()
	opts.PageSize = 1024
	ds, ix := buildFixture(t, 17, 6000, 64, opts)
	if h := ix.Tree().Height(); h < 3 {
		t.Fatalf("fixture tree has height %d, want at least 3", h)
	}
	return ds, ix
}

// TestFilterAllocsDoNotGrowWithNodesVisited pins the read path's
// ownership rule from the cost side: a traversal decodes every node
// into the slots it acquired once, so a query rectangle that visits
// hundreds of nodes more allocates only the few times more its longer
// candidate list needs, not once (let alone five times) per node.
func TestFilterAllocsDoNotGrowWithNodesVisited(t *testing.T) {
	ds, ix := deepFixture(t)
	ts := transform.MovingAverageSet(64, 3, 10)
	q := ds.Records[0]
	measure := func(rho float64) (allocs float64, nodes, cands int) {
		stg := ix.newStage(new(scratch), q, ts, series.DistanceForCorrelation(64, rho), RangeOptions{Mode: QRectSafe, NaiveVerify: true})
		allocs = testing.AllocsPerRun(10, func() {
			var st QueryStats
			out, err := ix.filter(nil, new(scratch), &stg, &st, nil)
			if err != nil {
				t.Fatal(err)
			}
			nodes, cands = st.DAAll, len(out)
		})
		return allocs, nodes, cands
	}
	tightAllocs, tightNodes, tightCands := measure(0.9999)
	looseAllocs, looseNodes, looseCands := measure(0.3)
	t.Logf("tight: %d nodes, %d candidates, %.0f allocs; loose: %d nodes, %d candidates, %.0f allocs",
		tightNodes, tightCands, tightAllocs, looseNodes, looseCands, looseAllocs)
	if looseNodes < max(4*tightNodes, tightNodes+200) {
		t.Fatalf("loose rectangle visits %d nodes, tight %d: too close to tell", looseNodes, tightNodes)
	}
	if extra, perNode := looseAllocs-tightAllocs, float64(looseNodes-tightNodes)/10; extra > perNode {
		t.Errorf("%d more nodes visited cost %.0f more allocations (limit %.0f): node loads allocate",
			looseNodes-tightNodes, extra, perNode)
	}
}

// TestFilterBoundSeesLeafFeatures is the aliasing check of the reused
// slots, for a stage that lets no slice of a decode slot outlive its
// leaf: the feature point the lower bound is handed for an admitted
// entry must be that record's indexed point at the moment of the call,
// however many times the slots have been overwritten by then, and the id
// the stage emits for a kept point must be that record's. The bound
// here copies what it is shown, keeps every third point and dismisses
// the others at alternating tiers; the truth is read back with
// Tree.Load, which owns its node.
func TestFilterBoundSeesLeafFeatures(t *testing.T) {
	ds, ix := deepFixture(t)
	ts := transform.MovingAverageSet(64, 3, 10)
	stg := ix.newStage(new(scratch), ds.Records[5], ts, series.DistanceForCorrelation(64, 0.5), RangeOptions{Mode: QRectSafe, NaiveVerify: true})
	var admitted, st QueryStats
	all, err := ix.filter(nil, new(scratch), &stg, &admitted, nil)
	if err != nil {
		t.Fatal(err)
	}
	all = append([]int64(nil), all...)
	if len(all) < 100 || admitted.DALeaf < 20 {
		t.Fatalf("%d candidates from %d leaves; the test is vacuous", len(all), admitted.DALeaf)
	}
	var shown [][]float64
	stg.bound = func(feat geom.Point) int {
		shown = append(shown, append([]float64(nil), feat...))
		if n := len(shown) - 1; n%3 != 0 {
			return n % 3 // tiers 1 and 2
		}
		return -1
	}
	kept, err := ix.filter(nil, new(scratch), &stg, &st, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(shown) != len(all) {
		t.Fatalf("the bound saw %d points, the traversal admits %d", len(shown), len(all))
	}
	if want := (len(all) + 2) / 3; len(kept) != want || st.SkippedLB != len(all)-want || st.SkippedLB0 != 0 ||
		st.SkippedLB1 != (len(all)+1)/3 || st.SkippedLB2 != len(all)/3 || st.Candidates != 0 {
		t.Fatalf("%d kept of %d, stats %+v", len(kept), len(all), st)
	}
	for i, rec := range kept {
		if rec != all[3*i] {
			t.Fatalf("survivor %d is record %d, want %d: a kept point's id is not its entry's", i, rec, all[3*i])
		}
	}

	leafOf := make(map[int64]storage.PageID)
	if err := ix.Tree().Visit(func(n *rtree.Node, _ int) error {
		if n.Leaf {
			for _, e := range n.Entries {
				leafOf[e.Rec] = n.ID
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, rec := range all {
		leaf, err := ix.Tree().Load(leafOf[rec])
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, e := range leaf.Entries {
			if e.Rec != rec {
				continue
			}
			found = true
			if !reflect.DeepEqual(shown[i], []float64(e.Rect.Lo)) {
				t.Fatalf("record %d: the bound was shown %v, its leaf entry holds %v", rec, shown[i], e.Rect.Lo)
			}
		}
		if !found {
			t.Fatalf("record %d not in leaf %d", rec, leafOf[rec])
		}
	}
}

// TestInsertTopKMatchesSortPerCandidate checks that the in-place
// insertion keeps exactly the list the former append, sort.Slice and
// truncate produced, ties included (for these lengths sort.Slice is an
// insertion sort, so equal distances stay in arrival order).
func TestInsertTopKMatchesSortPerCandidate(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	less := func(a, b NNMatch) bool { return a.Distance < b.Distance }
	for k := 1; k <= 11; k++ {
		var got, want []NNMatch
		for i := 0; i < 300; i++ {
			m := NNMatch{RecordID: int64(i), Distance: float64(rng.Intn(40))} // many ties
			got = insertTopK(got, m, k, less)
			want = append(want, m)
			sort.Slice(want, func(a, b int) bool { return want[a].Distance < want[b].Distance })
			if len(want) > k {
				want = want[:k]
			}
			if len(got) != len(want) {
				t.Fatalf("k=%d after %d: %d kept, want %d", k, i+1, len(got), len(want))
			}
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("k=%d after %d, position %d: %+v, want %+v", k, i+1, j, got[j], want[j])
				}
			}
		}
	}
}
