package core

import (
	"math/rand"
	"sort"
	"testing"

	"tsq/internal/rtree"
	"tsq/internal/series"
	"tsq/internal/storage"
	"tsq/internal/transform"
)

// deepFixture builds an index whose R*-tree is at least three levels
// deep (1 KiB pages hold nine 6-dimensional entries).
func deepFixture(t testing.TB) (*Dataset, *Index) {
	t.Helper()
	opts := DefaultIndexOptions()
	opts.PageSize = 1024
	ds, ix := buildFixture(t, 17, 3000, 64, opts)
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
	mult, add := ix.fullMBRs(ts)
	q := ds.Records[0]
	measure := func(rho float64) (allocs float64, nodes, cands int) {
		qrect := ix.queryRect(q, ts, series.DistanceForCorrelation(64, rho), QRectSafe)
		allocs = testing.AllocsPerRun(10, func() {
			var st QueryStats
			out, err := ix.filter(nil, new(scratch), mult, add, qrect, nil, &st, nil)
			if err != nil {
				t.Fatal(err)
			}
			nodes, cands = st.DAAll, len(out)
		})
		return allocs, nodes, cands
	}
	tightAllocs, tightNodes, tightCands := measure(0.999)
	looseAllocs, looseNodes, looseCands := measure(0.3)
	t.Logf("tight: %d nodes, %d candidates, %.0f allocs; loose: %d nodes, %d candidates, %.0f allocs",
		tightNodes, tightCands, tightAllocs, looseNodes, looseCands, looseAllocs)
	if looseNodes < tightNodes+200 {
		t.Fatalf("loose rectangle visits %d nodes, tight %d: too close to tell", looseNodes, tightNodes)
	}
	if extra, perNode := looseAllocs-tightAllocs, float64(looseNodes-tightNodes)/10; extra > perNode {
		t.Errorf("%d more nodes visited cost %.0f more allocations (limit %.0f): node loads allocate",
			looseNodes-tightNodes, extra, perNode)
	}
}

// TestFilterCandidateFeaturesSurviveTraversal is the aliasing check of
// the reused slots: every feature point a traversal hands to
// verification must still be the record's indexed point after the whole
// walk has finished and every slot has been overwritten many times. The
// truth is read back with Tree.Load, which owns its node.
func TestFilterCandidateFeaturesSurviveTraversal(t *testing.T) {
	ds, ix := deepFixture(t)
	ts := transform.MovingAverageSet(64, 3, 10)
	mult, add := ix.fullMBRs(ts)
	qrect := ix.queryRect(ds.Records[5], ts, series.DistanceForCorrelation(64, 0.5), QRectSafe)
	var st QueryStats
	cands, err := ix.filter(nil, new(scratch), mult, add, qrect, nil, &st, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) < 100 || st.DALeaf < 20 {
		t.Fatalf("%d candidates from %d leaves; the test is vacuous", len(cands), st.DALeaf)
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
	for _, c := range cands {
		leaf, err := ix.Tree().Load(leafOf[c.rec])
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, e := range leaf.Entries {
			if e.Rec != c.rec {
				continue
			}
			found = true
			if len(c.feat) != len(e.Rect.Lo) {
				t.Fatalf("record %d: candidate feature has %d dimensions, leaf entry %d", c.rec, len(c.feat), len(e.Rect.Lo))
			}
			for d := range c.feat {
				if c.feat[d] != e.Rect.Lo[d] {
					t.Fatalf("record %d dim %d: candidate carries %v, its leaf entry holds %v", c.rec, d, c.feat[d], e.Rect.Lo[d])
				}
			}
		}
		if !found {
			t.Fatalf("record %d not in leaf %d", c.rec, leafOf[c.rec])
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
