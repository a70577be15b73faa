package core

import (
	"context"
	"strings"
	"testing"

	"tsq/internal/obs"
	"tsq/internal/series"
	"tsq/internal/transform"
)

// TestIndexCarriesMeanAndStd: the feature tree organises by the DFT
// coefficient dimensions only, because no query of normal forms
// constrains mean or std, whether it is packed or grown by insertion. On
// random walks a leaf spans on average more of the mean and std
// dimensions, as a share of the root, than of the coefficient ones
// (about 0.45 against 0.25 to 0.32); a tree that divides its cuts among
// all six dimensions reads the other way round (about 0.2 against 0.35).
func TestIndexCarriesMeanAndStd(t *testing.T) {
	for _, packed := range []bool{false, true} {
		opts := DefaultIndexOptions()
		opts.BulkLoad = packed
		_, ix := buildFixture(t, 3, 8000, 64, opts)
		h, err := ix.Tree().Health()
		if err != nil {
			t.Fatal(err)
		}
		share := h.Levels[h.Height-1].ExtentShare
		t.Logf("packed %v: %d leaves, mean leaf extent per dimension %.2f", packed, h.Levels[h.Height-1].Nodes, share)
		mean := func(s []float64) float64 {
			var sum float64
			for _, v := range s {
				sum += v
			}
			return sum / float64(len(s))
		}
		if mean(share[:2]) <= mean(share[2:]) {
			t.Errorf("packed %v: mean leaf extent per dimension %.2f: mean and std are cut as finely as the coefficients", packed, share)
		}
	}
}

// TestIndexHealthGroundTruth cross-checks the health report header and
// tree section against the index's own metadata, and the group section
// against the transformation partition.
func TestIndexHealthGroundTruth(t *testing.T) {
	ds, ix := pagedFixture(t, 5, 300, 64)
	ts := transform.MovingAverageSet(64, 3, 14) // 12 transforms
	groups := EqualPartition(len(ts), 4)

	hr, err := WrapIndex(ix).Health(context.Background(), ts, groups)
	if err != nil {
		t.Fatal(err)
	}
	if hr.Series != len(ds.Records) || hr.SeriesLength != 64 || hr.K != ix.opts.K {
		t.Errorf("header = %+v", hr)
	}
	if hr.Tree.Height != ix.Tree().Height() || hr.Tree.Size != ix.Tree().Len() {
		t.Errorf("tree = height=%d size=%d, want %d/%d",
			hr.Tree.Height, hr.Tree.Size, ix.Tree().Height(), ix.Tree().Len())
	}
	// One leaf entry per series.
	leaf := hr.Tree.Levels[hr.Tree.Height-1]
	if leaf.Entries != len(ds.Records) {
		t.Errorf("leaf entries = %d, want %d", leaf.Entries, len(ds.Records))
	}
	if hr.Heap == nil || hr.Heap.Live != len(ds.Records) || hr.Heap.Deleted != 0 {
		t.Errorf("heap = %+v", hr.Heap)
	}
	if len(hr.Groups) != len(groups) {
		t.Fatalf("%d groups, want %d", len(hr.Groups), len(groups))
	}
	for gi, g := range hr.Groups {
		if g.Size != len(groups[gi]) {
			t.Errorf("group %d size = %d, want %d", gi, g.Size, len(groups[gi]))
		}
		// Moving averages scale magnitudes (mult part) and shift phases
		// (add part), both varying across window lengths: each part must
		// have measurable spread over its non-degenerate dimensions.
		if g.MultVolume <= 0 || g.AddVolume <= 0 {
			t.Errorf("group %d volumes = %v/%v, want both > 0", gi, g.MultVolume, g.AddVolume)
		}
		if g.Probes != 0 || g.Candidates != 0 {
			t.Errorf("group %d has counters before any fold: %+v", gi, g)
		}
	}
}

// TestIndexHealthFoldTrace runs traced MT-index queries and folds their
// probe spans into the report; per-group counters must sum exactly to
// the trace totals, and the NN probe (no group ordinal) must not fold.
func TestIndexHealthFoldTrace(t *testing.T) {
	ds, ix := pagedFixture(t, 9, 200, 64)
	ts := transform.MovingAverageSet(64, 3, 14)
	groups := EqualPartition(len(ts), 4)
	eps := series.DistanceForCorrelation(64, 0.9)

	hr, err := WrapIndex(ix).Health(context.Background(), ts, groups)
	if err != nil {
		t.Fatal(err)
	}

	var wantCand, wantFP, wantMatches int64
	for _, qi := range []int{3, 17, 42} {
		tr := obs.New()
		root := tr.Start(obs.KindQuery, "range")
		ctx := obs.ContextWithSpan(obs.WithTrace(context.Background(), tr), root)
		opts := RangeOptions{Mode: QRectSafe, Groups: groups}
		if _, _, err := WrapIndex(ix).MTIndexRange(ctx, ds.Records[qi], ts, eps, opts); err != nil {
			t.Fatal(err)
		}
		// An NN query in the same trace must not disturb group folds.
		if _, _, err := WrapIndex(ix).MTIndexNN(ctx, ds.Records[qi], ts, 3, RangeOptions{}); err != nil {
			t.Fatal(err)
		}
		root.End()
		wantCand += tr.Sum(obs.KindVerify, obs.ACandidates)
		wantFP += tr.Sum(obs.KindVerify, obs.AFalsePositives)
		wantMatches += tr.Sum(obs.KindVerify, obs.AMatches)
		hr.FoldTrace(tr)
	}

	var gotCand, gotFP, gotMatches, gotProbes int64
	for _, g := range hr.Groups {
		gotCand += g.Candidates
		gotFP += g.FalsePositives
		gotMatches += g.Matches
		gotProbes += g.Probes
		if g.Candidates > 0 {
			want := float64(g.FalsePositives) / float64(g.Candidates)
			if g.FalsePositiveRate != want {
				t.Errorf("group %d fp rate = %v, want %v", g.Group, g.FalsePositiveRate, want)
			}
		}
	}
	if gotCand != wantCand || gotFP != wantFP || gotMatches != wantMatches {
		t.Errorf("folded totals cand=%d fp=%d matches=%d, want %d/%d/%d",
			gotCand, gotFP, gotMatches, wantCand, wantFP, wantMatches)
	}
	if gotProbes != int64(3*len(groups)) {
		t.Errorf("folded probes = %d, want %d (3 queries x %d groups)", gotProbes, 3*len(groups), len(groups))
	}
}

// TestHealthReportText spot-checks the -inspect rendering.
func TestHealthReportText(t *testing.T) {
	_, ix := pagedFixture(t, 2, 150, 64)
	ts := transform.MovingAverageSet(64, 3, 6)
	hr, err := WrapIndex(ix).Health(context.Background(), ts, EqualPartition(len(ts), 2))
	if err != nil {
		t.Fatal(err)
	}
	text := hr.String()
	for _, needle := range []string{
		"index health: 150 series",
		"R*-tree: height=",
		"leaf occupancy",
		"heap: 150 records (150 live, 0 deleted)",
		"storage: reads=",
		"transformation groups:",
	} {
		if !strings.Contains(text, needle) {
			t.Errorf("report missing %q:\n%s", needle, text)
		}
	}
}
