package core

import (
	"math"
	"reflect"
	"testing"

	"tsq/internal/datagen"
	"tsq/internal/transform"
)

// Tests that fail if verification that stops early turns unsound: the
// k-th best distance as the cutoff of the NN and closest-pairs kernels,
// the prefix bound at the NN leaf, and the abandoning join. The oracle is
// always a sequential scan, which shares neither cutoff nor cosine cache
// with what it checks.

// TestNNTiesAtKthEqualScan: seven copies of one series sit at exactly
// the same distance from the query, and k cuts through them. A record
// tying with the k-th best must be computed, not abandoned, to be ranked
// by id — so the index answers, at every shard count, with and without a
// heap file, must equal the scan's in rank order, while evaluations do
// get abandoned.
func TestNNTiesAtKthEqualScan(t *testing.T) {
	t.Parallel()
	const query = 10
	ss := datagen.RandomWalks(16, 320, 64)
	ts := transform.MovingAverageSet(64, 4, 9)
	base, err := NewDataset(ss, nil)
	if err != nil {
		t.Fatal(err)
	}
	near, _, _ := SeqScanNN(nil, base, base.Records[query], ts, 5, false)
	src := near[4].RecordID // the 5th nearest: its copies tie for ranks 4..10
	for id := 300; id < 306; id++ {
		ss[id] = ss[src].Clone()
	}
	for _, shards := range []int{1, 2, 3} {
		for _, paged := range []bool{false, true} {
			ds, err := NewDataset(ss, nil)
			if err != nil {
				t.Fatal(err)
			}
			opts := DefaultIndexOptions()
			opts.Paged = paged
			sh, err := BuildSharded(ds, shards, opts)
			if err != nil {
				t.Fatal(err)
			}
			q := ds.Records[query]
			full, _, _ := SeqScanNN(nil, ds, q, ts, 12, false)
			for rank := 4; rank <= 10; rank++ {
				if full[rank].Distance != full[4].Distance || full[rank].Distance == 0 {
					t.Fatalf("fixture: rank %d at %v, rank 4 at %v: the copies do not tie", rank, full[rank].Distance, full[4].Distance)
				}
			}
			for _, k := range []int{4, 5, 7, 10, 11, 12} {
				want, _, _ := SeqScanNN(nil, ds, q, ts, k, false)
				got, st, err := sh.MTIndexNN(nil, q, ts, k, RangeOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("shards=%d paged=%v %d-NN:\nindex %+v\n scan %+v", shards, paged, k, got, want)
				}
				if st.Abandoned == 0 || st.SkippedLB == 0 {
					t.Errorf("shards=%d paged=%v %d-NN: %d abandoned, %d skipped by the prefix bound: the k-th best prunes nothing", shards, paged, k, st.Abandoned, st.SkippedLB)
				}
				if st.SkippedLB != st.SkippedLB0+st.SkippedLB1+st.SkippedLB2 {
					t.Errorf("shards=%d paged=%v %d-NN: SkippedLB %d is not the sum of its tiers %d+%d+%d", shards, paged, k, st.SkippedLB, st.SkippedLB0, st.SkippedLB1, st.SkippedLB2)
				}
			}
		}
	}
}

// TestNNCascadeDismissalsSound: every leaf entry an NN search dismisses
// by the prefix bound really is beyond the k-th best distance in force at
// that moment — strictly, under every transformation, by the scan's
// kernels — on the symmetric and the no-symmetry builds and for the
// one-sided predicate over a shift set. A bound that is merely harmless
// to the final answer (dismissing above the final k-th distance but not
// above the one in force) fails here.
func TestNNCascadeDismissalsSound(t *testing.T) {
	t.Parallel()
	for _, c := range []struct {
		name     string
		sym      bool
		oneSided bool
		ts       []transform.Transform
	}{
		{"symmetric", true, false, cascadeFixtureTransforms(64)},
		{"no symmetry", false, false, cascadeFixtureTransforms(64)},
		{"one-sided shifts", true, true, transform.TimeShiftSet(64, -3, 3)},
	} {
		opts := DefaultIndexOptions()
		opts.UseSymmetry = c.sym
		ds, ix := buildFixture(t, 23, 400, 64, opts)
		type dismissal struct {
			rec   int64
			worst float64
		}
		var seen []dismissal
		ix.nnDismissed = func(rec int64, worst float64) { seen = append(seen, dismissal{rec, worst}) }
		var total int
		for trial := 0; trial < 6; trial++ {
			q := ds.Records[trial*37%len(ds.Records)]
			k := 1 + 3*trial
			seen = seen[:0]
			got, st, err := ix.MTIndexNN(nil, q, c.ts, k, RangeOptions{OneSided: c.oneSided})
			if err != nil {
				t.Fatal(err)
			}
			if want, _, _ := SeqScanNN(nil, ds, q, c.ts, k, c.oneSided); !reflect.DeepEqual(got, want) {
				t.Errorf("%s trial %d: %d-NN differs from the scan:\nindex %+v\n scan %+v", c.name, trial, k, got, want)
			}
			if len(seen) != st.SkippedLB {
				t.Errorf("%s trial %d: hook saw %d dismissals, SkippedLB = %d", c.name, trial, len(seen), st.SkippedLB)
			}
			total += len(seen)
			for _, d := range seen {
				if math.IsInf(d.worst, 1) {
					t.Fatalf("%s trial %d: record %d dismissed before %d results were in", c.name, trial, d.rec, k)
				}
				r := ds.Records[d.rec]
				for _, tr := range c.ts {
					if dist := distancePred(tr, r, q, c.oneSided); !(dist > d.worst) {
						t.Fatalf("%s trial %d: record %d dismissed at k-th best %v, but %s puts it at %v", c.name, trial, d.rec, d.worst, tr.Name, dist)
					}
				}
			}
		}
		if total == 0 {
			t.Errorf("%s: the prefix bound never dismissed a leaf entry — soundness untested", c.name)
		}
	}
}

// TestJoinClosestTiesEqualScan: the closest distinct pair (a, b) of the
// data, with b copied three times, gives four pairs at exactly the same
// distance d. A join at eps = d must keep all four (d <= eps holds with
// equality, so the abandoning kernel must complete them), and closest
// pairs with k cutting through them must rank them by id — both equal to
// the scans at every shard count, while reporting abandoned evaluations.
func TestJoinClosestTiesEqualScan(t *testing.T) {
	t.Parallel()
	ss := datagen.RandomWalks(29, 150, 64)
	ts := transform.MovingAverageSet(64, 4, 7)
	base, err := NewDataset(ss, nil)
	if err != nil {
		t.Fatal(err)
	}
	closest, _, _ := SeqScanClosestPairs(base, ts, 1)
	a, b, eps := closest[0].IDA, closest[0].IDB, closest[0].Distance
	for id := 140; id < 143; id++ {
		ss[id] = ss[b].Clone()
	}
	for _, shards := range []int{1, 2, 3} {
		ds, err := NewDataset(ss, nil)
		if err != nil {
			t.Fatal(err)
		}
		sh, err := BuildSharded(ds, shards, DefaultIndexOptions())
		if err != nil {
			t.Fatal(err)
		}

		wantJ, _, _ := SeqScanJoin(ds, ts, eps)
		gotJ, st, err := sh.MTIndexJoin(ts, eps, RangeOptions{Mode: QRectSafe})
		if err != nil {
			t.Fatal(err)
		}
		sortJoin(wantJ)
		sortJoin(gotJ)
		if !reflect.DeepEqual(gotJ, wantJ) {
			t.Errorf("shards=%d join at eps=%v:\nindex %+v\n scan %+v", shards, eps, gotJ, wantJ)
		}
		atEps := 0
		for _, m := range gotJ {
			if m.IDA == a && m.Distance == eps {
				atEps++
			}
		}
		if atEps != 4 {
			t.Errorf("shards=%d: %d join pairs of record %d sit exactly at eps, want 4 (record %d and its three copies)", shards, atEps, a, b)
		}
		if st.Abandoned == 0 {
			t.Errorf("shards=%d: the join abandoned no evaluation", shards)
		}

		// Six pairs at distance 0 among b and its copies, then the four
		// at d: k = 8 cuts the second group in half.
		for _, k := range []int{3, 6, 8, 10, 14} {
			wantP, _, _ := SeqScanClosestPairs(ds, ts, k)
			gotP, st, err := sh.MTIndexClosestPairs(ts, k)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotP, wantP) {
				t.Errorf("shards=%d %d closest pairs:\nindex %+v\n scan %+v", shards, k, gotP, wantP)
			}
			if st.Abandoned == 0 {
				t.Errorf("shards=%d %d closest pairs: no evaluation abandoned", shards, k)
			}
		}
		if p, _, _ := SeqScanClosestPairs(ds, ts, 8); p[5].Distance != 0 || p[6].Distance != eps || p[7].Distance != eps {
			t.Fatalf("fixture: ranks 5..7 at %v, %v, %v; want 0, then %v twice", p[5].Distance, p[6].Distance, p[7].Distance, eps)
		}
	}
}

// BenchmarkNNResolve is the 10-NN search the repo benchmark's nn-shards2
// workload runs per shard, where candidate resolution is nearly all of
// the time: what the k-th best cutoff, the leaf prefix bound and the
// shared cosines are for. It reports the candidates resolved and the
// evaluations abandoned per query next to the time.
func BenchmarkNNResolve(b *testing.B) {
	opts := DefaultIndexOptions()
	opts.BulkLoad = true // the build is not what is measured
	ds, ix := buildFixture(b, 3, 3000, 128, opts)
	ts := transform.MovingAverageSet(128, 5, 20)
	var st QueryStats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, qst, err := ix.MTIndexNN(nil, ds.Records[i*131%len(ds.Records)], ts, 10, RangeOptions{})
		if err != nil || len(res) != 10 {
			b.Fatalf("%d results, err %v", len(res), err)
		}
		st.Add(qst)
	}
	b.ReportMetric(float64(st.Candidates)/float64(b.N), "candidates/op")
	b.ReportMetric(float64(st.Abandoned)/float64(b.N), "abandoned/op")
}
