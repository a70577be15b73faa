package core

import (
	"math/rand"
	"reflect"
	"testing"

	"tsq/internal/series"
	"tsq/internal/transform"
)

// TestPipelineMatchesNaiveAllPaths is the bit-identity contract of the
// I/O-aware candidate pipeline: on randomized datasets, every query path
// (sequential scan, ST-index, MT-index), sided-ness, and worker count
// returns exactly the matches of the naive record-at-a-time verifier —
// same records, same transformation indices, same distance bits, same
// order after SortMatches. The pipeline may only change how much I/O and
// arithmetic the answer costs, never the answer.
func TestPipelineMatchesNaiveAllPaths(t *testing.T) {
	t.Parallel()
	for _, paged := range []bool{false, true} {
		opts := DefaultIndexOptions()
		if paged {
			opts.Paged = true
			opts.BufferPages = 8
		}
		ds, ix := buildFixture(t, 21, 300, 64, opts)
		ts := transform.MovingAverageSet(64, 4, 19) // 16 transforms
		var totalSkipped, totalAbandoned int
		for trial := 0; trial < 6; trial++ {
			q := ds.Records[trial*37%len(ds.Records)]
			eps := series.DistanceForCorrelation(64, 0.88+0.02*float64(trial%3))
			for _, variant := range []RangeOptions{
				{Mode: QRectSafe},
				{Mode: QRectSafe, OneSided: true},
				{Mode: QRectSafe, Workers: 4},
				{Mode: QRectSafe, Groups: EqualPartition(len(ts), 4)},
				{Mode: QRectSafe, FlatLB: true},
				{Mode: QRectSafe, FlatLB: true, OneSided: true},
			} {
				naive := variant
				naive.NaiveVerify = true

				wantSeq, seqNaiveSt, _ := SeqScanRange(nil, ds, q, ts, eps, naive)
				gotSeq, seqSt, _ := SeqScanRange(nil, ds, q, ts, eps, variant)
				if !reflect.DeepEqual(gotSeq, wantSeq) {
					t.Fatalf("paged=%v trial=%d %+v: seqscan pipeline diverged", paged, trial, variant)
				}
				if seqSt.Candidates != seqNaiveSt.Candidates || seqSt.Comparisons != seqNaiveSt.Comparisons {
					t.Fatalf("paged=%v trial=%d: seqscan effort accounting changed: %+v vs %+v", paged, trial, seqSt, seqNaiveSt)
				}

				wantST, stNaiveSt, err := WrapIndex(ix).STIndexRange(nil, q, ts, eps, naive)
				if err != nil {
					t.Fatal(err)
				}
				gotST, stSt, err := WrapIndex(ix).STIndexRange(nil, q, ts, eps, variant)
				if err != nil {
					t.Fatal(err)
				}
				SortMatches(wantST)
				SortMatches(gotST)
				if !reflect.DeepEqual(gotST, wantST) {
					t.Fatalf("paged=%v trial=%d %+v: ST pipeline diverged", paged, trial, variant)
				}
				checkEffort(t, "ST", variant, stSt, stNaiveSt, func(o RangeOptions) QueryStats {
					_, st, err := WrapIndex(ix).STIndexRange(nil, q, ts, eps, o)
					if err != nil {
						t.Fatal(err)
					}
					return st
				})

				wantMT, mtNaiveSt, err := WrapIndex(ix).MTIndexRange(nil, q, ts, eps, naive)
				if err != nil {
					t.Fatal(err)
				}
				gotMT, mtSt, err := WrapIndex(ix).MTIndexRange(nil, q, ts, eps, variant)
				if err != nil {
					t.Fatal(err)
				}
				SortMatches(wantMT)
				SortMatches(gotMT)
				if !reflect.DeepEqual(gotMT, wantMT) {
					t.Fatalf("paged=%v trial=%d %+v: MT pipeline diverged", paged, trial, variant)
				}
				checkEffort(t, "MT", variant, mtSt, mtNaiveSt, func(o RangeOptions) QueryStats {
					_, st, err := WrapIndex(ix).MTIndexRange(nil, q, ts, eps, o)
					if err != nil {
						t.Fatal(err)
					}
					return st
				})
				// The per-tier invariant: the cascade attributes every
				// skip to exactly one tier, so the tier counters
				// partition SkippedLB (and the flat mode books all of
				// its skips as full-prefix, i.e. tier 2).
				for _, st := range []QueryStats{stSt, mtSt} {
					if st.SkippedLB0+st.SkippedLB1+st.SkippedLB2 != st.SkippedLB {
						t.Fatalf("paged=%v trial=%d %+v: tier counters %d+%d+%d do not partition SkippedLB %d",
							paged, trial, variant, st.SkippedLB0, st.SkippedLB1, st.SkippedLB2, st.SkippedLB)
					}
					if variant.FlatLB && (st.SkippedLB0 != 0 || st.SkippedLB1 != 0) {
						t.Fatalf("paged=%v trial=%d: flat mode reported cascade tiers: %+v", paged, trial, st)
					}
				}
				if mtNaiveSt.SkippedLB != 0 || mtNaiveSt.Abandoned != 0 ||
					mtNaiveSt.SkippedLB0 != 0 || mtNaiveSt.SkippedLB1 != 0 || mtNaiveSt.SkippedLB2 != 0 {
					t.Fatalf("naive path reported pipeline work: %+v", mtNaiveSt)
				}
				totalSkipped += mtSt.SkippedLB
				totalAbandoned += mtSt.Abandoned
			}
		}
		if totalSkipped == 0 || totalAbandoned == 0 {
			t.Fatalf("paged=%v: degenerate workload: skipped=%d abandoned=%d — pipeline never engaged",
				paged, totalSkipped, totalAbandoned)
		}
	}
}

// checkEffort holds the pipeline's effort accounting to its references.
// The naive path verifies every entry the traversal admits. The flat
// bound (FlatLB) splits exactly those into dismissed and fetched. The
// cascade also bounds index rectangles and does not read a subtree whose
// bound exceeds the cutoff, so it reads at most the nodes and meets at
// most the entries of the other two, every entry it never met being one
// the flat bound dismisses: what it fetches, compares and abandons is
// what FlatLB does, to the count.
func checkEffort(t *testing.T, path string, variant RangeOptions, got, naive QueryStats, run func(RangeOptions) QueryStats) {
	t.Helper()
	flat := variant
	flat.FlatLB = true
	flatSt := run(flat)
	if flatSt.Candidates+flatSt.SkippedLB != naive.Candidates || flatSt.DAAll != naive.DAAll || flatSt.DALeaf != naive.DALeaf {
		t.Fatalf("%s %+v: FlatLB candidates %d + skipped %d over %d nodes (%d leaves) != naive %d over %d (%d)", path, variant,
			flatSt.Candidates, flatSt.SkippedLB, flatSt.DAAll, flatSt.DALeaf, naive.Candidates, naive.DAAll, naive.DALeaf)
	}
	if got.Candidates != flatSt.Candidates || got.Comparisons != flatSt.Comparisons || got.Abandoned != flatSt.Abandoned {
		t.Fatalf("%s %+v: fetched %d, compared %d, abandoned %d; under FlatLB %d, %d, %d", path, variant,
			got.Candidates, got.Comparisons, got.Abandoned, flatSt.Candidates, flatSt.Comparisons, flatSt.Abandoned)
	}
	if got.SkippedLB > flatSt.SkippedLB || got.DAAll > flatSt.DAAll || got.DALeaf > flatSt.DALeaf {
		t.Fatalf("%s %+v: dismissed %d over %d nodes (%d leaves), more than FlatLB's %d over %d (%d)", path, variant,
			got.SkippedLB, got.DAAll, got.DALeaf, flatSt.SkippedLB, flatSt.DAAll, flatSt.DALeaf)
	}
}

// TestPipelineMatchesNaiveOrdered covers the Sec. 4.4 binary-search path
// (orderable scale sets): the pipeline's abandoning predicate must leave
// the bisection's qualifying prefix — and therefore the answer — intact.
func TestPipelineMatchesNaiveOrdered(t *testing.T) {
	opts := DefaultIndexOptions()
	opts.Paged = true
	ds, ix := buildFixture(t, 9, 200, 64, opts)
	ts := transform.ScaleSet(64, []float64{1, 2, 3, 5, 8, 13, 21, 34})
	for trial := 0; trial < 5; trial++ {
		q := ds.Records[trial*41%len(ds.Records)]
		eps := 10.0 + 15.0*float64(trial)
		naive := RangeOptions{UseOrdering: true, NaiveVerify: true}
		pipe := RangeOptions{UseOrdering: true}
		want, _, _ := SeqScanRange(nil, ds, q, ts, eps, naive)
		got, _, _ := SeqScanRange(nil, ds, q, ts, eps, pipe)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: ordered seqscan pipeline diverged", trial)
		}
		wantMT, _, err := WrapIndex(ix).MTIndexRange(nil, q, ts, eps, RangeOptions{Mode: QRectSafe, UseOrdering: true, NaiveVerify: true})
		if err != nil {
			t.Fatal(err)
		}
		gotMT, _, err := WrapIndex(ix).MTIndexRange(nil, q, ts, eps, RangeOptions{Mode: QRectSafe, UseOrdering: true})
		if err != nil {
			t.Fatal(err)
		}
		SortMatches(wantMT)
		SortMatches(gotMT)
		if !reflect.DeepEqual(gotMT, wantMT) {
			t.Fatalf("trial %d: ordered MT pipeline diverged", trial)
		}
	}
}

// TestOrderedBatchFetchFewerReads is the acceptance criterion of the
// page-ordered fetch: on a paged index without a buffer pool, MT-index
// range queries through the pipeline reach the backend strictly fewer
// times than naive record-at-a-time verification, while returning the
// identical result set.
func TestOrderedBatchFetchFewerReads(t *testing.T) {
	opts := DefaultIndexOptions()
	opts.Paged = true // BufferPages 0: every fetch reaches the backend
	ds, ix := buildFixture(t, 31, 400, 64, opts)
	ts := transform.MovingAverageSet(64, 5, 20)
	eps := series.DistanceForCorrelation(64, 0.9)
	var naiveReads, pipeReads int64
	for trial := 0; trial < 8; trial++ {
		q := ds.Records[trial*53%len(ds.Records)]

		ix.mgr.ResetStats()
		want, _, err := WrapIndex(ix).MTIndexRange(nil, q, ts, eps, RangeOptions{Mode: QRectSafe, NaiveVerify: true})
		if err != nil {
			t.Fatal(err)
		}
		naiveReads += ix.mgr.Stats().Reads

		ix.mgr.ResetStats()
		got, _, err := WrapIndex(ix).MTIndexRange(nil, q, ts, eps, RangeOptions{Mode: QRectSafe})
		if err != nil {
			t.Fatal(err)
		}
		st := ix.mgr.Stats()
		pipeReads += st.Reads

		SortMatches(want)
		SortMatches(got)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: result sets differ between fetch strategies", trial)
		}
	}
	if pipeReads >= naiveReads {
		t.Errorf("page-ordered pipeline reads = %d, naive = %d: no I/O win", pipeReads, naiveReads)
	}
}

// verifyBenchCandidates builds a candidate list over the whole record
// range, optionally shuffled (the benchmark isolates fetch order).
func verifyBenchCandidates(n int, shuffled bool) []int64 {
	cands := make([]int64, n)
	for i := range cands {
		cands[i] = int64(i)
	}
	if shuffled {
		rng := rand.New(rand.NewSource(77))
		rng.Shuffle(n, func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
	}
	return cands
}

func benchmarkVerifyFetch(b *testing.B, shuffled bool) {
	opts := DefaultIndexOptions()
	opts.Paged = true
	ds, ix := buildFixture(b, 13, 512, 64, opts)
	ts := transform.MovingAverageSet(64, 5, 12)
	g := identityIndexes(len(ts))
	q := ds.Records[0]
	eps := series.DistanceForCorrelation(64, 0.95)
	cands := verifyBenchCandidates(512, shuffled)
	sc := new(scratch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := ix.verifySerial(nil, sc, cands, groupOf(ix, ts, g, RangeOptions{}), q, eps, RangeOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVerifyFetchOrdered measures the batched verification pipeline
// over candidates already in heap-page order (the common case: BuildIndex
// appends records before tree construction, so candidate runs are
// consecutive pages).
func BenchmarkVerifyFetchOrdered(b *testing.B) { benchmarkVerifyFetch(b, false) }

// BenchmarkVerifyFetchUnordered is the same workload with the candidate
// list shuffled: FetchBatch must sort by page to recover the run structure.
func BenchmarkVerifyFetchUnordered(b *testing.B) { benchmarkVerifyFetch(b, true) }

// TestBatchVerifyAllocsPerCandidate pins the allocation contract of the
// batched verification path: every fetched record is decoded into the
// one slot of the scratch and verified through a view of it, so adding a
// candidate costs no allocation — not its decode, not a Record, no
// per-candidate bookkeeping. What a call allocates is its result.
func TestBatchVerifyAllocsPerCandidate(t *testing.T) {
	opts := DefaultIndexOptions()
	opts.Paged = true
	ds, ix := buildFixture(t, 13, 512, 64, opts)
	ts := transform.MovingAverageSet(64, 5, 12)
	g := identityIndexes(len(ts))
	q := ds.Records[0]
	eps := series.DistanceForCorrelation(64, 0.95)
	sc := new(scratch)
	measure := func(n int) float64 {
		cands := verifyBenchCandidates(n, true)
		return testing.AllocsPerRun(10, func() {
			if _, _, _, err := ix.verifySerial(nil, sc, cands, groupOf(ix, ts, g, RangeOptions{}), q, eps, RangeOptions{}); err != nil {
				t.Fatal(err)
			}
		})
	}
	// The scratch is the caller's, so nothing here depends on what the
	// free list would keep of it.
	small, large := measure(16), measure(256)
	if large > small {
		t.Errorf("verifying 256 candidates allocates %.0f times, 16 candidates %.0f: want no growth", large, small)
	}
	t.Logf("%.0f allocations per call (the result)", large)
}

// TestStreamedVerifyKeepsCandidateOrder: records are verified in page
// order as the batch streams by, but the matches must come out in the
// caller's candidate order, exactly as record-at-a-time verification
// emits them — compared here without sorting, on a shuffled candidate
// list with tombstoned and deleted records in it, for a batch and for
// the batch of one.
func TestStreamedVerifyKeepsCandidateOrder(t *testing.T) {
	opts := DefaultIndexOptions()
	opts.Paged = true
	opts.BufferPages = 4
	ds, ix := buildFixture(t, 13, 300, 64, opts)
	for _, id := range []int64{5, 77, 140} {
		if err := ix.remove(id); err != nil {
			t.Fatal(err)
		}
	}
	// Tombstoned on disk but still in the dataset: the fetch must find out.
	if err := ix.heap.Delete(200); err != nil {
		t.Fatal(err)
	}
	ts := transform.MovingAverageSet(64, 5, 12)
	g := identityIndexes(len(ts))
	eps := series.DistanceForCorrelation(64, 0.8)
	cands := verifyBenchCandidates(300, true)
	for _, q := range []*Record{ds.Records[0], ds.Records[150]} {
		for _, list := range [][]int64{cands, cands[:1], cands[40:41], nil} {
			want, wantSt, wantFP, err := ix.verifySerial(nil, new(scratch), list, groupOf(ix, ts, g, RangeOptions{NaiveVerify: true}), q, eps, RangeOptions{NaiveVerify: true})
			if err != nil {
				t.Fatal(err)
			}
			got, gotSt, gotFP, err := ix.verifySerial(nil, new(scratch), list, groupOf(ix, ts, g, RangeOptions{}), q, eps, RangeOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%d candidates: streamed verification returned %d matches in another order or with other values than the %d of the naive path", len(list), len(got), len(want))
			}
			if len(list) > 1 && len(got) < 20 {
				t.Fatalf("only %d matches; the test is vacuous", len(got))
			}
			if gotSt.Candidates != wantSt.Candidates || gotSt.Comparisons != wantSt.Comparisons || gotFP != wantFP {
				t.Fatalf("%d candidates: effort %+v (false positives %d), naive %+v (%d)", len(list), gotSt, gotFP, wantSt, wantFP)
			}
		}
	}
}
