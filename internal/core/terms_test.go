package core

import (
	"testing"

	"tsq/internal/series"
	"tsq/internal/transform"
)

// fullOrderSet returns ts with every classification dropped: the set as
// every kernel summed it before the half sum.
func fullOrderSet(ts []transform.Transform) []transform.Transform {
	full := make([]transform.Transform, len(ts))
	for i, t := range ts {
		full[i] = t.FullOrder()
	}
	return full
}

// TestTermsPerComparison makes the half sum's gain a count, on random
// walks of 128 points under the benchmark's 16 moving averages: the
// coefficient terms a comparison evaluates, against the same query under
// the FullOrder copy of the set. Candidates, comparisons and abandons
// are the same both ways (an abandon is "the whole sum exceeds the
// cutoff", whatever the order); terms per comparison are at most half
// for range, nearest neighbours and join. Closest pairs is held to "no
// more" only: its cutoff is the k-th best pair so far, nearly every
// evaluation stops in its first block of four terms in either order, and
// a block is the least an evaluation can cost. A completed sum, which
// is all NaiveVerify and the scans' reference accounting run, costs
// n/2+1 terms instead of n.
func TestTermsPerComparison(t *testing.T) {
	t.Parallel()
	const n = 128
	ds, ix := buildFixture(t, 5, 4000, n, DefaultIndexOptions())
	sh, err := BuildSharded(ds, 1, DefaultIndexOptions())
	if err != nil {
		t.Fatal(err)
	}
	small, _ := buildFixture(t, 6, 300, n, DefaultIndexOptions())
	shSmall, err := BuildSharded(small, 2, DefaultIndexOptions())
	if err != nil {
		t.Fatal(err)
	}
	ts := transform.MovingAverageSet(n, 10, 25)
	eps := series.DistanceForCorrelation(n, 0.96)

	run := func(shape string, atMost float64, query func(ts []transform.Transform) (QueryStats, error)) {
		t.Helper()
		half, err := query(ts)
		if err != nil {
			t.Fatal(err)
		}
		full, err := query(fullOrderSet(ts))
		if err != nil {
			t.Fatal(err)
		}
		if half.Candidates != full.Candidates || half.Comparisons != full.Comparisons || half.Abandoned != full.Abandoned {
			t.Errorf("%s: candidates/comparisons/abandoned %d/%d/%d under the half sum, %d/%d/%d in full order",
				shape, half.Candidates, half.Comparisons, half.Abandoned, full.Candidates, full.Comparisons, full.Abandoned)
		}
		if half.Comparisons == 0 || half.Abandoned == 0 || half.Abandoned == half.Comparisons {
			t.Fatalf("%s: degenerate workload: %d comparisons, %d abandoned", shape, half.Comparisons, half.Abandoned)
		}
		h, f := float64(half.Terms)/float64(half.Comparisons), float64(full.Terms)/float64(full.Comparisons)
		t.Logf("%s: %.1f terms/comparison, %.1f in full order (%d comparisons, %d abandoned)", shape, h, f, half.Comparisons, half.Abandoned)
		if h > atMost*f {
			t.Errorf("%s: %.1f terms/comparison under the half sum, %.1f in full order: want at most %.0f %%", shape, h, f, 100*atMost)
		}
	}
	queries := func(do func(q *Record, ts []transform.Transform) (QueryStats, error)) func([]transform.Transform) (QueryStats, error) {
		return func(ts []transform.Transform) (QueryStats, error) {
			var sum QueryStats
			for i := 0; i < 20; i++ {
				st, err := do(ds.Records[(i*197+11)%len(ds.Records)], ts)
				if err != nil {
					return sum, err
				}
				sum.Add(st)
			}
			return sum, nil
		}
	}
	run("range", 0.5, queries(func(q *Record, ts []transform.Transform) (QueryStats, error) {
		_, st, err := ix.MTIndexRange(nil, q, ts, eps, RangeOptions{Mode: QRectSafe})
		return st, err
	}))
	run("range scan", 0.5, queries(func(q *Record, ts []transform.Transform) (QueryStats, error) {
		_, st, _ := SeqScanRange(nil, ds, q, ts, eps, RangeOptions{})
		return st, nil
	}))
	run("nn", 0.5, queries(func(q *Record, ts []transform.Transform) (QueryStats, error) {
		_, st, err := sh.MTIndexNN(nil, q, ts, 10, RangeOptions{})
		return st, err
	}))
	run("join", 0.5, func(ts []transform.Transform) (QueryStats, error) {
		_, st, err := shSmall.MTIndexJoin(ts[:4], eps, RangeOptions{Mode: QRectSafe})
		return st, err
	})
	run("closest pairs", 1, func(ts []transform.Transform) (QueryStats, error) {
		_, st, err := shSmall.MTIndexClosestPairs(ts[:4], 10)
		return st, err
	})

	q := ds.Records[11]
	_, st, err := ix.MTIndexRange(nil, q, ts, eps, RangeOptions{Mode: QRectSafe, NaiveVerify: true})
	if err != nil {
		t.Fatal(err)
	}
	if st.Comparisons == 0 || st.Terms != st.Comparisons*(n/2+1) || st.Abandoned != 0 {
		t.Errorf("NaiveVerify: %d terms over %d comparisons (%d abandoned), want %d each", st.Terms, st.Comparisons, st.Abandoned, n/2+1)
	}
}
