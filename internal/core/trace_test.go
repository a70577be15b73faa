package core

import (
	"context"
	"testing"

	"tsq/internal/obs"
	"tsq/internal/series"
	"tsq/internal/transform"
)

// pagedFixture builds a paged, buffered index so traced queries exercise
// the real I/O path: tree-node loads and heap-record fetches both go
// through the storage manager.
func pagedFixture(t testing.TB, seed int64, count, n int) (*Dataset, *Index) {
	t.Helper()
	opts := DefaultIndexOptions()
	opts.Paged = true
	opts.BufferPages = 16
	ds, ix := buildFixture(t, seed, count, n, opts)
	return ds, ix
}

// TestTracedRangeCrossCheck is the accounting contract of the trace: the
// span attributes of a traced MT-index range query must exactly equal the
// QueryStats it returns and the storage manager's counter deltas — the
// EXPLAIN ANALYZE numbers are the real numbers, not estimates.
func TestTracedRangeCrossCheck(t *testing.T) {
	ds, ix := pagedFixture(t, 11, 200, 64)
	ts := transform.MovingAverageSet(64, 3, 14) // 12 transforms
	eps := series.DistanceForCorrelation(64, 0.9)
	q := ds.Records[7]
	opts := RangeOptions{Mode: QRectSafe, Groups: EqualPartition(len(ts), 4)}

	intact, intactSt, err := WrapIndex(ix).MTIndexRange(nil, q, ts, eps, opts)
	if err != nil {
		t.Fatal(err)
	}
	// A record tombstoned on its page while its leaf entry stays: the
	// filter stage still lets it through, verification reads its page and
	// finds nothing to verify.
	if err := ix.heap.Delete(intact[len(intact)-1].RecordID); err != nil {
		t.Fatal(err)
	}
	want, wantSt, err := WrapIndex(ix).MTIndexRange(nil, q, ts, eps, opts)
	if err != nil {
		t.Fatal(err)
	}
	tombstoned := int64(intactSt.Candidates - wantSt.Candidates)
	if tombstoned == 0 || wantSt.SkippedLB == 0 || wantSt.SkippedLB != intactSt.SkippedLB {
		t.Fatalf("degenerate fixture: stats %+v, %+v before the deletion", wantSt, intactSt)
	}

	for _, workers := range []int{1, 4} {
		opts.Workers = workers
		tr := obs.New()
		root := tr.Start(obs.KindQuery, "range")
		ctx := obs.ContextWithSpan(obs.WithTrace(context.Background(), tr), root)
		before := ix.Manager().Stats()
		got, st, err := WrapIndex(ix).MTIndexRange(ctx, q, ts, eps, opts)
		root.End()
		if err != nil {
			t.Fatal(err)
		}
		after := ix.Manager().Stats()

		if !sameKeys(matchKeySet(got), matchKeySet(want)) {
			t.Errorf("workers=%d: traced answer diverged from untraced", workers)
		}
		if noTime(st) != noTime(wantSt) {
			t.Errorf("workers=%d: stats = %+v, want %+v", workers, st, wantSt)
		}
		wantIO := (after.Reads - before.Reads) + (after.Hits - before.Hits) + (after.Prefetched - before.Prefetched)
		gotIO := tr.Sum(obs.KindProbe, obs.APagesRead) + tr.Sum(obs.KindProbe, obs.ABufferHits) + tr.Sum(obs.KindProbe, obs.APagesPrefetched)
		if gotIO != wantIO {
			t.Errorf("workers=%d: trace attributes %d page fetches, storage counted %d", workers, gotIO, wantIO)
		}
		if got, want := tr.Sum(obs.KindFilter, obs.ANodes), int64(st.DAAll); got != want {
			t.Errorf("workers=%d: trace nodes = %d, stats DAAll = %d", workers, got, want)
		}
		if got, want := tr.Sum(obs.KindFilter, obs.ALeaves), int64(st.DALeaf); got != want {
			t.Errorf("workers=%d: trace leaves = %d, stats DALeaf = %d", workers, got, want)
		}
		if got, want := tr.Sum(obs.KindVerify, obs.ACandidates), int64(st.Candidates); got != want {
			t.Errorf("workers=%d: trace candidates = %d, stats = %d", workers, got, want)
		}
		if got, want := tr.Sum(obs.KindVerify, obs.AComparisons), int64(st.Comparisons); got != want {
			t.Errorf("workers=%d: trace comparisons = %d, stats = %d", workers, got, want)
		}
		if gm := tr.Sum(obs.KindVerify, obs.AMatches); gm != int64(len(want)) {
			t.Errorf("workers=%d: trace matches = %d, want %d", workers, gm, len(want))
		}
		// The lower bound runs in the filter stage: its dismissals, tier by
		// tier, and its time are the filter span's, the verify span has
		// none of them, and the probe span keeps the roll-up.
		for _, c := range []struct {
			attr obs.Attr
			want int64
		}{
			{obs.ASkippedLB, int64(st.SkippedLB)}, {obs.ASkippedLB0, int64(st.SkippedLB0)}, {obs.ASkippedLB1, int64(st.SkippedLB1)},
			{obs.ASkippedLB2, int64(st.SkippedLB2)}, {obs.ALBNanos, st.LBTimeNs},
		} {
			if got := tr.Sum(obs.KindFilter, c.attr); got != c.want {
				t.Errorf("workers=%d: filter spans %s = %d, stats say %d", workers, c.attr, got, c.want)
			}
			for _, sp := range tr.Spans() {
				if sp.Kind() == obs.KindVerify && sp.Has(c.attr) {
					t.Errorf("workers=%d: verify span %q carries %s", workers, sp.Label(), c.attr)
				}
			}
		}
		if got, want := tr.Sum(obs.KindProbe, obs.ASkippedLB), int64(st.SkippedLB); got != want {
			t.Errorf("workers=%d: probe roll-up skipped_lb = %d, stats = %d", workers, got, want)
		}
		if got, want := tr.Sum(obs.KindProbe, obs.ACandidates), int64(st.Candidates); got != want {
			t.Errorf("workers=%d: probe roll-up candidates = %d, stats = %d", workers, got, want)
		}
		// The filter span's candidates are the admitted entries; what it
		// hands on is those less the dismissed, and verification verifies
		// all of them but the tombstoned.
		survivors := tr.Sum(obs.KindFilter, obs.ACandidates) - tr.Sum(obs.KindFilter, obs.ASkippedLB)
		if fetched := tr.Sum(obs.KindVerify, obs.ACandidates); survivors != fetched+tombstoned {
			t.Errorf("workers=%d: filter spans pass on %d survivors, verify spans verified %d with %d tombstoned", workers, survivors, fetched, tombstoned)
		}
		// One probe span per non-empty group, each with filter+verify child.
		if probes := tr.Sum(obs.KindProbe, obs.ATransforms); probes != int64(len(ts)) {
			t.Errorf("workers=%d: probe transforms sum = %d, want %d", workers, probes, len(ts))
		}
	}
}

// TestTracedNNCrossCheck does the same accounting check for the
// best-first nearest-neighbor traversal.
func TestTracedNNCrossCheck(t *testing.T) {
	ds, ix := pagedFixture(t, 5, 150, 32)
	ts := transform.MovingAverageSet(32, 2, 6)
	q := ds.Records[3]

	want, wantSt, err := WrapIndex(ix).MTIndexNN(nil, q, ts, 5, RangeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.New()
	root := tr.Start(obs.KindQuery, "nn")
	ctx := obs.ContextWithSpan(obs.WithTrace(context.Background(), tr), root)
	before := ix.Manager().Stats()
	got, st, err := WrapIndex(ix).MTIndexNN(ctx, q, ts, 5, RangeOptions{})
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	after := ix.Manager().Stats()

	if len(got) != len(want) || st != wantSt {
		t.Errorf("traced NN diverged: %d results (want %d), stats %+v (want %+v)", len(got), len(want), st, wantSt)
	}
	wantIO := (after.Reads - before.Reads) + (after.Hits - before.Hits) + (after.Prefetched - before.Prefetched)
	gotIO := tr.Sum(obs.KindProbe, obs.APagesRead) + tr.Sum(obs.KindProbe, obs.ABufferHits) + tr.Sum(obs.KindProbe, obs.APagesPrefetched)
	if gotIO != wantIO {
		t.Errorf("trace attributes %d page fetches, storage counted %d", gotIO, wantIO)
	}
	if tr.Sum(obs.KindProbe, obs.ANodes) != int64(st.DAAll) {
		t.Errorf("trace nodes = %d, stats DAAll = %d", tr.Sum(obs.KindProbe, obs.ANodes), st.DAAll)
	}
	// Where the pruning happened: the probe span carries the prefix-bound
	// dismissals, tier by tier, and the abandoned evaluations.
	if st.SkippedLB == 0 || st.Abandoned == 0 {
		t.Fatalf("degenerate fixture: %d skipped, %d abandoned", st.SkippedLB, st.Abandoned)
	}
	for _, c := range []struct {
		attr obs.Attr
		want int
	}{
		{obs.ASkippedLB, st.SkippedLB}, {obs.ASkippedLB0, st.SkippedLB0}, {obs.ASkippedLB1, st.SkippedLB1},
		{obs.ASkippedLB2, st.SkippedLB2}, {obs.AAbandoned, st.Abandoned}, {obs.ACandidates, st.Candidates},
	} {
		if got := tr.Sum(obs.KindProbe, c.attr); got != int64(c.want) {
			t.Errorf("probe span %s = %d, stats say %d", c.attr, got, c.want)
		}
	}
}

// TestUntracedRangeAddsNoAllocs is the overhead contract on the hot
// path: evaluating a range query under a context that carries no trace
// must allocate exactly as much as under a nil context.
func TestUntracedRangeAddsNoAllocs(t *testing.T) {
	ds, ix := buildFixture(t, 2, 200, 64, DefaultIndexOptions())
	ts := transform.MovingAverageSet(64, 3, 10)
	eps := series.DistanceForCorrelation(64, 0.95)
	q := ds.Records[0]
	opts := RangeOptions{Mode: QRectSafe, Groups: EqualPartition(len(ts), 4)}
	ctx := context.Background()
	sh := WrapIndex(ix)

	plain := testing.AllocsPerRun(20, func() {
		if _, _, err := sh.MTIndexRange(nil, q, ts, eps, opts); err != nil {
			t.Fatal(err)
		}
	})
	withCtx := testing.AllocsPerRun(20, func() {
		if _, _, err := sh.MTIndexRange(ctx, q, ts, eps, opts); err != nil {
			t.Fatal(err)
		}
	})
	if withCtx > plain {
		t.Errorf("an untraced context allocates %.0f/op, a nil one %.0f/op: instrumentation added %v allocs",
			withCtx, plain, withCtx-plain)
	}
}

// BenchmarkMTIndexRangeUntraced is the production fast path: the Ctx
// entry point with no trace in the context. Compare allocs/op against
// BenchmarkMTIndexRangeTraced to see the instrumentation cost.
func BenchmarkMTIndexRangeUntraced(b *testing.B) {
	ds, ix := buildFixture(b, 2, 400, 64, DefaultIndexOptions())
	sh := WrapIndex(ix)
	ts := transform.MovingAverageSet(64, 3, 10)
	eps := series.DistanceForCorrelation(64, 0.95)
	q := ds.Records[0]
	opts := RangeOptions{Mode: QRectSafe, Groups: EqualPartition(len(ts), 4)}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sh.MTIndexRange(ctx, q, ts, eps, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMTIndexRangeTraced pays for span bookkeeping and per-probe
// I/O attribution (a fresh trace per query, as -explain uses it).
func BenchmarkMTIndexRangeTraced(b *testing.B) {
	ds, ix := buildFixture(b, 2, 400, 64, DefaultIndexOptions())
	sh := WrapIndex(ix)
	ts := transform.MovingAverageSet(64, 3, 10)
	eps := series.DistanceForCorrelation(64, 0.95)
	q := ds.Records[0]
	opts := RangeOptions{Mode: QRectSafe, Groups: EqualPartition(len(ts), 4)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := obs.New()
		root := tr.Start(obs.KindQuery, "bench")
		ctx := obs.ContextWithSpan(obs.WithTrace(context.Background(), tr), root)
		if _, _, err := sh.MTIndexRange(ctx, q, ts, eps, opts); err != nil {
			b.Fatal(err)
		}
		root.End()
	}
}
