package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"tsq/internal/datagen"
	"tsq/internal/series"
	"tsq/internal/transform"
)

// buildFixture builds a dataset of count synthetic walks of length n plus
// its index.
func buildFixture(t testing.TB, seed int64, count, n int, opts IndexOptions) (*Dataset, *Index) {
	t.Helper()
	ds, err := NewDataset(datagen.RandomWalks(seed, count, n), nil)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := BuildIndex(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	return ds, ix
}

// noTime returns st with the wall-time field zeroed, for tests that
// assert deterministic stats equality: every counter must match
// exactly, but LBTimeNs is a clock reading.
// distancePred is the predicate distance of r and q under t in either
// semantics, completed: what the tests hold answers and bounds against.
func distancePred(t transform.Transform, r, q *Record, oneSided bool) float64 {
	var st QueryStats
	d, _ := st.evaluate(t, r, q, math.Inf(1), oneSided)
	return d
}

func noTime(st QueryStats) QueryStats {
	st.LBTimeNs = 0
	return st
}

// matchKeySet reduces matches to a comparable set of (record, transform)
// keys.
func matchKeySet(ms []Match) map[[2]int64]bool {
	out := make(map[[2]int64]bool, len(ms))
	for _, m := range ms {
		out[[2]int64{m.RecordID, int64(m.TransformIdx)}] = true
	}
	return out
}

func sameKeys(a, b map[[2]int64]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

func TestMTEqualsSeqScanRange(t *testing.T) {
	// The central exactness claim (Lemma 1 + exact verification):
	// MT-index returns exactly the sequential-scan answer.
	ds, ix := buildFixture(t, 1, 400, 64, DefaultIndexOptions())
	ts := transform.MovingAverageSet(64, 5, 20)
	eps := series.DistanceForCorrelation(64, 0.90)
	for trial := 0; trial < 10; trial++ {
		q := ds.Records[trial*17%len(ds.Records)]
		want, _, _ := SeqScanRange(nil, ds, q, ts, eps, RangeOptions{})
		got, _, err := ix.MTIndexRange(nil, q, ts, eps, RangeOptions{Mode: QRectSafe})
		if err != nil {
			t.Fatal(err)
		}
		if !sameKeys(matchKeySet(got), matchKeySet(want)) {
			t.Fatalf("trial %d: MT != seqscan (%d vs %d matches)", trial, len(got), len(want))
		}
		if len(want) == 0 {
			t.Fatalf("trial %d: degenerate test, no matches at all", trial)
		}
	}
}

func TestSTEqualsSeqScanRange(t *testing.T) {
	ds, ix := buildFixture(t, 2, 300, 64, DefaultIndexOptions())
	ts := transform.MovingAverageSet(64, 8, 15)
	eps := series.DistanceForCorrelation(64, 0.90)
	q := ds.Records[42]
	want, _, _ := SeqScanRange(nil, ds, q, ts, eps, RangeOptions{})
	got, st, err := ix.STIndexRange(nil, q, ts, eps, RangeOptions{Mode: QRectSafe})
	if err != nil {
		t.Fatal(err)
	}
	if !sameKeys(matchKeySet(got), matchKeySet(want)) {
		t.Fatalf("ST != seqscan (%d vs %d matches)", len(got), len(want))
	}
	if st.IndexSearches != len(ts) {
		t.Errorf("ST ran %d index searches, want %d", st.IndexSearches, len(ts))
	}
}

func TestMTRangePropertyAcrossSeeds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 32
		ds, err := NewDataset(datagen.RandomWalks(seed, 120, n), nil)
		if err != nil {
			t.Fatal(err)
		}
		ix, err := BuildIndex(ds, IndexOptions{K: 2, PageSize: 512, UseSymmetry: true})
		if err != nil {
			t.Fatal(err)
		}
		// Mixed transformation set: moving averages, shifts, momentum.
		ts := []transform.Transform{
			transform.MovingAverage(n, 1+rng.Intn(n/2)),
			transform.MovingAverage(n, 1+rng.Intn(n/2)),
			transform.TimeShift(n, rng.Intn(8)),
			transform.Momentum(n),
			transform.Inverted(transform.MovingAverage(n, 1+rng.Intn(n/2))),
		}
		eps := 1 + rng.Float64()*6
		q := ds.Records[rng.Intn(len(ds.Records))]
		want, _, _ := SeqScanRange(nil, ds, q, ts, eps, RangeOptions{})
		got, _, err := ix.MTIndexRange(nil, q, ts, eps, RangeOptions{Mode: QRectSafe})
		if err != nil {
			t.Fatal(err)
		}
		return sameKeys(matchKeySet(got), matchKeySet(want))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestGroupedMTRangeSameAnswer(t *testing.T) {
	// Any partition of the transformation set yields the same answer.
	ds, ix := buildFixture(t, 3, 250, 64, DefaultIndexOptions())
	ts := transform.MovingAverageSet(64, 6, 29)
	eps := series.DistanceForCorrelation(64, 0.92)
	q := ds.Records[7]
	want, _, _ := SeqScanRange(nil, ds, q, ts, eps, RangeOptions{})
	for _, per := range []int{1, 2, 5, 7, 24} {
		got, st, err := ix.MTIndexRange(nil, q, ts, eps, RangeOptions{
			Mode:   QRectSafe,
			Groups: EqualPartition(len(ts), per),
		})
		if err != nil {
			t.Fatal(err)
		}
		if !sameKeys(matchKeySet(got), matchKeySet(want)) {
			t.Fatalf("per=%d: grouped MT != seqscan", per)
		}
		wantSearches := (len(ts) + per - 1) / per
		if st.IndexSearches != wantSearches {
			t.Errorf("per=%d: %d searches, want %d", per, st.IndexSearches, wantSearches)
		}
	}
}

func TestPaperModeIsSubsetAndUsuallyExact(t *testing.T) {
	// QRectPaper can in principle dismiss matches but never fabricates
	// them (verification is exact). On this workload it is exact.
	ds, ix := buildFixture(t, 4, 300, 64, DefaultIndexOptions())
	ts := transform.MovingAverageSet(64, 10, 25)
	eps := series.DistanceForCorrelation(64, 0.92)
	q := ds.Records[11]
	want := matchKeySet(first(SeqScanRange(nil, ds, q, ts, eps, RangeOptions{})))
	got, _, err := ix.MTIndexRange(nil, q, ts, eps, RangeOptions{Mode: QRectPaper})
	if err != nil {
		t.Fatal(err)
	}
	for k := range matchKeySet(got) {
		if !want[k] {
			t.Fatalf("paper mode fabricated match %v", k)
		}
	}
	if !sameKeys(matchKeySet(got), want) {
		t.Log("paper mode dismissed some matches on this workload (allowed but unexpected)")
	}
}

func first(ms []Match, _ QueryStats, _ error) []Match { return ms }

func TestMTFiltersBetterThanST(t *testing.T) {
	// The headline effect: one traversal with an MBR costs far fewer disk
	// accesses than |T| traversals.
	ds, ix := buildFixture(t, 5, 2000, 128, DefaultIndexOptions())
	ts := transform.MovingAverageSet(128, 10, 25) // 16 transforms as in Fig. 5
	eps := series.DistanceForCorrelation(128, 0.96)
	q := ds.Records[123]
	_, stMT, err := ix.MTIndexRange(nil, q, ts, eps, RangeOptions{Mode: QRectSafe})
	if err != nil {
		t.Fatal(err)
	}
	_, stST, err := ix.STIndexRange(nil, q, ts, eps, RangeOptions{Mode: QRectSafe})
	if err != nil {
		t.Fatal(err)
	}
	if stMT.DAAll >= stST.DAAll {
		t.Errorf("MT disk accesses %d not below ST %d", stMT.DAAll, stST.DAAll)
	}
	if stMT.IndexSearches != 1 || stST.IndexSearches != 16 {
		t.Errorf("searches: MT=%d ST=%d", stMT.IndexSearches, stST.IndexSearches)
	}
	// And both beat reading every leaf |T| times, which is what seqscan's
	// comparisons correspond to.
	seqComparisons := len(ds.Records) * len(ts)
	if stMT.Comparisons >= seqComparisons {
		t.Errorf("MT comparisons %d not below seqscan %d", stMT.Comparisons, seqComparisons)
	}
}

func TestOrderedScaleRangeBinarySearch(t *testing.T) {
	// Sec. 4.4 end to end: a scale-factor set qualifies via binary search
	// with the same answer set and far fewer comparisons.
	ds, ix := buildFixture(t, 6, 300, 64, DefaultIndexOptions())
	factors := make([]float64, 32)
	for i := range factors {
		factors[i] = 1 + float64(i)*0.5
	}
	ts := transform.ScaleSet(64, factors)
	q := ds.Records[3]
	// Pick eps so a mid prefix of scales qualifies for close records.
	eps := 20.0
	wantMatches, stLinear, _ := SeqScanRange(nil, ds, q, ts, eps, RangeOptions{})
	gotMatches, stOrdered, _ := SeqScanRange(nil, ds, q, ts, eps, RangeOptions{UseOrdering: true})
	if !sameKeys(matchKeySet(gotMatches), matchKeySet(wantMatches)) {
		t.Fatal("ordered seqscan changed the answer")
	}
	if stOrdered.Comparisons >= stLinear.Comparisons/2 {
		t.Errorf("ordered comparisons %d vs linear %d: no win", stOrdered.Comparisons, stLinear.Comparisons)
	}
	// Same through the MT index.
	gotMT, _, err := ix.MTIndexRange(nil, q, ts, eps, RangeOptions{Mode: QRectSafe, UseOrdering: true})
	if err != nil {
		t.Fatal(err)
	}
	if !sameKeys(matchKeySet(gotMT), matchKeySet(wantMatches)) {
		t.Fatal("ordered MT changed the answer")
	}
}

func TestJoinMTEqualsSeqScan(t *testing.T) {
	ds, ix := buildFixture(t, 7, 120, 64, DefaultIndexOptions())
	ts := transform.MovingAverageSet(64, 5, 12)
	eps := series.DistanceForCorrelation(64, 0.85)
	want, _, _ := SeqScanJoin(ds, ts, eps)
	got, st, err := WrapIndex(ix).MTIndexJoin(ts, eps, RangeOptions{Mode: QRectSafe})
	if err != nil {
		t.Fatal(err)
	}
	type key struct {
		a, b int64
		t    int
	}
	toSet := func(ms []JoinMatch) map[key]bool {
		s := make(map[key]bool)
		for _, m := range ms {
			if m.IDA >= m.IDB {
				t.Fatalf("unsorted pair %+v", m)
			}
			s[key{m.IDA, m.IDB, m.TransformIdx}] = true
		}
		return s
	}
	ws, gs := toSet(want), toSet(got)
	if len(ws) == 0 {
		t.Fatal("degenerate join test: no pairs")
	}
	if len(ws) != len(gs) {
		t.Fatalf("join sizes differ: MT %d vs seqscan %d", len(gs), len(ws))
	}
	for k := range ws {
		if !gs[k] {
			t.Fatalf("missing join match %+v", k)
		}
	}
	if st.DAAll == 0 {
		t.Error("join reported no disk accesses")
	}
}

func TestJoinSTEqualsMT(t *testing.T) {
	ds, ix := buildFixture(t, 8, 100, 64, DefaultIndexOptions())
	_ = ds
	ts := transform.MovingAverageSet(64, 5, 10)
	eps := series.DistanceForCorrelation(64, 0.85)
	mt, stMT, err := WrapIndex(ix).MTIndexJoin(ts, eps, RangeOptions{Mode: QRectSafe})
	if err != nil {
		t.Fatal(err)
	}
	st, stST, err := WrapIndex(ix).STIndexJoin(ts, eps, RangeOptions{Mode: QRectSafe})
	if err != nil {
		t.Fatal(err)
	}
	if len(mt) != len(st) {
		t.Fatalf("MT join %d matches, ST join %d", len(mt), len(st))
	}
	if stMT.DAAll >= stST.DAAll {
		t.Errorf("MT join accesses %d not below ST %d", stMT.DAAll, stST.DAAll)
	}
}

func TestNNMTEqualsSeqScan(t *testing.T) {
	ds, ix := buildFixture(t, 9, 400, 64, DefaultIndexOptions())
	ts := transform.MovingAverageSet(64, 5, 20)
	q := ds.Records[17]
	for _, k := range []int{1, 5, 10} {
		want, _, _ := SeqScanNN(nil, ds, q, ts, k, false)
		got, st, err := ix.MTIndexNN(nil, q, ts, k, RangeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != k {
			t.Fatalf("k=%d: got %d results", k, len(got))
		}
		for i := range got {
			if math.Abs(got[i].Distance-want[i].Distance) > 1e-9 {
				t.Fatalf("k=%d rank %d: distance %v vs %v", k, i, got[i].Distance, want[i].Distance)
			}
		}
		if st.Candidates >= len(ds.Records) {
			t.Errorf("k=%d: NN visited every record (%d); no pruning", k, st.Candidates)
		}
	}
}

func TestEqualPartition(t *testing.T) {
	got := EqualPartition(7, 3)
	want := [][]int{{0, 1, 2}, {3, 4, 5}, {6}}
	if len(got) != len(want) {
		t.Fatalf("groups = %v", got)
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("groups = %v", got)
		}
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("groups = %v", got)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic for perGroup=0")
		}
	}()
	EqualPartition(5, 0)
}

func TestClusterPartitionSeparatesInvertedSet(t *testing.T) {
	// The Sec. 5.2 two-cluster set: moving averages plus their inversions.
	// The cluster partitioner must not span the gap.
	_, ix := buildFixture(t, 10, 100, 64, DefaultIndexOptions())
	base := transform.MovingAverageSet(64, 6, 17)
	ts := transform.WithInverted(base)
	groups := ix.ClusterPartition(ts, 3)
	if len(groups) != 2 {
		t.Fatalf("found %d clusters, want 2 (groups %v)", len(groups), groups)
	}
	for _, g := range groups {
		inverted := g[0] >= len(base)
		for _, m := range g {
			if (m >= len(base)) != inverted {
				t.Fatalf("group %v mixes original and inverted transforms", g)
			}
		}
	}
}

func TestOptimalPartitionValidAndNoWorse(t *testing.T) {
	ds, ix := buildFixture(t, 11, 600, 64, DefaultIndexOptions())
	ts := transform.MovingAverageSet(64, 6, 21)
	eps := series.DistanceForCorrelation(64, 0.92)
	q := ds.Records[5]
	groups, cost, err := ix.OptimalPartition(q, ts, eps, QRectSafe, DefaultCostParams())
	if err != nil {
		t.Fatal(err)
	}
	// Valid partition: covers 0..n-1 exactly once, contiguous.
	seen := make(map[int]bool)
	for _, g := range groups {
		for i, idx := range g {
			if seen[idx] {
				t.Fatalf("index %d in two groups", idx)
			}
			seen[idx] = true
			if i > 0 && g[i] != g[i-1]+1 {
				t.Fatalf("group %v not contiguous", g)
			}
		}
	}
	if len(seen) != len(ts) {
		t.Fatalf("partition covers %d of %d transforms", len(seen), len(ts))
	}
	// Its estimated cost is no worse than the single-rectangle and the
	// all-singletons baselines (it considered both).
	caLeaf, _ := ix.AvgLeafCapacity()
	costOf := func(groups [][]int) float64 {
		total := 0.0
		for _, g := range groups {
			sub := make([]transform.Transform, len(g))
			for i, idx := range g {
				sub[i] = ts[idx]
			}
			stg := ix.newStage(new(scratch), q, sub, eps, RangeOptions{Mode: QRectPaper, NaiveVerify: true})
			var probe QueryStats
			if _, err := ix.filter(nil, new(scratch), &stg, &probe, nil); err != nil {
				t.Fatal(err)
			}
			total += DefaultCostParams().Cost(probe.DAAll, probe.DALeaf, len(sub), caLeaf)
		}
		return total
	}
	if single := costOf(EqualPartition(len(ts), len(ts))); cost > single+1e-9 {
		t.Errorf("optimal cost %v worse than single rectangle %v", cost, single)
	}
	if singletons := costOf(EqualPartition(len(ts), 1)); cost > singletons+1e-9 {
		t.Errorf("optimal cost %v worse than singletons %v", cost, singletons)
	}
	// The answer with the optimal partition is still exact.
	want, _, _ := SeqScanRange(nil, ds, q, ts, eps, RangeOptions{})
	got, _, err := ix.MTIndexRange(nil, q, ts, eps, RangeOptions{Mode: QRectSafe, Groups: groups})
	if err != nil {
		t.Fatal(err)
	}
	if !sameKeys(matchKeySet(got), matchKeySet(want)) {
		t.Error("optimal partition changed the answer")
	}
}

func TestCostParams(t *testing.T) {
	p := DefaultCostParams()
	if got := p.Cost(100, 10, 16, 20); math.Abs(got-(100+20*0.4*10*16)) > 1e-9 {
		t.Errorf("Cost = %v", got)
	}
	p.CALeaf = 5
	if got := p.Cost(100, 10, 16, 20); math.Abs(got-(100+5*0.4*10*16)) > 1e-9 {
		t.Errorf("Cost with explicit CALeaf = %v", got)
	}
	if got := p.CostOfStats(QueryStats{DAAll: 7, Comparisons: 10}); math.Abs(got-(7+4)) > 1e-9 {
		t.Errorf("CostOfStats = %v", got)
	}
}

func TestDatasetValidation(t *testing.T) {
	if _, err := NewDataset(nil, nil); err == nil {
		t.Error("empty dataset accepted")
	}
	if _, err := NewDataset([]series.Series{{1, 2}, {1, 2, 3}}, nil); err == nil {
		t.Error("ragged dataset accepted")
	}
	if _, err := NewDataset([]series.Series{{1, 2}}, []string{"a", "b"}); err == nil {
		t.Error("mismatched names accepted")
	}
	ds, err := NewDataset([]series.Series{{1, 2, 3, 4}}, []string{"abc"})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Record(0).Name != "abc" {
		t.Error("name not propagated")
	}
	if ds.Record(99) != nil || ds.Record(-1) != nil {
		t.Error("out-of-range Record lookup returned a record")
	}
	if _, err := NewQueryRecord(ds.N, series.Series{1, 2}); err == nil {
		t.Error("short query accepted")
	}
	q, err := NewQueryRecord(ds.N, series.Series{4, 3, 2, 1})
	if err != nil || q.ID != -1 {
		t.Errorf("QueryRecord: %v %v", q, err)
	}
}

func TestBuildIndexValidation(t *testing.T) {
	ds, _ := NewDataset(datagen.RandomWalks(1, 10, 8), nil)
	if _, err := BuildIndex(ds, IndexOptions{K: 4}); err == nil {
		t.Error("k too large for n=8 accepted")
	}
	ix, err := BuildIndex(ds, IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ix.Options().K != 2 {
		t.Errorf("default K = %d", ix.Options().K)
	}
	if ix.Tree().Len() != 10 {
		t.Errorf("tree holds %d records", ix.Tree().Len())
	}
}

func TestRecordRoundTrip(t *testing.T) {
	s := series.Series{3, 1, 4, 1, 5, 9, 2, 6}
	r := NewRecord(5, "pi", s)
	// Raw preserved, normal form has zero mean / unit std.
	if series.EuclideanDistance(r.Raw, s) != 0 {
		t.Error("Raw mutated")
	}
	if math.Abs(r.Norm.Mean()) > 1e-9 || math.Abs(r.Norm.Std()-1) > 1e-9 {
		t.Error("Norm not normalized")
	}
	// Spectrum round-trips through polar storage.
	X := r.Spectrum()
	if len(X) != 8 {
		t.Fatalf("spectrum length %d", len(X))
	}
	// First coefficient of a normal form is zero.
	if r.Mags[0] > 1e-9 {
		t.Errorf("|F_0| = %v, want 0", r.Mags[0])
	}
	// Feature layout.
	f := r.Feature(2)
	if len(f) != 6 || f[0] != r.Mean || f[1] != r.Std || f[2] != r.Mags[1] || f[5] != r.Phases[2] {
		t.Errorf("feature = %v", f)
	}
}

func TestEmptyTransformSet(t *testing.T) {
	ds, ix := buildFixture(t, 12, 20, 32, DefaultIndexOptions())
	q := ds.Records[0]
	got, st, err := ix.MTIndexRange(nil, q, nil, 1, RangeOptions{})
	if err != nil || len(got) != 0 || st.DAAll != 0 {
		t.Errorf("empty set: %v %v %v", got, st, err)
	}
	j, _, err := WrapIndex(ix).MTIndexJoin(nil, 1, RangeOptions{})
	if err != nil || len(j) != 0 {
		t.Errorf("empty join: %v %v", j, err)
	}
}

func TestBadGroupIndexRejected(t *testing.T) {
	ds, ix := buildFixture(t, 13, 20, 32, DefaultIndexOptions())
	ts := transform.MovingAverageSet(32, 2, 4)
	_, _, err := ix.MTIndexRange(nil, ds.Records[0], ts, 1, RangeOptions{Groups: [][]int{{0, 9}}})
	if err == nil {
		t.Error("out-of-range group index accepted")
	}
}

func TestJoinWrapStressEqualsSeqScan(t *testing.T) {
	// Inverted transformations add pi to every phase, pushing values
	// across the branch cut — a stress test for the join filter's modular
	// phase reasoning (a regression test for the wrap-window prune).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 32
		ds, err := NewDataset(datagen.RandomWalks(seed, 60, n), nil)
		if err != nil {
			t.Fatal(err)
		}
		ix, err := BuildIndex(ds, IndexOptions{K: 2, PageSize: 512, UseSymmetry: true})
		if err != nil {
			t.Fatal(err)
		}
		ts := transform.WithInverted(transform.MovingAverageSet(n, 2, 3+rng.Intn(4)))
		eps := 2 + rng.Float64()*5
		want, _, _ := SeqScanJoin(ds, ts, eps)
		got, _, err := WrapIndex(ix).MTIndexJoin(ts, eps, RangeOptions{Mode: QRectSafe})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Logf("seed %d: MT join %d vs seqscan %d", seed, len(got), len(want))
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

func TestRangeWrapStressEqualsSeqScan(t *testing.T) {
	// Same stress for the range path: inverted transformations plus
	// queries whose phases sit anywhere on the circle.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed ^ 0x5ca1ab1e))
		n := 32
		ds, err := NewDataset(datagen.RandomWalks(seed, 100, n), nil)
		if err != nil {
			t.Fatal(err)
		}
		ix, err := BuildIndex(ds, IndexOptions{K: 2, PageSize: 512, UseSymmetry: true})
		if err != nil {
			t.Fatal(err)
		}
		ts := transform.WithInverted(transform.MovingAverageSet(n, 1, 2+rng.Intn(6)))
		eps := 1 + rng.Float64()*6
		q := ds.Records[rng.Intn(len(ds.Records))]
		want, _, _ := SeqScanRange(nil, ds, q, ts, eps, RangeOptions{})
		got, _, err := ix.MTIndexRange(nil, q, ts, eps, RangeOptions{Mode: QRectSafe})
		if err != nil {
			t.Fatal(err)
		}
		return sameKeys(matchKeySet(got), matchKeySet(want))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestMTExactWithGeneralTransforms(t *testing.T) {
	// Reverse (phase multiplier -1), EMA and WMA through the full MT path.
	ds, ix := buildFixture(t, 60, 200, 64, DefaultIndexOptions())
	ts := []transform.Transform{
		transform.Reverse(64),
		transform.EMA(64, 0.25),
		transform.WeightedMovingAverage(64, []float64{4, 3, 2, 1}),
		transform.MovingAverage(64, 7),
	}
	for _, eps := range []float64{2, 5, 9} {
		for _, qid := range []int{3, 77, 150} {
			q := ds.Records[qid]
			want, _, _ := SeqScanRange(nil, ds, q, ts, eps, RangeOptions{})
			got, _, err := ix.MTIndexRange(nil, q, ts, eps, RangeOptions{Mode: QRectSafe})
			if err != nil {
				t.Fatal(err)
			}
			if !sameKeys(matchKeySet(got), matchKeySet(want)) {
				t.Fatalf("eps=%v q=%d: MT %d vs seqscan %d", eps, qid, len(got), len(want))
			}
		}
	}
}

func TestPlannerPicksReasonably(t *testing.T) {
	ds, ix := buildFixture(t, 70, 800, 128, IndexOptions{K: 2, PageSize: 1024, UseSymmetry: true})
	q := ds.Records[13]
	eps := 3.0
	params := DefaultCostParams()

	// One transformation: ST and MT coincide; either index plan must beat
	// the scan and be chosen.
	one := transform.MovingAverageSet(128, 10, 10)
	plan, err := ix.PlanRange(nil, q, one, eps, RangeOptions{Mode: QRectSafe}, params)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Kind == PlanSeqScan {
		t.Errorf("planner chose seqscan for |T|=1: %s", plan)
	}

	// Many transformations: MT should win, and the plan must be
	// executable with the same answer as the scan.
	many := transform.MovingAverageSet(128, 5, 34)
	plan, err = ix.PlanRange(nil, q, many, eps, RangeOptions{Mode: QRectSafe}, params)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Kind != PlanMTIndex {
		t.Errorf("planner chose %v for |T|=30", plan.Kind)
	}
	got, _, err := ix.MTIndexRange(nil, q, many, eps, RangeOptions{Mode: QRectSafe, Groups: plan.Groups})
	if err != nil {
		t.Fatal(err)
	}
	want, _, _ := SeqScanRange(nil, ds, q, many, eps, RangeOptions{})
	if !sameKeys(matchKeySet(got), matchKeySet(want)) {
		t.Error("planned MT query changed the answer")
	}
	if len(plan.Considered) < 3 {
		t.Errorf("planner considered only %d alternatives", len(plan.Considered))
	}

	// Empty set degenerates gracefully.
	empty, err := ix.PlanRange(nil, q, nil, eps, RangeOptions{Mode: QRectSafe}, params)
	if err != nil || empty.Kind != PlanSeqScan {
		t.Errorf("empty set: %v %v", empty, err)
	}
}

func TestPlannerClusterAwareOnTwoClusterSet(t *testing.T) {
	ds, ix := buildFixture(t, 71, 800, 128, IndexOptions{K: 2, PageSize: 1024, UseSymmetry: true})
	ts := transform.WithInverted(transform.MovingAverageSet(128, 6, 29))
	half := len(ts) / 2
	spansGap := func(groups [][]int) bool {
		for _, g := range groups {
			for _, idx := range g {
				if (idx >= half) != (g[0] >= half) {
					return true
				}
			}
		}
		return false
	}
	// Without the lower bound (NaiveVerify) every admitted entry is
	// fetched and compared with the whole rectangle, so a rectangle that
	// holds original and inverted transforms pays for the gap between the
	// clusters: the chosen packing must not have one.
	plan, err := ix.PlanRange(nil, ds.Records[5], ts, 3.0, RangeOptions{Mode: QRectSafe, NaiveVerify: true}, DefaultCostParams())
	if err != nil {
		t.Fatal(err)
	}
	if plan.Kind != PlanMTIndex || spansGap(plan.Groups) {
		t.Fatalf("without the bound the planner chose %v with packing %v", plan.Kind, plan.Groups)
	}
	// With it, what a wide rectangle admits across the gap the bound
	// dismisses per transformation before anything is fetched, and the
	// planner prices that: any packing may win, as long as the clustered
	// one was considered and nothing considered would have run cheaper.
	plan, err = ix.PlanRange(nil, ds.Records[5], ts, 3.0, RangeOptions{Mode: QRectSafe}, DefaultCostParams())
	if err != nil {
		t.Fatal(err)
	}
	if plan.Kind != PlanMTIndex {
		t.Fatalf("planner chose %v", plan.Kind)
	}
	clustered := false
	for _, alt := range plan.Considered {
		if alt.Kind == PlanMTIndex && len(alt.Groups) > 1 && !spansGap(alt.Groups) {
			clustered = true
		}
		if alt.Cost < plan.Cost {
			t.Errorf("%s costs %.0f, the chosen plan %.0f", alt.Description, alt.Cost, plan.Cost)
		}
	}
	if !clustered {
		t.Errorf("no cluster-aware packing among the alternatives: %s", plan)
	}
}

// TestPlannerPricesWhatTheExecutorRuns: for every packing the planner
// considers, the node reads and the record fetches it predicts are the
// ones an execution of that packing reports, with the lower bound (on
// index rectangles and on leaf entries), with the flat bound, without
// one, and one-sided. Before the planner built the executor's bound its
// candidates term was the admitted count, an order of magnitude above
// what is fetched, and every index plan was overcharged against the scan.
func TestPlannerPricesWhatTheExecutorRuns(t *testing.T) {
	ds, ix := buildFixture(t, 72, 1500, 128, IndexOptions{K: 2, PageSize: 1024, UseSymmetry: true})
	ts := transform.MovingAverageSet(128, 10, 25)
	eps := series.DistanceForCorrelation(128, 0.96)
	params := DefaultCostParams()
	for _, opts := range []RangeOptions{
		{Mode: QRectSafe},
		{Mode: QRectSafe, FlatLB: true},
		{Mode: QRectSafe, NaiveVerify: true},
		{Mode: QRectSafe, OneSided: true},
	} {
		var fetched, admitted int
		for _, qid := range []int{7, 400, 1111} {
			q := ds.Records[qid]
			plan, err := ix.PlanRange(nil, q, ts, eps, opts, params)
			if err != nil {
				t.Fatal(err)
			}
			packings := 0
			for _, alt := range plan.Considered {
				if alt.Kind != PlanMTIndex {
					continue
				}
				packings++
				run := opts
				run.Groups = alt.Groups
				_, st, err := ix.MTIndexRange(nil, q, ts, eps, run)
				if err != nil {
					t.Fatal(err)
				}
				if alt.DAAll != st.DAAll || alt.Candidates != st.Candidates {
					t.Errorf("%+v query %d, %s: planned %d node reads and %d candidates, executed %d and %d",
						opts, qid, alt.Description, alt.DAAll, alt.Candidates, st.DAAll, st.Candidates)
				}
				want := 0.0
				for _, g := range alt.Groups {
					_, gst, err := ix.MTIndexRange(nil, q, ts, eps, RangeOptions{Mode: opts.Mode, Groups: [][]int{g},
						FlatLB: opts.FlatLB, NaiveVerify: opts.NaiveVerify, OneSided: opts.OneSided})
					if err != nil {
						t.Fatal(err)
					}
					want += params.CDA*float64(gst.DAAll+gst.Candidates) + params.Ccmp*float64(gst.Candidates*len(g))
				}
				if math.Abs(alt.Cost-want) > 1e-6*want {
					t.Errorf("%+v query %d, %s: cost %.1f, Eq. 18 on the executed counts gives %.1f", opts, qid, alt.Description, alt.Cost, want)
				}
				fetched += st.Candidates
				admitted += st.Candidates + st.SkippedLB
			}
			if packings < 3 {
				t.Fatalf("%d packings considered: %s", packings, plan)
			}
		}
		if !opts.NaiveVerify && fetched*3 > admitted {
			t.Errorf("%+v: %d of %d admitted entries fetched; the bound prices nothing here", opts, fetched, admitted)
		}
	}
}

func TestRawRangeEqualsSeqScan(t *testing.T) {
	// Whole-matching on originals: the mean/std dimensions do the
	// filtering (the reason Sec. 5 stores them).
	f := func(seed int64) bool {
		ds, err := NewDataset(datagen.StockMarket(seed, 200, 64, datagen.DefaultMarketOptions()), nil)
		if err != nil {
			t.Fatal(err)
		}
		ix, err := BuildIndex(ds, IndexOptions{K: 2, PageSize: 1024, UseSymmetry: true})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		q := ds.Records[rng.Intn(len(ds.Records))]
		eps := 1 + rng.Float64()*40
		want, _, _ := SeqScanRawRange(ds, q, eps)
		got, st, err := ix.RawRange(q, eps)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Logf("seed %d eps %.1f: raw range %d vs scan %d", seed, eps, len(got), len(want))
			return false
		}
		gs := map[int64]bool{}
		for _, m := range got {
			gs[m.RecordID] = true
		}
		for _, m := range want {
			if !gs[m.RecordID] {
				return false
			}
		}
		// The filter must actually filter: with wildly varying price
		// levels, most records are dismissed before verification.
		return st.Candidates < len(ds.Records)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestRawRangeSelfMatch(t *testing.T) {
	ds, ix := buildFixture(t, 80, 100, 32, DefaultIndexOptions())
	q := ds.Records[42]
	got, _, err := ix.RawRange(q, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].RecordID != 42 || got[0].Distance > 1e-9 {
		t.Errorf("self raw match: %v", got)
	}
}

func TestQueryWithTinyCoefficientsStaysExact(t *testing.T) {
	// A query whose indexed coefficients are nearly zero (energy in high
	// frequencies only) drives the safe phase bound to the full range;
	// the search must degrade gracefully, not dismiss.
	n := 64
	ss := datagen.RandomWalks(81, 150, n)
	// Replace a few series with high-frequency signals: coefficient 1 and
	// 2 nearly vanish.
	for i := 0; i < 10; i++ {
		s := make(series.Series, n)
		for j := range s {
			s[j] = math.Cos(2*math.Pi*float64(j)*float64(n/2-i)/float64(n)) * 5
		}
		ss[i] = s
	}
	ds, err := NewDataset(ss, nil)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := BuildIndex(ds, DefaultIndexOptions())
	if err != nil {
		t.Fatal(err)
	}
	ts := transform.MovingAverageSet(n, 2, 12)
	for _, qid := range []int{0, 3, 9} { // the high-frequency queries
		q := ds.Records[qid]
		if q.Mags[1] > 0.5 {
			t.Fatalf("test setup: query %d has |F1| = %v, want tiny", qid, q.Mags[1])
		}
		for _, eps := range []float64{1, 4, 8} {
			want, _, _ := SeqScanRange(nil, ds, q, ts, eps, RangeOptions{})
			got, _, err := ix.MTIndexRange(nil, q, ts, eps, RangeOptions{Mode: QRectSafe})
			if err != nil {
				t.Fatal(err)
			}
			if !sameKeys(matchKeySet(got), matchKeySet(want)) {
				t.Fatalf("q=%d eps=%v: MT %d vs seqscan %d", qid, eps, len(got), len(want))
			}
		}
	}
}

func TestPhaseBoundProperties(t *testing.T) {
	// The safe angular bound must actually bound: for complex u, v with
	// |u - v| <= epsC and |v| >= magLo, the angular difference is at most
	// phaseBound(epsC, magLo).
	rng := rand.New(rand.NewSource(82))
	for trial := 0; trial < 2000; trial++ {
		magLo := rng.Float64() * 5
		epsC := rng.Float64() * 3
		g := phaseBound(epsC, magLo)
		if g > math.Pi {
			t.Fatalf("bound %v exceeds pi", g)
		}
		// Sample v with |v| >= magLo and u within epsC of v.
		vMag := magLo + rng.Float64()*2
		vArg := (rng.Float64()*2 - 1) * math.Pi
		v := complex(vMag*math.Cos(vArg), vMag*math.Sin(vArg))
		r := rng.Float64() * epsC
		a := (rng.Float64()*2 - 1) * math.Pi
		u := v + complex(r*math.Cos(a), r*math.Sin(a))
		du := math.Atan2(imag(u), real(u))
		delta := math.Abs(du - vArg)
		if delta > math.Pi {
			delta = 2*math.Pi - delta
		}
		if delta > g+1e-9 {
			t.Fatalf("angular difference %v exceeds bound %v (epsC=%v magLo=%v)", delta, g, epsC, magLo)
		}
	}
}

func TestParallelSeqScanEqualsSerial(t *testing.T) {
	ds, _ := buildFixture(t, 90, 500, 64, DefaultIndexOptions())
	ts := transform.MovingAverageSet(64, 5, 20)
	eps := series.DistanceForCorrelation(64, 0.9)
	q := ds.Records[7]
	for _, opts := range []RangeOptions{{}, {OneSided: true}} {
		want, wantSt, _ := SeqScanRange(nil, ds, q, ts, eps, opts)
		for _, workers := range []int{0, 1, 2, 7, 64, 1000} {
			opts.Workers = workers
			got, gotSt, _ := SeqScanRange(nil, ds, q, ts, eps, opts)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("workers=%d opts=%+v: parallel scan diverged", workers, opts)
			}
			if gotSt != wantSt {
				t.Fatalf("workers=%d: stats %+v vs %+v", workers, gotSt, wantSt)
			}
		}
	}
	// Ordered (scale) sets too.
	scales := transform.ScaleSet(64, []float64{1, 2, 4, 8, 16})
	want, _, _ := SeqScanRange(nil, ds, q, scales, 30, RangeOptions{UseOrdering: true})
	got, _, _ := SeqScanRange(nil, ds, q, scales, 30, RangeOptions{UseOrdering: true, Workers: 4})
	if !reflect.DeepEqual(got, want) {
		t.Fatal("parallel ordered scan diverged")
	}
}

func TestClosestPairsMTEqualsSeqScan(t *testing.T) {
	t.Parallel()
	ds, ix := buildFixture(t, 95, 250, 64, DefaultIndexOptions())
	ts := transform.MovingAverageSet(64, 5, 14)
	for _, k := range []int{1, 5, 12} {
		want, _, _ := SeqScanClosestPairs(ds, ts, k)
		got, st, err := WrapIndex(ix).MTIndexClosestPairs(ts, k)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != k {
			t.Fatalf("k=%d: got %d pairs", k, len(got))
		}
		for i := range got {
			if math.Abs(got[i].Distance-want[i].Distance) > 1e-9 {
				t.Fatalf("k=%d rank %d: %v vs %v", k, i, got[i].Distance, want[i].Distance)
			}
		}
		// The whole point: nowhere near the quadratic pair count.
		total := len(ds.Records) * (len(ds.Records) - 1) / 2
		if st.Candidates >= total/2 {
			t.Errorf("k=%d: resolved %d of %d pairs; no pruning", k, st.Candidates, total)
		}
	}
	// Degenerate inputs.
	if got, _, err := WrapIndex(ix).MTIndexClosestPairs(ts, 0); err != nil || len(got) != 0 {
		t.Errorf("k=0: %v %v", got, err)
	}
	if got, _, err := WrapIndex(ix).MTIndexClosestPairs(nil, 3); err != nil || len(got) != 0 {
		t.Errorf("empty set: %v %v", got, err)
	}
}

func TestClosestPairsStockWorkload(t *testing.T) {
	t.Parallel()
	ds, err := NewDataset(datagen.StockMarket(96, 300, 128, datagen.DefaultMarketOptions()), nil)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := BuildIndex(ds, IndexOptions{K: 2, PageSize: 1024, UseSymmetry: true})
	if err != nil {
		t.Fatal(err)
	}
	ts := transform.MovingAverageSet(128, 5, 20)
	want, _, _ := SeqScanClosestPairs(ds, ts, 5)
	got, _, err := WrapIndex(ix).MTIndexClosestPairs(ts, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if math.Abs(got[i].Distance-want[i].Distance) > 1e-9 {
			t.Fatalf("rank %d: %v vs %v", i, got[i], want[i])
		}
	}
}

func TestAnalyticalEstimatorIsPositionBlind(t *testing.T) {
	// The Sec. 4.3 argument, reproduced: an extent-only access model
	// assigns the same cost to equal-sized query rectangles regardless of
	// where they sit in the data distribution, while measured accesses
	// depend heavily on position (dense vs sparse feature regions) —
	// which is why the paper (and our planner) rely on measured probes.
	ds, ix := buildFixture(t, 97, 1000, 64, IndexOptions{K: 2, PageSize: 1024, UseSymmetry: true})
	// Pick a query in the densest region (median |F1|) and one at the
	// sparse extreme (max |F1|).
	ids := make([]int, len(ds.Records))
	for i := range ids {
		ids[i] = i
	}
	sortByMag := func(a, b int) bool { return ds.Records[a].Mags[1] < ds.Records[b].Mags[1] }
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && sortByMag(ids[j], ids[j-1]); j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	dense := ds.Records[ids[len(ids)/2]]
	sparse := ds.Records[ids[0]] // the |F1| distribution is left-skewed: the sparse tail is at the bottom
	sub := transform.MovingAverageSet(64, 10, 10)
	eps := 1.2

	stageOf := func(q *Record) stage {
		return ix.newStage(new(scratch), q, sub, eps, RangeOptions{Mode: QRectPaper, NaiveVerify: true})
	}
	estimate := func(q *Record) float64 {
		est, err := ix.AnalyticalAccessEstimate(stageOf(q).qrect)
		if err != nil {
			t.Fatal(err)
		}
		return est
	}
	measure := func(q *Record) int {
		stg := stageOf(q)
		var st QueryStats
		if _, err := ix.filter(nil, new(scratch), &stg, &st, nil); err != nil {
			t.Fatal(err)
		}
		return st.DAAll
	}
	eDense, eSparse := estimate(dense), estimate(sparse)
	mDense, mSparse := measure(dense), measure(sparse)
	// The model sees no difference (the paper-box extents are identical)...
	if relDiff := math.Abs(eDense-eSparse) / math.Max(eDense, eSparse); relDiff > 0.05 {
		t.Fatalf("analytical estimates unexpectedly position-sensitive: %v vs %v", eDense, eSparse)
	}
	// ...while the measured accesses differ substantially.
	if float64(mDense) < 1.5*float64(mSparse) {
		t.Fatalf("measured accesses too similar to demonstrate the point: dense=%d sparse=%d", mDense, mSparse)
	}
	t.Logf("analytical: dense=%.1f sparse=%.1f; measured: dense=%d sparse=%d", eDense, eSparse, mDense, mSparse)
}

func TestAnalyticalEstimatorSanity(t *testing.T) {
	ds, ix := buildFixture(t, 98, 600, 64, IndexOptions{K: 2, PageSize: 1024, UseSymmetry: true})
	q := ds.Records[0]
	ts := transform.MovingAverageSet(64, 10, 10)
	small := ix.newStage(new(scratch), q, ts, 0.5, RangeOptions{Mode: QRectSafe}).qrect
	large := ix.newStage(new(scratch), q, ts, 8, RangeOptions{Mode: QRectSafe}).qrect
	eSmall, err := ix.AnalyticalAccessEstimate(small)
	if err != nil {
		t.Fatal(err)
	}
	eLarge, err := ix.AnalyticalAccessEstimate(large)
	if err != nil {
		t.Fatal(err)
	}
	if eSmall >= eLarge {
		t.Errorf("estimate not monotone in query size: %v vs %v", eSmall, eLarge)
	}
	if eSmall < 1 {
		t.Errorf("estimate below 1 (the root read): %v", eSmall)
	}
	// Statistics cover all levels and count all records' leaves.
	stats, world, err := ix.TreeStats()
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != ix.tree.Height() {
		t.Errorf("stats for %d levels, height %d", len(stats), ix.tree.Height())
	}
	if world.Dim() != 6 {
		t.Errorf("world dim %d", world.Dim())
	}
}

func TestParallelMTVerificationEqualsSerial(t *testing.T) {
	ds, ix := buildFixture(t, 99, 600, 64, DefaultIndexOptions())
	ts := transform.MovingAverageSet(64, 5, 20)
	eps := series.DistanceForCorrelation(64, 0.9)
	q := ds.Records[11]
	want, wantSt, err := ix.MTIndexRange(nil, q, ts, eps, RangeOptions{Mode: QRectSafe})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8, 1000} {
		got, gotSt, err := ix.MTIndexRange(nil, q, ts, eps, RangeOptions{Mode: QRectSafe, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !sameKeys(matchKeySet(got), matchKeySet(want)) {
			t.Fatalf("workers=%d: parallel verification diverged", workers)
		}
		if gotSt.Comparisons != wantSt.Comparisons || gotSt.Candidates != wantSt.Candidates {
			t.Fatalf("workers=%d: stats %+v vs %+v", workers, gotSt, wantSt)
		}
	}
}
