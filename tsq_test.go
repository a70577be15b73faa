package tsq

import (
	"math"
	"strings"
	"testing"

	"tsq/internal/datagen"
)

func openTestDB(t testing.TB, seed int64, count, n int) *DB {
	t.Helper()
	db, err := Open(datagen.RandomWalks(seed, count, n), nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestOpenAndAccessors(t *testing.T) {
	ss := datagen.RandomWalks(1, 10, 32)
	db, err := Open(ss, []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if db.Len() != 10 || db.SeriesLength() != 32 {
		t.Errorf("Len=%d SeriesLength=%d", db.Len(), db.SeriesLength())
	}
	if db.Name(3) != "d" || db.Name(99) != "" {
		t.Errorf("Name: %q %q", db.Name(3), db.Name(99))
	}
	got := db.Get(0)
	if EuclideanDistance(got, ss[0]) != 0 {
		t.Error("Get returned different data")
	}
	got[0] = 1e18
	if db.Get(0)[0] == 1e18 {
		t.Error("Get does not copy")
	}
	norm := db.NormalForm(0)
	if math.Abs(norm.Mean()) > 1e-9 {
		t.Error("NormalForm not normalized")
	}
	if db.Get(-5) != nil || db.NormalForm(42) != nil {
		t.Error("out-of-range access returned data")
	}
}

// TestLenCountsDeletedIDs: Len is the number of ids assigned, so a
// delete leaves it as it was (the id reads as absent and is not reused)
// and an insert takes the next id.
func TestLenCountsDeletedIDs(t *testing.T) {
	for _, shards := range []int{0, 2} {
		ss := datagen.RandomWalks(28, 10, 32)
		db, err := Open(ss, nil, Options{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Delete(4); err != nil {
			t.Fatal(err)
		}
		if db.Len() != 10 || db.Get(4) != nil {
			t.Errorf("shards=%d: after a delete Len = %d, Get(4) = %v; want 10 and nil", shards, db.Len(), db.Get(4))
		}
		id, err := db.Insert("new", ss[4])
		if err != nil {
			t.Fatal(err)
		}
		if id != 10 || db.Len() != 11 {
			t.Errorf("shards=%d: insert took id %d, Len = %d; want 10 and 11", shards, id, db.Len())
		}
	}
}

// TestCorrelationOutsideUnitInterval pins what a correlation threshold
// beyond [-1, 1] resolves to: above 1, distance 0, which only an exact
// duplicate of the query's normal form meets; below -1, Eq. 9's distance,
// above any distance between two normal forms, which every series meets
// untransformed.
func TestCorrelationOutsideUnitInterval(t *testing.T) {
	const n = 32
	ss := datagen.RandomWalks(29, 40, n)
	db, err := Open(ss, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	dup, err := db.Insert("dup", ss[5])
	if err != nil {
		t.Fatal(err)
	}
	ts := []Transform{Identity(n)}
	if eps := Correlation(2).Epsilon(n); eps != 0 {
		t.Errorf("Correlation(2) resolves to distance %v, want 0", eps)
	}
	if eps := Correlation(-2).Epsilon(n); eps != DistanceForCorrelation(n, -2) || eps <= 2*math.Sqrt(n-1) {
		t.Errorf("Correlation(-2) resolves to distance %v, want Eq. 9's %v, above %v", eps, DistanceForCorrelation(n, -2), 2*math.Sqrt(n-1))
	}
	for _, alg := range []Algorithm{MTIndex, SeqScan} {
		opts := QueryOptions{Algorithm: alg}
		ms, _, err := db.Range(ss[5], ts, Correlation(2), opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(ms) != 2 || ms[0].RecordID != 5 && ms[1].RecordID != 5 || ms[0].RecordID != dup && ms[1].RecordID != dup {
			t.Errorf("%v: Correlation(2) matches %v, want the query's series 5 and its duplicate %d", alg, ms, dup)
		}
		ms, _, err = db.Range(ss[5], ts, Correlation(-2), opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(ms) != db.Len() {
			t.Errorf("%v: Correlation(-2) matches %d of %d series, want all", alg, len(ms), db.Len())
		}
	}
}

func TestAllAlgorithmsAgree(t *testing.T) {
	db := openTestDB(t, 2, 300, 64)
	ts := MovingAverages(64, 5, 20)
	thr := Correlation(0.90)
	q := db.Get(17)

	type key struct {
		rec int64
		tr  int
	}
	toSet := func(ms []Match) map[key]bool {
		s := make(map[key]bool)
		for _, m := range ms {
			s[key{m.RecordID, m.TransformIdx}] = true
		}
		return s
	}
	want, _, err := db.Range(q, ts, thr, QueryOptions{Algorithm: SeqScan})
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("degenerate test: no matches")
	}
	for _, opts := range []QueryOptions{
		{Algorithm: MTIndex},
		{Algorithm: STIndex},
		{Algorithm: MTIndex, TransformsPerMBR: 4},
		{Algorithm: MTIndex, ClusterPartition: true},
		{Algorithm: MTIndex, ClusterPartition: true, TransformsPerMBR: 6},
	} {
		got, _, err := db.Range(q, ts, thr, opts)
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		ws, gs := toSet(want), toSet(got)
		if len(ws) != len(gs) {
			t.Fatalf("%+v: %d matches, want %d", opts, len(gs), len(ws))
		}
		for k := range ws {
			if !gs[k] {
				t.Fatalf("%+v: missing %v", opts, k)
			}
		}
	}
}

func TestRangeByID(t *testing.T) {
	db := openTestDB(t, 3, 100, 64)
	ts := MovingAverages(64, 5, 10)
	got, _, err := db.RangeByID(5, ts, Correlation(0.9), QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// The query series always matches itself.
	self := false
	for _, m := range got {
		if m.RecordID == 5 {
			self = true
		}
	}
	if !self {
		t.Error("query series did not match itself")
	}
	if _, _, err := db.RangeByID(1000, ts, Correlation(0.9), QueryOptions{}); err == nil {
		t.Error("unknown id accepted")
	}
}

func TestJoinFacade(t *testing.T) {
	db := openTestDB(t, 4, 80, 64)
	ts := MovingAverages(64, 5, 12)
	thr := Correlation(0.85)
	seq, _, err := db.Join(ts, thr, QueryOptions{Algorithm: SeqScan})
	if err != nil {
		t.Fatal(err)
	}
	mt, _, err := db.Join(ts, thr, QueryOptions{Algorithm: MTIndex})
	if err != nil {
		t.Fatal(err)
	}
	st, _, err := db.Join(ts, thr, QueryOptions{Algorithm: STIndex})
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) == 0 || len(seq) != len(mt) || len(seq) != len(st) {
		t.Errorf("join sizes: seq=%d mt=%d st=%d", len(seq), len(mt), len(st))
	}
}

func TestNearestNeighborsFacade(t *testing.T) {
	db := openTestDB(t, 5, 200, 64)
	ts := MovingAverages(64, 5, 15)
	q := db.Get(3)
	seq, _, err := db.NearestNeighbors(q, ts, 5, QueryOptions{Algorithm: SeqScan})
	if err != nil {
		t.Fatal(err)
	}
	mt, _, err := db.NearestNeighbors(q, ts, 5, QueryOptions{Algorithm: MTIndex})
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != 5 || len(mt) != 5 {
		t.Fatalf("lengths: %d %d", len(seq), len(mt))
	}
	for i := range seq {
		if math.Abs(seq[i].Distance-mt[i].Distance) > 1e-9 {
			t.Errorf("rank %d: %v vs %v", i, seq[i].Distance, mt[i].Distance)
		}
	}
}

func TestPipelineThroughFacade(t *testing.T) {
	db := openTestDB(t, 6, 100, 64)
	p, err := ParsePipeline("shift(0..2) | mv(3..5)", 64)
	if err != nil {
		t.Fatal(err)
	}
	ts := p.Flatten()
	if len(ts) != 9 {
		t.Fatalf("|T| = %d", len(ts))
	}
	got, _, err := db.Range(db.Get(0), ts, Correlation(0.9), QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Error("pipeline query returned nothing (self-match expected)")
	}
}

func TestThresholdHelpers(t *testing.T) {
	if d := DistanceForCorrelation(128, 0.96); d < 3.18 || d > 3.20 {
		t.Errorf("DistanceForCorrelation = %v", d)
	}
	a := Series{1, 2, 3, 4}
	if PearsonCorrelation(a, a) < 0.999 {
		t.Error("self correlation")
	}
	norm, mean, std := Normalize(a)
	if math.Abs(mean-2.5) > 1e-12 || std <= 0 || math.Abs(norm.Mean()) > 1e-12 {
		t.Error("Normalize")
	}
}

func TestOptimalPartitionFacade(t *testing.T) {
	db := openTestDB(t, 7, 300, 64)
	ts := MovingAverages(64, 6, 21)
	groups, cost, err := db.OptimalPartition(db.Get(0), ts, Correlation(0.92))
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) == 0 || cost <= 0 {
		t.Errorf("groups=%v cost=%v", groups, cost)
	}
	total := 0
	for _, g := range groups {
		total += len(g)
	}
	if total != len(ts) {
		t.Errorf("partition covers %d of %d", total, len(ts))
	}
}

func TestAlgorithmString(t *testing.T) {
	if MTIndex.String() != "MT-index" || STIndex.String() != "ST-index" || SeqScan.String() != "sequential-scan" {
		t.Error("algorithm names")
	}
	if Algorithm(9).String() == "" {
		t.Error("unknown algorithm name empty")
	}
	if _, _, err := openTestDB(t, 8, 10, 16).Range(make(Series, 16), nil, Distance(1), QueryOptions{Algorithm: Algorithm(9)}); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestDiskStatsExposed(t *testing.T) {
	db := openTestDB(t, 9, 500, 64)
	db.ResetDiskStats()
	_, st, err := db.Range(db.Get(1), MovingAverages(64, 5, 20), Correlation(0.9), QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	disk := db.DiskStats()
	if disk.Reads == 0 || st.DAAll == 0 {
		t.Errorf("disk reads %d, DAAll %d", disk.Reads, st.DAAll)
	}
	// Query-level node accesses are visible as storage reads.
	if int(disk.Reads) < st.DAAll {
		t.Errorf("storage reads %d < node accesses %d", disk.Reads, st.DAAll)
	}
}

func TestConcurrentQueries(t *testing.T) {
	db := openTestDB(t, 40, 200, 64)
	ts := MovingAverages(64, 5, 12)
	thr := Correlation(0.9)
	done := make(chan error, 8)
	for w := 0; w < 8; w++ {
		go func(w int) {
			for i := 0; i < 20; i++ {
				if _, _, err := db.RangeByID(int64((w*20+i)%db.Len()), ts, thr, QueryOptions{}); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(w)
	}
	for w := 0; w < 8; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestConcurrentQueriesWithWrites(t *testing.T) {
	db := openTestDB(t, 41, 100, 32)
	ts := MovingAverages(32, 2, 6)
	thr := Correlation(0.8)
	done := make(chan error, 5)
	for w := 0; w < 4; w++ {
		go func(w int) {
			for i := 0; i < 15; i++ {
				if _, _, err := db.RangeByID(int64(i%50), ts, thr, QueryOptions{}); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(w)
	}
	go func() {
		for i := 0; i < 10; i++ {
			id, err := db.Insert("w", db.Get(int64(i)))
			if err != nil {
				done <- err
				return
			}
			if err := db.Delete(id); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for w := 0; w < 5; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestSubsequenceFacade(t *testing.T) {
	ss := datagen.StockMarket(50, 30, 128, datagen.DefaultMarketOptions())
	x, err := NewSubsequenceIndex(ss, SubseqOptions{Window: 24})
	if err != nil {
		t.Fatal(err)
	}
	if x.Window() != 24 {
		t.Errorf("Window = %d", x.Window())
	}
	q := ss[5][40:64]
	got, st, err := x.Search(q, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	want := ScanSubsequences(ss, q, 0.8)
	if len(got) != len(want) || len(want) == 0 {
		t.Fatalf("subsequence search: %d matches, scan %d", len(got), len(want))
	}
	if st.NodeAccesses == 0 {
		t.Error("no node accesses")
	}
}

func TestAutoAlgorithmAndExplain(t *testing.T) {
	db := openTestDB(t, 60, 500, 128)
	ts := MovingAverages(128, 5, 24)
	thr := Correlation(0.96)
	q := db.Get(9)
	want, _, err := db.Range(q, ts, thr, QueryOptions{Algorithm: SeqScan})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := db.Range(q, ts, thr, QueryOptions{Algorithm: Auto})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("auto plan answered %d, seqscan %d", len(got), len(want))
	}
	explain, err := db.Explain(q, ts, thr)
	if err != nil {
		t.Fatal(err)
	}
	for _, needle := range []string{"chosen:", "seqscan", "st-index", "mt-index"} {
		if !strings.Contains(explain, needle) {
			t.Errorf("Explain output missing %q:\n%s", needle, explain)
		}
	}
	if Auto.String() != "auto" {
		t.Error("Auto name")
	}
}

func TestRawRangeFacade(t *testing.T) {
	db := openTestDB(t, 70, 150, 64)
	q := db.Get(8)
	idx, stIdx, err := db.RawRange(q, 50, true)
	if err != nil {
		t.Fatal(err)
	}
	scan, _, err := db.RawRange(q, 50, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(idx) != len(scan) || len(idx) == 0 {
		t.Fatalf("raw range: index %d vs scan %d", len(idx), len(scan))
	}
	if stIdx.DAAll == 0 {
		t.Error("index raw range reported no accesses")
	}
}

func TestInfo(t *testing.T) {
	db := openTestDB(t, 80, 200, 64)
	info, err := db.Info()
	if err != nil {
		t.Fatal(err)
	}
	if info.Series != 200 || info.SeriesLength != 64 || info.IndexedK != 2 {
		t.Errorf("info = %+v", info)
	}
	if info.TreeHeight < 1 || info.Pages == 0 || info.PageSize != 4096 || info.LeafCapacity <= 0 {
		t.Errorf("info geometry = %+v", info)
	}
	if info.Paged {
		t.Error("in-memory DB reported as paged")
	}
}

func TestClosestPairsFacade(t *testing.T) {
	db := openTestDB(t, 90, 150, 64)
	ts := MovingAverages(64, 5, 12)
	want, _, err := db.ClosestPairs(ts, 4, SeqScan)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := db.ClosestPairs(ts, 4, MTIndex)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 4 || len(got) != 4 {
		t.Fatalf("lengths %d/%d", len(want), len(got))
	}
	for i := range got {
		if math.Abs(got[i].Distance-want[i].Distance) > 1e-9 {
			t.Fatalf("rank %d: %v vs %v", i, got[i].Distance, want[i].Distance)
		}
	}
}
