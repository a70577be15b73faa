package core

// Shard parity: the engine must return exactly the single-tree answer on
// every query shape. At one shard that identity is bitwise (same
// matches, same stats, same I/O accounting — one shard is the stage
// itself); at N > 1 the answers must be identical after the
// deterministic merge, while the per-shard statistics are allowed to
// differ (N smaller trees do different amounts of work).

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"math"
	"reflect"
	"sort"
	"testing"

	"tsq/internal/datagen"
	"tsq/internal/series"
	"tsq/internal/storage"
	"tsq/internal/transform"
)

func TestShardOfDeterministicAndUniform(t *testing.T) {
	// Same (g, n) must always land on the same shard, inside range.
	counts := make([]int, 4)
	for g := int64(0); g < 4000; g++ {
		s := ShardOf(g, 4)
		if s < 0 || s >= 4 {
			t.Fatalf("ShardOf(%d, 4) = %d out of range", g, s)
		}
		if s2 := ShardOf(g, 4); s2 != s {
			t.Fatalf("ShardOf(%d, 4) unstable: %d then %d", g, s, s2)
		}
		counts[s]++
	}
	// The mix must spread sequential ids: no shard may be empty or hold
	// the vast majority (a modulo without mixing would stripe perfectly,
	// a broken mix can collapse).
	for s, c := range counts {
		if c < 500 || c > 1500 {
			t.Errorf("shard %d holds %d of 4000 sequential ids; partition is skewed", s, c)
		}
	}
	if ShardOf(123, 1) != 0 || ShardOf(123, 0) != 0 {
		t.Error("n <= 1 must map everything to shard 0")
	}
}

func TestShardLayoutRoundTrip(t *testing.T) {
	local, global := shardLayout(1000, 3)
	for g := int64(0); g < 1000; g++ {
		s := ShardOf(g, 3)
		if got := global[s][local[g]]; got != g {
			t.Fatalf("layout round trip broken at %d: got %d", g, got)
		}
	}
	// Local ids must ascend with global ids within each shard (the heap
	// files append positionally).
	for s := range global {
		for l := 1; l < len(global[s]); l++ {
			if global[s][l] <= global[s][l-1] {
				t.Fatalf("shard %d local order not ascending at %d", s, l)
			}
		}
	}
}

func sortJoin(ms []JoinMatch) {
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].IDA != ms[j].IDA {
			return ms[i].IDA < ms[j].IDA
		}
		if ms[i].IDB != ms[j].IDB {
			return ms[i].IDB < ms[j].IDB
		}
		return ms[i].TransformIdx < ms[j].TransformIdx
	})
}

// sortClosest puts closest-pairs answers in rank order.
func sortClosest(ms []JoinMatch) {
	sort.Slice(ms, func(i, j int) bool { return lessPair(ms[i], ms[j]) })
}

// matchHash folds a range answer, order included, into one number.
func matchHash(ms []Match) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, m := range ms {
		for _, v := range []uint64{uint64(m.RecordID), uint64(m.TransformIdx), math.Float64bits(m.Distance)} {
			binary.LittleEndian.PutUint64(b[:], v)
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// joinHash folds a join answer, order included, into one number, so a
// 5783-pair answer can be pinned as a literal.
func joinHash(ms []JoinMatch) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, m := range ms {
		for _, v := range []uint64{uint64(m.IDA), uint64(m.IDB), uint64(m.TransformIdx), math.Float64bits(m.Distance)} {
			binary.LittleEndian.PutUint64(b[:], v)
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// TestWrapIndexBitIdentity pins the N=1 contract: the engine at one
// shard does exactly the work of a single tree. Range, NN and raw range
// are held to what the per-shard stage methods (Index.MTIndexRange,
// Index.MTIndexNN, Index.RawRange) returned on this fixture before every
// query shape moved to the engine and they were deleted: the same
// answers, the same statistics, and no more than the one allocation each
// made, its answer. Join and closest pairs are held to what the
// single-tree functions deleted when the engine took them over
// (Index.MTIndexJoin, Index.STIndexJoin, Index.MTIndexClosestPairs)
// returned on this fixture; Abandoned alone dates from when both began
// to verify through the early-abandoning pair kernel.
func TestWrapIndexBitIdentity(t *testing.T) {
	ds, _ := buildFixture(t, 7, 300, 64, DefaultIndexOptions())
	sh, err := BuildSharded(ds, 1, DefaultIndexOptions())
	if err != nil {
		t.Fatal(err)
	}
	if sh.ShardCount() != 1 {
		t.Fatalf("ShardCount = %d, want 1", sh.ShardCount())
	}
	if sh.Dataset() != ds {
		t.Fatal("one-shard Sharded must share the dataset pointer")
	}
	ts := transform.MovingAverageSet(64, 5, 20)
	eps := series.DistanceForCorrelation(64, 0.90)
	q := ds.Records[13]
	ro := RangeOptions{Mode: QRectSafe}

	gm, gst, err := sh.MTIndexRange(nil, q, ts, eps, ro)
	if err != nil {
		t.Fatal(err)
	}
	if len(gm) != 696 || matchHash(gm) != 0x2886661d30d219d6 {
		t.Errorf("range answer: %d matches, hash %#x; pinned 696, 0x2886661d30d219d6", len(gm), matchHash(gm))
	}
	wst := QueryStats{DAAll: 6, DALeaf: 5, Candidates: 67, Comparisons: 1072, Terms: 24570, IndexSearches: 1,
		SkippedLB: 220, SkippedLB0: 5, SkippedLB1: 213, SkippedLB2: 2, Abandoned: 376}
	if noTime(gst) != wst {
		t.Errorf("range stats differ from the pinned ones:\n got %+v\nwant %+v", noTime(gst), wst)
	}

	gn, gnst, err := sh.MTIndexNN(nil, q, ts, 5, RangeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wn := []NNMatch{{84, 15, 0.8383553815267509}, {206, 15, 0.9360499033010455}, {137, 15, 0.9834416208055493},
		{212, 15, 1.0282231874234509}, {275, 15, 1.1280133240948444}}
	if !reflect.DeepEqual(gn, wn) {
		t.Errorf("NN answers differ from the pinned ones:\n got %+v\nwant %+v", gn, wn)
	}
	wnst := QueryStats{DAAll: 5, DALeaf: 4, Candidates: 7, Comparisons: 112, Terms: 2855, IndexSearches: 1,
		SkippedLB: 230, SkippedLB2: 230, Abandoned: 29}
	if noTime(gnst) != wnst {
		t.Errorf("NN stats differ from the pinned ones:\n got %+v\nwant %+v", noTime(gnst), wnst)
	}

	gr, grst, err := sh.RawRange(q, eps)
	if err != nil {
		t.Fatal(err)
	}
	if wr := []RawMatch{{13, 0}}; !reflect.DeepEqual(gr, wr) {
		t.Errorf("raw answers differ from the pinned ones:\n got %+v\nwant %+v", gr, wr)
	}
	if wrst := (QueryStats{DAAll: 5, DALeaf: 4, Candidates: 1, Comparisons: 1, IndexSearches: 1}); noTime(grst) != wrst {
		t.Errorf("raw stats differ from the pinned ones:\n got %+v\nwant %+v", noTime(grst), wrst)
	}

	// One shard forks nothing and builds nothing: no goroutine, no result
	// table, no closure on the heap. What a query allocates is its answer.
	for _, c := range []struct {
		shape string
		query func()
	}{
		{"range", func() { _, _, _ = sh.MTIndexRange(nil, q, ts, eps, ro) }},
		{"nn", func() { _, _, _ = sh.MTIndexNN(nil, q, ts, 5, RangeOptions{}) }},
		{"raw", func() { _, _, _ = sh.RawRange(q, eps) }},
	} {
		if allocs := testing.AllocsPerRun(10, c.query); allocs > 1 {
			t.Errorf("%s: the one-shard engine allocates %.0f/op, the bare stage allocated 1", c.shape, allocs)
		}
	}

	// Join and closest pairs, twice: under the set as built, whose
	// distances are half sums, and under its FullOrder copy, which sums
	// as every kernel did before. The full-order answers are the literals
	// the parent commit's single-tree functions returned, untouched; the
	// half-sum answers differ from them in the last bits of the distances
	// (hence in the hashes), and in nothing else: the same pairs under the
	// same transformations in the same order. The half-sum rows' effort is
	// those functions' too but for Terms: the same nodes, candidates,
	// comparisons and abandons. A FullOrder set is unclassified, so it is
	// filtered without the symmetry property (Index.symmetry): the
	// full-order rows read the same nodes and verify more candidate pairs.
	full := fullOrderSet(ts)
	var answers [2][3][]JoinMatch
	for ci, c := range []struct {
		name                  string
		ts                    []transform.Transform
		joinHash, stJoinHash  uint64
		join, stJoin, closest QueryStats
		distances             []float64
	}{
		{"half sum", ts, 0x4abcb5c8af6ea20d, 0x9ff638e750c3d279,
			QueryStats{DAAll: 26, DALeaf: 25, Candidates: 32730, Comparisons: 130920, Terms: 697555, IndexSearches: 1, Abandoned: 125137},
			QueryStats{DAAll: 104, DALeaf: 100, Candidates: 124308, Comparisons: 124308, Terms: 671107, IndexSearches: 4, Abandoned: 118525},
			QueryStats{DAAll: 6, DALeaf: 5, Candidates: 11184, Comparisons: 33552, Terms: 137550, IndexSearches: 1, Abandoned: 33442},
			[]float64{0.7649495416054469, 0.7821719427855761, 0.9444261386483561, 1.030905636984939, 1.0348586359985197}},
		{"full order", full, 0x276abd706ab053c1, 0xcf759499dbc74b51,
			QueryStats{DAAll: 26, DALeaf: 25, Candidates: 43532, Comparisons: 174128, Terms: 1778976, IndexSearches: 1, Abandoned: 168345},
			QueryStats{DAAll: 104, DALeaf: 100, Candidates: 173532, Comparisons: 173532, Terms: 1776592, IndexSearches: 4, Abandoned: 167749},
			QueryStats{DAAll: 6, DALeaf: 5, Candidates: 16988, Comparisons: 50964, Terms: 221648, IndexSearches: 1, Abandoned: 50854},
			[]float64{0.7649495416054465, 0.7821719427855761, 0.9444261386483597, 1.0309056369849383, 1.0348586359985184}},
	} {
		gj, gjst, err := sh.MTIndexJoin(c.ts[:4], eps, ro)
		if err != nil {
			t.Fatal(err)
		}
		if len(gj) != 5783 || joinHash(gj) != c.joinHash {
			t.Errorf("%s: join answer: %d pairs, hash %#x; pinned 5783, %#x", c.name, len(gj), joinHash(gj), c.joinHash)
		}
		if gjst != c.join {
			t.Errorf("%s: join stats differ from the pinned ones:\n got %+v\nwant %+v", c.name, gjst, c.join)
		}

		gsj, gsjst, err := sh.STIndexJoin(c.ts[:4], eps, ro)
		if err != nil {
			t.Fatal(err)
		}
		if len(gsj) != 5783 || joinHash(gsj) != c.stJoinHash {
			t.Errorf("%s: ST join answer: %d pairs, hash %#x; pinned 5783, %#x", c.name, len(gsj), joinHash(gsj), c.stJoinHash)
		}
		if gsjst != c.stJoin {
			t.Errorf("%s: ST join stats differ from the pinned ones:\n got %+v\nwant %+v", c.name, gsjst, c.stJoin)
		}

		gc, gcst, err := sh.MTIndexClosestPairs(c.ts[:3], 5)
		if err != nil {
			t.Fatal(err)
		}
		wantC := []JoinMatch{{221, 298, 2, c.distances[0]}, {259, 298, 2, c.distances[1]}, {18, 102, 2, c.distances[2]},
			{16, 32, 2, c.distances[3]}, {72, 174, 2, c.distances[4]}}
		if !reflect.DeepEqual(gc, wantC) {
			t.Errorf("%s: closest-pairs answers differ from the pinned ones:\n got %+v\nwant %+v", c.name, gc, wantC)
		}
		// Abandoned was 33456 until the R*-tree's split and reinsert
		// heuristics became scale-free (margins and centre distances in
		// units of the overflowing node's extent): the leaves hold other
		// records, closest pairs meets its candidate pairs in another
		// order, and two more evaluations find the k-th best already below
		// them. The answers, the node and pair counts, and the join rows
		// above, which have no running cutoff, did not move. Since leaves
		// store points, 73 instead of 39 to a 4 KiB page, every row reads
		// fewer nodes (join 122 -> 50, ST join 488 -> 200, closest pairs
		// 12 -> 8); closest pairs again meets its pairs in another order,
		// so its Terms and Abandoned moved with them (half sum 137058 ->
		// 137170 and 33458 -> 33454). Since the tree places entries by the
		// coefficient dimensions only, leaving mean and std carried, every
		// row reads fewer nodes again (join 50 -> 26, ST join 200 -> 104,
		// closest pairs 8 -> 6) and closest pairs meets its pairs in
		// another order (half sum Terms 137170 -> 137550, Abandoned
		// 33454 -> 33442). Candidates, comparisons, join hashes and
		// distances are the parent's.
		if gcst != c.closest {
			t.Errorf("%s: closest-pairs stats differ from the pinned ones:\n got %+v\nwant %+v", c.name, gcst, c.closest)
		}
		answers[ci] = [3][]JoinMatch{gj, gsj, gc}
	}
	for shape := range answers[0] {
		half, fullOrder := answers[0][shape], answers[1][shape]
		for i := range half {
			h, f := half[i], fullOrder[i]
			if h.IDA != f.IDA || h.IDB != f.IDB || h.TransformIdx != f.TransformIdx || math.Abs(h.Distance-f.Distance) > 1e-12*f.Distance {
				t.Fatalf("answer %d, row %d: half sum %+v, full order %+v", shape, i, h, f)
			}
		}
	}
}

// TestShardedAnswerParity is the scatter-gather exactness claim: for any
// shard count, and for one worker as for several (the shared fork-join
// runs under every shape), the merged answers equal the single-tree
// answers on every query shape, in the deterministic merge order.
func TestShardedAnswerParity(t *testing.T) {
	t.Parallel()
	ds, ix := buildFixture(t, 11, 260, 64, DefaultIndexOptions())
	ts := transform.MovingAverageSet(64, 5, 16)
	eps := series.DistanceForCorrelation(64, 0.90)

	for _, nshards := range []int{2, 3, 4} {
		// Rebuild the dataset for each shard count: BuildSharded
		// partitions Records by shallow copy, and the baseline must stay
		// untouched.
		sh, err := BuildSharded(ds, nshards, DefaultIndexOptions())
		if err != nil {
			t.Fatal(err)
		}
		if sh.ShardCount() != nshards {
			t.Fatalf("ShardCount = %d, want %d", sh.ShardCount(), nshards)
		}
		if err := sh.Verify(); err != nil {
			t.Fatalf("%d shards: verify: %v", nshards, err)
		}

		for trial := 0; trial < 16; trial++ {
			q := ds.Records[(trial/2*31)%len(ds.Records)]
			// The Workers axis: each query runs serially and on four
			// workers over three rectangles, so that both the probes and
			// the verification fork.
			ro := RangeOptions{Mode: QRectSafe, Workers: 1, Groups: EqualPartition(len(ts), 4)}
			if trial%2 == 1 {
				ro.Workers = 4
			}

			want, _, err := WrapIndex(ix).MTIndexRange(nil, q, ts, eps, ro)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := sh.MTIndexRange(nil, q, ts, eps, ro)
			if err != nil {
				t.Fatal(err)
			}
			SortMatches(want)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%d shards trial %d: range mismatch (%d vs %d matches)", nshards, trial, len(got), len(want))
			}

			wantST, _, err := WrapIndex(ix).STIndexRange(nil, q, ts, eps, ro)
			if err != nil {
				t.Fatal(err)
			}
			gotST, _, err := sh.STIndexRange(nil, q, ts, eps, ro)
			if err != nil {
				t.Fatal(err)
			}
			SortMatches(wantST)
			if !reflect.DeepEqual(gotST, wantST) {
				t.Fatalf("%d shards trial %d: ST range mismatch", nshards, trial)
			}

			wantNN, _, err := WrapIndex(ix).MTIndexNN(nil, q, ts, 7, RangeOptions{})
			if err != nil {
				t.Fatal(err)
			}
			gotNN, _, err := sh.MTIndexNN(nil, q, ts, 7, RangeOptions{})
			if err != nil {
				t.Fatal(err)
			}
			sortNN(wantNN)
			if !reflect.DeepEqual(gotNN, wantNN) {
				t.Fatalf("%d shards trial %d: NN mismatch\n got %+v\nwant %+v", nshards, trial, gotNN, wantNN)
			}

			wantRaw, _, err := WrapIndex(ix).RawRange(q, eps)
			if err != nil {
				t.Fatal(err)
			}
			gotRaw, _, err := sh.RawRange(q, eps)
			if err != nil {
				t.Fatal(err)
			}
			sort.Slice(wantRaw, func(i, j int) bool { return wantRaw[i].RecordID < wantRaw[j].RecordID })
			if !reflect.DeepEqual(gotRaw, wantRaw) {
				t.Fatalf("%d shards trial %d: raw range mismatch", nshards, trial)
			}
		}

		wantJ, _, err := WrapIndex(ix).MTIndexJoin(ts[:4], eps, RangeOptions{Mode: QRectSafe})
		if err != nil {
			t.Fatal(err)
		}
		gotJ, _, err := sh.MTIndexJoin(ts[:4], eps, RangeOptions{Mode: QRectSafe})
		if err != nil {
			t.Fatal(err)
		}
		sortJoin(wantJ)
		sortJoin(gotJ)
		if !reflect.DeepEqual(gotJ, wantJ) {
			t.Fatalf("%d shards: join mismatch (%d vs %d pairs)", nshards, len(gotJ), len(wantJ))
		}

		wantSJ, _, err := WrapIndex(ix).STIndexJoin(ts[:4], eps, RangeOptions{Mode: QRectSafe})
		if err != nil {
			t.Fatal(err)
		}
		gotSJ, _, err := sh.STIndexJoin(ts[:4], eps, RangeOptions{Mode: QRectSafe})
		if err != nil {
			t.Fatal(err)
		}
		sortJoin(wantSJ)
		sortJoin(gotSJ)
		if !reflect.DeepEqual(gotSJ, wantSJ) {
			t.Fatalf("%d shards: ST join mismatch", nshards)
		}

		wantC, _, err := WrapIndex(ix).MTIndexClosestPairs(ts[:3], 8)
		if err != nil {
			t.Fatal(err)
		}
		gotC, _, err := sh.MTIndexClosestPairs(ts[:3], 8)
		if err != nil {
			t.Fatal(err)
		}
		sortClosest(wantC)
		sortClosest(gotC)
		if !reflect.DeepEqual(gotC, wantC) {
			t.Fatalf("%d shards: closest pairs mismatch\n got %+v\nwant %+v", nshards, gotC, wantC)
		}
	}
}

// TestShardedNNSelfExclusion: the query record's owning shard sees it
// under its local id, so a stored query excludes itself exactly as the
// single tree does — on every shard count.
func TestShardedNNSelfExclusion(t *testing.T) {
	ds, _ := buildFixture(t, 3, 120, 32, DefaultIndexOptions())
	ts := transform.MovingAverageSet(32, 3, 6)
	for _, nshards := range []int{1, 2, 4} {
		sh, err := BuildSharded(ds, nshards, DefaultIndexOptions())
		if err != nil {
			t.Fatal(err)
		}
		for _, qid := range []int{0, 7, 63, 119} {
			nn, _, err := sh.MTIndexNN(nil, ds.Records[qid], ts, 3, RangeOptions{})
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range nn {
				if m.RecordID == int64(qid) {
					t.Fatalf("%d shards: query %d returned itself", nshards, qid)
				}
			}
			if len(nn) != 3 {
				t.Fatalf("%d shards: query %d returned %d of 3 neighbors", nshards, qid, len(nn))
			}
		}
	}
}

// TestShardedEmptyShards: more shards than records leaves some shards
// empty; every query shape must still answer exactly.
func TestShardedEmptyShards(t *testing.T) {
	ds, err := NewDataset(datagen.RandomWalks(5, 3, 32), nil)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := BuildSharded(ds, 8, DefaultIndexOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := sh.Verify(); err != nil {
		t.Fatal(err)
	}
	ts := transform.MovingAverageSet(32, 3, 6)
	q := ds.Records[0]
	want, _, _ := SeqScanRange(nil, ds, q, ts, 50, RangeOptions{})
	got, _, err := sh.MTIndexRange(nil, q, ts, 50, RangeOptions{Mode: QRectSafe})
	if err != nil {
		t.Fatal(err)
	}
	if !sameKeys(matchKeySet(got), matchKeySet(want)) {
		t.Fatalf("empty-shard range mismatch: %d vs %d", len(got), len(want))
	}
	wantJ, _, _ := SeqScanJoin(ds, ts, 50)
	gotJ, _, err := sh.MTIndexJoin(ts, 50, RangeOptions{Mode: QRectSafe})
	if err != nil {
		t.Fatal(err)
	}
	if len(gotJ) != len(wantJ) {
		t.Fatalf("empty-shard join mismatch: %d vs %d", len(gotJ), len(wantJ))
	}
	if _, _, err := sh.MTIndexClosestPairs(ts, 2); err != nil {
		t.Fatal(err)
	}
}

// TestShardedInsertDelete: inserts route to the shard the partition
// function names, deletes tombstone through it, and queries stay exact
// against a fresh single-tree baseline afterwards.
func TestShardedInsertDelete(t *testing.T) {
	ss := datagen.RandomWalks(17, 80, 32)
	ds, err := NewDataset(ss, nil)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := BuildSharded(ds, 3, DefaultIndexOptions())
	if err != nil {
		t.Fatal(err)
	}
	extra := datagen.RandomWalks(99, 5, 32)
	for i, s := range extra {
		id, err := sh.Insert("", s)
		if err != nil {
			t.Fatal(err)
		}
		if id != int64(80+i) {
			t.Fatalf("insert %d got id %d, want %d", i, id, 80+i)
		}
	}
	if err := sh.Delete(40); err != nil {
		t.Fatal(err)
	}
	if err := sh.Delete(40); err == nil {
		t.Fatal("double delete must fail")
	}
	if err := sh.Verify(); err != nil {
		t.Fatal(err)
	}

	// Baseline: single tree over the same final state.
	all := append(append([]series.Series{}, ss...), extra...)
	ds2, err := NewDataset(all, nil)
	if err != nil {
		t.Fatal(err)
	}
	ix2, err := BuildIndex(ds2, DefaultIndexOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := ix2.remove(40); err != nil {
		t.Fatal(err)
	}

	ts := transform.MovingAverageSet(32, 3, 6)
	eps := series.DistanceForCorrelation(32, 0.85)
	q, err := sh.Record(81)
	if err != nil || q == nil || q.ID != 81 {
		t.Fatalf("Record(81) = %v, %v", q, err)
	}
	want, _, err := WrapIndex(ix2).MTIndexRange(nil, ds2.Records[81], ts, eps, RangeOptions{Mode: QRectSafe})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := sh.MTIndexRange(nil, q, ts, eps, RangeOptions{Mode: QRectSafe})
	if err != nil {
		t.Fatal(err)
	}
	SortMatches(want)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("post-insert/delete range mismatch: %d vs %d", len(got), len(want))
	}
	// The engine, scanned by global id, is the single tree's relation.
	wantScan, wantSt, _ := SeqScanRange(nil, ds2, q, ts, eps, RangeOptions{})
	gotScan, gotSt, err := SeqScanRange(nil, sh, q, ts, eps, RangeOptions{Workers: 2})
	if err != nil || !reflect.DeepEqual(gotScan, wantScan) || gotSt != wantSt {
		t.Fatalf("sharded scan: %d matches %+v (%v), single tree %d %+v", len(gotScan), gotSt, err, len(wantScan), wantSt)
	}
	for _, m := range got {
		if m.RecordID == 40 {
			t.Fatal("deleted record still matches")
		}
	}
}

// TestShardedHealth: the combined report sums the shards and carries one
// sub-report per shard.
func TestShardedHealth(t *testing.T) {
	ds, _ := buildFixture(t, 23, 90, 32, DefaultIndexOptions())
	sh, err := BuildSharded(ds, 3, DefaultIndexOptions())
	if err != nil {
		t.Fatal(err)
	}
	ts := transform.MovingAverageSet(32, 3, 6)
	hr, err := sh.Health(context.Background(), ts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if hr.ShardCount != 3 || len(hr.Shards) != 3 {
		t.Fatalf("ShardCount=%d len(Shards)=%d, want 3/3", hr.ShardCount, len(hr.Shards))
	}
	total := 0
	for _, s := range hr.Shards {
		total += s.Series
		if s.Tree == nil {
			t.Error("per-shard report missing tree section")
		}
	}
	if total != 90 || hr.Series != 90 {
		t.Fatalf("shard series sum %d, combined %d, want 90", total, hr.Series)
	}
	if len(hr.Groups) == 0 {
		t.Error("combined report missing group section")
	}
	if hr.String() == "" {
		t.Error("text rendering empty")
	}

	// Single-shard report must stay exactly the classic report: no shard
	// fields.
	one, err := BuildSharded(ds, 1, DefaultIndexOptions())
	if err != nil {
		t.Fatal(err)
	}
	hr1, err := one.Health(context.Background(), ts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if hr1.ShardCount != 0 || hr1.Shards != nil {
		t.Fatalf("single-shard report grew shard fields: %+v", hr1)
	}
}

// TestShardedTreeStatsAndCapacity: estimator inputs stay well-formed
// under sharding.
func TestShardedTreeStats(t *testing.T) {
	ds, _ := buildFixture(t, 29, 150, 32, DefaultIndexOptions())
	sh, err := BuildSharded(ds, 4, DefaultIndexOptions())
	if err != nil {
		t.Fatal(err)
	}
	stats, world, err := sh.TreeStats()
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) == 0 || len(world.Lo) == 0 {
		t.Fatalf("degenerate tree stats: %d levels", len(stats))
	}
	nodes := 0
	for _, ls := range stats {
		nodes += ls.Nodes
	}
	if nodes == 0 {
		t.Fatal("no nodes counted")
	}
	cap0, err := sh.AvgLeafCapacity()
	if err != nil {
		t.Fatal(err)
	}
	if cap0 <= 0 {
		t.Fatalf("AvgLeafCapacity = %v", cap0)
	}
}

// TestAssembleShardsRejectsWrongCounts: a shard set whose record counts
// contradict the partition function must be rejected with the shard
// named — this is the open-path corruption check.
func TestAssembleShardsRejectsWrongCounts(t *testing.T) {
	ds, err := NewDataset(datagen.RandomWalks(31, 40, 32), nil)
	if err != nil {
		t.Fatal(err)
	}
	locals, err := PartitionDataset(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Swap the shard datasets: totals match but the per-shard counts
	// contradict ShardOf (the two shards of 40 sequential ids are
	// essentially never the same size; pick a seed where they differ).
	if len(locals[0].Records) == len(locals[1].Records) {
		t.Skip("partition happened to be exactly even; corruption undetectable by count")
	}
	var ixs [2]*Index
	for i, l := range []*Dataset{locals[1], locals[0]} {
		ixs[i], err = BuildIndex(l, DefaultIndexOptions())
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := AssembleShards(ixs[:]); err == nil {
		t.Fatal("swapped shards assembled without error")
	}
}

// TestBuildShardedRejectsSharedManager: one manager cannot back N
// independent shards.
func TestBuildShardedRejectsSharedManager(t *testing.T) {
	ds, _ := buildFixture(t, 37, 20, 32, DefaultIndexOptions())
	mgr := storage.NewManager(storage.Options{PageSize: 4096})
	defer func() { _ = mgr.Close() }()
	_, err := BuildSharded(ds, 2, IndexOptions{K: 2, PageSize: 4096, Paged: true, Manager: mgr})
	if err == nil {
		t.Fatal("shared-manager multi-shard build must fail")
	}
}
