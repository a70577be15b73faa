package tsq

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"

	"tsq/internal/core"
	"tsq/internal/datagen"
	"tsq/internal/obs"
	"tsq/internal/obs/capture"
)

// singleCall answers r the way the single-query API does: RangeByID,
// Range or NearestNeighbors. No single call asks for the neighbours of a
// stored series, which leave the series itself out, so there the
// reference is the request alone in a batch, and its answer must be the
// ad-hoc call's for one more neighbour, less the series.
func singleCall(t *testing.T, db *DB, r BatchRequest) BatchResult {
	t.Helper()
	var res BatchResult
	switch {
	case r.K > 0 && r.ByID:
		res = db.Batch(context.Background(), []BatchRequest{r}, 1)[0]
		all, _, err := db.NearestNeighbors(db.Get(r.ID), r.Transforms, r.K+1, r.Opts)
		if err != nil {
			t.Fatal(err)
		}
		want := slices.DeleteFunc(all, func(m NNMatch) bool { return m.RecordID == r.ID })
		if !reflect.DeepEqual(res.NN, want[:min(r.K, len(want))]) || res.Err != nil {
			t.Errorf("neighbours of stored series %d: %v, %v; the ad-hoc call's less the series: %v", r.ID, res.NN, res.Err, want)
		}
	case r.K > 0:
		res.NN, res.Stats, res.Err = db.NearestNeighbors(r.Query, r.Transforms, r.K, r.Opts)
	case r.ByID:
		res.Matches, res.Stats, res.Err = db.RangeByID(r.ID, r.Transforms, r.Threshold, r.Opts)
	default:
		res.Matches, res.Stats, res.Err = db.Range(r.Query, r.Transforms, r.Threshold, r.Opts)
	}
	return res
}

// sameResult reports whether a batch result equals the single call's:
// matches and neighbours in the same order, Stats but for the lower
// bound's wall time, and the error's text.
func sameResult(got, want BatchResult) bool {
	got.Stats.LBTimeNs, want.Stats.LBTimeNs = 0, 0
	return reflect.DeepEqual(got.Matches, want.Matches) && reflect.DeepEqual(got.NN, want.NN) &&
		got.Stats == want.Stats && fmt.Sprint(got.Err) == fmt.Sprint(want.Err)
}

// TestBatchMatchesSingleQueries checks the public batch API end to end:
// in every row, at every worker count, each result equals the same query
// run alone (matches, neighbours, Stats and error), hostile inputs
// included, and a cancelled batch fails every request with ctx.Err().
func TestBatchMatchesSingleQueries(t *testing.T) {
	ss := datagen.RandomWalks(21, 300, 64)
	db, err := Open(ss, nil, Options{PageSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	const deleted = 42
	if err := db.Delete(deleted); err != nil {
		t.Fatal(err)
	}
	ts := MovingAverages(64, 5, 16)
	thr := Correlation(0.92)
	momentum := Momentum(64)
	byID := func(id int64, opts QueryOptions) BatchRequest {
		return BatchRequest{ID: id, ByID: true, Transforms: ts, Threshold: thr, Opts: opts}
	}
	adHoc := func(id int64, opts QueryOptions) BatchRequest {
		return BatchRequest{Query: db.Get(id), Transforms: ts, Threshold: thr, Opts: opts}
	}
	nn := func(r BatchRequest, k int) BatchRequest {
		r.K = k
		return r
	}
	var algorithms, shared []BatchRequest
	for i, alg := range []Algorithm{MTIndex, STIndex, SeqScan, Auto} {
		algorithms = append(algorithms, byID(int64(i*11), QueryOptions{Algorithm: alg}), adHoc(int64(i*13+1), QueryOptions{Algorithm: alg}))
	}
	algorithms = append(algorithms, byID(5, QueryOptions{TransformsPerMBR: 4, Workers: 2}), nn(byID(3, QueryOptions{}), 5), nn(adHoc(4, QueryOptions{}), 5))
	for i := 0; i < 16; i++ {
		// Half the batch shares one query series, the other half another.
		shared = append(shared, adHoc(int64(i%2*7), QueryOptions{}))
	}
	nanSeries := db.Get(9)
	nanSeries[3] = math.NaN()

	rows := []struct {
		name      string
		reqs      []BatchRequest
		is        error // every result's error, when set
		fails     bool  // every result fails
		cancelled bool
	}{
		{name: "every algorithm", reqs: algorithms},
		{name: "shared ad-hoc series", reqs: shared},
		{name: "NaN threshold", reqs: []BatchRequest{
			{ID: 1, ByID: true, Transforms: ts, Threshold: Distance(math.NaN())},
			{Query: db.Get(2), Transforms: ts, Threshold: Correlation(math.NaN())},
		}, is: ErrNonFinite, fails: true},
		{name: "NaN series", reqs: []BatchRequest{{Query: nanSeries, Transforms: ts, Threshold: thr}, nn(BatchRequest{Query: nanSeries, Transforms: ts}, 3)}, is: ErrNonFinite, fails: true},
		{name: "wrong length", reqs: []BatchRequest{{Query: db.Get(2)[:10], Transforms: ts, Threshold: thr}}, fails: true},
		{name: "negative threshold", reqs: []BatchRequest{
			{ID: 1, ByID: true, Transforms: ts, Threshold: Distance(-1)},
			{Query: db.Get(2), Transforms: ts, Threshold: Distance(-1), Opts: QueryOptions{Algorithm: SeqScan}},
		}},
		{name: "k = 0 is a range query", reqs: []BatchRequest{{ID: 6, ByID: true, Transforms: ts}, {Query: db.Get(6), Transforms: ts}}},
		{name: "k above Len", reqs: []BatchRequest{nn(byID(6, QueryOptions{}), 1000), nn(adHoc(7, QueryOptions{Algorithm: SeqScan}), 1000)}},
		{name: "unknown algorithm", reqs: []BatchRequest{byID(1, QueryOptions{Algorithm: 99}), nn(adHoc(2, QueryOptions{Algorithm: 99}), 3)}, fails: true},
		{name: "auto", reqs: []BatchRequest{byID(8, QueryOptions{Algorithm: Auto}), adHoc(9, QueryOptions{Algorithm: Auto, Workers: 3}), nn(byID(10, QueryOptions{Algorithm: Auto}), 4)}},
		{name: "missing and deleted id", reqs: []BatchRequest{byID(1<<30, QueryOptions{}), byID(-1, QueryOptions{}), byID(deleted, QueryOptions{})}, fails: true},
		{name: "query transform and one-sided", reqs: []BatchRequest{
			byID(11, QueryOptions{QueryTransform: &momentum}),
			adHoc(12, QueryOptions{QueryTransform: &momentum, Algorithm: SeqScan}),
			byID(13, QueryOptions{OneSided: true}),
			nn(adHoc(14, QueryOptions{OneSided: true}), 3),
			nn(byID(15, QueryOptions{QueryTransform: &momentum}), 3),
		}},
		{name: "empty", reqs: nil},
		{name: "cancelled context", reqs: algorithms, is: context.Canceled, fails: true, cancelled: true},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			ctx := context.Background()
			if row.cancelled {
				c, cancel := context.WithCancel(ctx)
				cancel()
				ctx = c
			}
			want := make([]BatchResult, len(row.reqs))
			for i, r := range row.reqs {
				if row.cancelled {
					want[i].Err = ctx.Err()
				} else {
					want[i] = singleCall(t, db, r)
				}
			}
			for _, workers := range []int{-1, 0, 1, 4, len(row.reqs) + 3} {
				got := db.Batch(ctx, row.reqs, workers)
				if len(got) != len(row.reqs) {
					t.Fatalf("workers=%d: %d results for %d requests", workers, len(got), len(row.reqs))
				}
				for i := range got {
					if !sameResult(got[i], want[i]) {
						t.Errorf("workers=%d req=%d: batch %d matches, %d NN, %+v, %v; alone %d matches, %d NN, %+v, %v",
							workers, i, len(got[i].Matches), len(got[i].NN), got[i].Stats, got[i].Err,
							len(want[i].Matches), len(want[i].NN), want[i].Stats, want[i].Err)
					}
					if (got[i].Err != nil) != row.fails || row.is != nil && !errors.Is(got[i].Err, row.is) {
						t.Errorf("workers=%d req=%d: error %v, want one: %v (%v)", workers, i, got[i].Err, row.fails, row.is)
					}
				}
			}
		})
	}
}

// TestBatchMemoizesQueryFeatures checks that equal ad-hoc series of one
// batch resolve to one featurized record, and that series sharing a hash
// bucket (a collision, planted) keep records of their own.
func TestBatchMemoizesQueryFeatures(t *testing.T) {
	db := openTestDB(t, 13, 50, 32)
	memo := seriesMemo{n: db.SeriesLength(), m: make(map[uint64][]*core.Record)}
	q1, q2 := db.Get(1), db.Get(2)
	r1a, err := memo.record(q1)
	if err != nil {
		t.Fatal(err)
	}
	r1b, err := memo.record(append(Series(nil), q1...)) // equal content, different backing array
	if err != nil {
		t.Fatal(err)
	}
	if r1a != r1b {
		t.Error("equal query series were featurized twice")
	}
	// q2 hashes to a bucket that already holds q1's record.
	memo.m[capture.HashFloats(q2)] = []*core.Record{r1a}
	r2, err := memo.record(q2)
	if err != nil {
		t.Fatal(err)
	}
	if r2 == r1a || !sameBits(r2.Raw, q2) {
		t.Error("colliding query series shared a record")
	}
	if r, err := memo.record(append(Series(nil), q2...)); err != nil || r != r2 {
		t.Errorf("second lookup in a colliding bucket = %p, %v; want %p", r, err, r2)
	}
	if _, err := memo.record(q1[:8]); err == nil {
		t.Error("length mismatch not rejected")
	}
}

// TestBatchConcurrentWithQueries runs Batch while single queries hammer
// the same database from other goroutines — the shared-index concurrency
// claim, checked under -race.
func TestBatchConcurrentWithQueries(t *testing.T) {
	ss := datagen.RandomWalks(23, 200, 64)
	db, err := Open(ss, nil, Options{PageSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	ts := MovingAverages(64, 5, 12)
	thr := Correlation(0.92)
	reqs := make([]BatchRequest, 32)
	for i := range reqs {
		reqs[i] = BatchRequest{ID: int64(i * 5 % db.Len()), ByID: true, Transforms: ts, Threshold: thr}
	}
	done := make(chan error, 4)
	for w := 0; w < 4; w++ {
		go func(w int) {
			for i := 0; i < 10; i++ {
				if _, _, err := db.RangeByID(int64((w*17+i)%db.Len()), ts, thr, QueryOptions{Workers: 2}); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(w)
	}
	for i := 0; i < 3; i++ {
		for _, res := range db.Batch(context.Background(), reqs, 4) {
			if res.Err != nil {
				t.Fatal(res.Err)
			}
		}
	}
	for w := 0; w < 4; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestBatchObservedLikeSingleQueries: with capture, the query log and the
// flight recorder enabled, a batch of R range and N nearest-neighbor
// requests counts R and N queries with their latencies, opens one root
// span (under a trace), one recorder entry and one log record per
// request, and journals
// R+N records that replay with no mismatch in memory at one and two
// shards and from a file; the support bundle still reconciles.
func TestBatchObservedLikeSingleQueries(t *testing.T) {
	ss := datagen.RandomWalks(25, 150, 32)
	db, err := Open(ss, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := MovingAverages(32, 2, 6)
	q := db.Get(3)
	q[0] += 0.25
	reqs := []BatchRequest{
		{ID: 5, ByID: true, Transforms: ts, Threshold: Correlation(0.9)},
		{ID: 6, ByID: true, Transforms: ts, Threshold: Correlation(0.9), Opts: QueryOptions{Algorithm: STIndex}},
		{Query: q, Transforms: ts, Threshold: Distance(3), Opts: QueryOptions{Algorithm: SeqScan}},
		{Query: q, Transforms: ts, Threshold: Distance(3), Opts: QueryOptions{Algorithm: Auto}},
		{ID: 7, ByID: true, Transforms: ts, K: 5},
		{Query: q, Transforms: ts, K: 3, Opts: QueryOptions{Algorithm: SeqScan}},
	}
	const ranges, nns = 4, 2

	tr := NewTrace()
	db.Batch(WithTrace(context.Background(), tr), reqs, 4)
	var roots int64
	for _, sp := range tr.Spans() {
		if sp.Kind() == obs.KindQuery {
			roots++
		}
	}
	if roots != ranges+nns {
		t.Errorf("trace holds %d query spans, want %d", roots, ranges+nns)
	}

	path := filepath.Join(t.TempDir(), "batch.tscap")
	if _, err := EnableCapture(path, CaptureOptions{}); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = DisableCapture() }()
	EnableFlightRecorder(RecorderOptions{Threshold: time.Nanosecond})
	defer DisableFlightRecorder()
	h := &slogCapture{}
	EnableQueryLog(h, QueryLogOptions{SlowThreshold: -1, MaxPerSec: -1})
	defer DisableQueryLog()

	rangeN, nnN := mRangeQueries.Value(), mNNQueries.Value()
	rangeH, nnH := mRangeLatency.Count(), mNNLatency.Count()
	for i, res := range db.Batch(context.Background(), reqs, 4) {
		if res.Err != nil {
			t.Fatalf("req %d: %v", i, res.Err)
		}
	}
	for _, c := range []struct {
		name      string
		got, want int64
	}{
		{"tsq_range_queries_total", mRangeQueries.Value() - rangeN, ranges},
		{"tsq_nn_queries_total", mNNQueries.Value() - nnN, nns},
		{"tsq_range_latency_ns count", mRangeLatency.Count() - rangeH, ranges},
		{"tsq_nn_latency_ns count", mNNLatency.Count() - nnH, nns},
		{"flight recorder total", int64(FlightRecorderSnapshot().Total), ranges + nns},
		{"query log records", int64(h.len()), ranges + nns},
		{"capture records", CaptureSnapshot().Written, ranges + nns},
	} {
		if c.got != c.want {
			t.Errorf("%s rose by %d, want %d", c.name, c.got, c.want)
		}
	}
	b, err := CollectBundle(context.Background(), db, BundleOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !b.OK() {
		t.Fatalf("bundle failed reconciliation: %+v", b.FailedChecks())
	}
	if err := DisableCapture(); err != nil {
		t.Fatal(err)
	}
	DisableQueryLog()

	sharded, err := Open(ss, nil, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	onFile, err := CreateFile(filepath.Join(t.TempDir(), "batch.tsq"), ss, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer onFile.Close()
	for name, target := range map[string]*DB{"memory": db, "two shards": sharded, "file": onFile} {
		rep, err := ReplayFile(context.Background(), target, path, ReplayOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Records != ranges+nns || rep.Replayed != rep.Records || !rep.OK() {
			rep.WriteText(os.Stderr)
			t.Errorf("%s: replay of %d records: %d replayed, %d errors, %d mismatches",
				name, rep.Records, rep.Replayed, rep.Errors, rep.Mismatches)
		}
	}
}
