package core

import (
	"context"
	"reflect"
	"testing"

	"tsq/internal/series"
	"tsq/internal/transform"
)

// TestExecutorMatchesSerial runs a batch of range and NN queries through
// the executor at several worker counts and checks every result equals
// the query run alone.
func TestExecutorMatchesSerial(t *testing.T) {
	ds, ix := buildFixture(t, 11, 200, 64, DefaultIndexOptions())
	ts := transform.MovingAverageSet(64, 5, 16)
	eps := series.DistanceForCorrelation(64, 0.92)

	var reqs []ExecRequest
	for i := 0; i < 24; i++ {
		r := ds.Records[(i*13)%len(ds.Records)]
		req := ExecRequest{Record: r, Transforms: ts, Eps: eps}
		switch i % 4 {
		case 1:
			req.SeqScan = true
		case 2:
			req.K = 3
		case 3:
			req.Opts.Groups = EqualPartition(len(ts), 4)
		}
		reqs = append(reqs, req)
	}

	serial := NewExecutor(ix, 1).Run(context.Background(), reqs)
	for _, workers := range []int{2, 4, 8} {
		got := NewExecutor(ix, workers).Run(context.Background(), reqs)
		if len(got) != len(reqs) {
			t.Fatalf("workers=%d: %d results for %d requests", workers, len(got), len(reqs))
		}
		for i := range got {
			if got[i].Err != nil || serial[i].Err != nil {
				t.Fatalf("workers=%d req=%d: err=%v serial-err=%v", workers, i, got[i].Err, serial[i].Err)
			}
			gm, sm := got[i].Matches, serial[i].Matches
			SortMatches(gm)
			SortMatches(sm)
			if !reflect.DeepEqual(gm, sm) {
				t.Fatalf("workers=%d req=%d: matches diverge from serial", workers, i)
			}
			if !reflect.DeepEqual(got[i].NN, serial[i].NN) {
				t.Fatalf("workers=%d req=%d: NN answers diverge", workers, i)
			}
			if noTime(got[i].Stats) != noTime(serial[i].Stats) {
				t.Fatalf("workers=%d req=%d: stats %+v, want %+v", workers, i, got[i].Stats, serial[i].Stats)
			}
		}
	}
}

// TestExecutorMemoizesQueryFeatures checks that distinct requests sharing
// a query series resolve to the same featurized record (one DFT for the
// whole batch) and that different series do not collide.
func TestExecutorMemoizesQueryFeatures(t *testing.T) {
	ds, ix := buildFixture(t, 13, 50, 32, DefaultIndexOptions())
	e := NewExecutor(ix, 4)
	q1 := ds.Records[1].Raw.Clone()
	q2 := ds.Records[2].Raw.Clone()
	r1a, err := e.queryRecord(q1)
	if err != nil {
		t.Fatal(err)
	}
	r1b, err := e.queryRecord(append(series.Series(nil), q1...)) // equal content, different backing array
	if err != nil {
		t.Fatal(err)
	}
	if r1a != r1b {
		t.Error("equal query series were featurized twice")
	}
	r2, err := e.queryRecord(q2)
	if err != nil {
		t.Fatal(err)
	}
	if r2 == r1a {
		t.Error("distinct query series shared a record")
	}
	if _, err := e.queryRecord(q1[:8]); err == nil {
		t.Error("length mismatch not rejected")
	}
}

// TestExecutorBatchBySeries exercises the raw-series path end to end:
// ad-hoc query series, concurrent workers, answers identical to the
// record-based queries.
func TestExecutorBatchBySeries(t *testing.T) {
	ds, ix := buildFixture(t, 17, 150, 64, DefaultIndexOptions())
	ts := transform.MovingAverageSet(64, 5, 12)
	eps := series.DistanceForCorrelation(64, 0.9)
	var reqs []ExecRequest
	for i := 0; i < 16; i++ {
		// Half the batch shares one query series to exercise the memo.
		id := (i % 2) * 7
		reqs = append(reqs, ExecRequest{Query: ds.Records[id].Raw.Clone(), Transforms: ts, Eps: eps})
	}
	results := NewExecutor(ix, 8).Run(context.Background(), reqs)
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("req %d: %v", i, res.Err)
		}
		id := int64((i % 2) * 7)
		want, _, err := ix.MTIndexRange(nil, ds.Records[id], ts, eps, RangeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		got := res.Matches
		SortMatches(got)
		SortMatches(want)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("req %d: batch answer diverges", i)
		}
	}
}

// TestExecutorCancellation checks that cancelling the context fails the
// not-yet-started remainder of a batch with ctx.Err() while leaving
// completed results intact.
func TestExecutorCancellation(t *testing.T) {
	ds, ix := buildFixture(t, 19, 100, 32, DefaultIndexOptions())
	ts := transform.MovingAverageSet(32, 3, 10)
	eps := series.DistanceForCorrelation(32, 0.9)
	reqs := make([]ExecRequest, 64)
	for i := range reqs {
		reqs[i] = ExecRequest{Record: ds.Records[i%len(ds.Records)], Transforms: ts, Eps: eps}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before Run: every query must fail fast
	results := NewExecutor(ix, 4).Run(ctx, reqs)
	for i, res := range results {
		if res.Err != context.Canceled {
			t.Fatalf("req %d: err = %v, want context.Canceled", i, res.Err)
		}
	}
}
