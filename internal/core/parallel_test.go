package core

import (
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"tsq/internal/series"
	"tsq/internal/transform"
)

// TestVerifyParallelEmptyCandidates is the regression test for the
// division-by-zero panic: verifyParallel used to compute the chunk size
// after clamping workers to len(candidates), so an empty candidate slice
// (or a non-positive worker count) divided by zero. Both now fall back to
// the serial path.
func TestVerifyParallelEmptyCandidates(t *testing.T) {
	ds, ix := buildFixture(t, 7, 50, 32, DefaultIndexOptions())
	ts := transform.MovingAverageSet(32, 3, 6)
	g := identityIndexes(len(ts))
	q := ds.Records[0]
	for _, tc := range []struct {
		name       string
		candidates []int64
		workers    int
	}{
		{"empty-candidates", nil, 4},
		{"zero-workers", []int64{0, 1, 2}, 0},
		{"negative-workers", []int64{0, 1}, -3},
		{"one-candidate", []int64{0}, 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			matches, st, fp, err := ix.verifyParallel(nil, new(scratch), tc.candidates, groupOf(ix, ts, g, RangeOptions{Workers: tc.workers}), q, 1.0, RangeOptions{Workers: tc.workers})
			if err != nil {
				t.Fatal(err)
			}
			want, wantSt, wantFP, err := ix.verifySerial(nil, new(scratch), tc.candidates, groupOf(ix, ts, g, RangeOptions{}), q, 1.0, RangeOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if fp != wantFP {
				t.Errorf("false positives = %d, want %d", fp, wantFP)
			}
			if !sameKeys(matchKeySet(matches), matchKeySet(want)) {
				t.Errorf("parallel answer diverged from serial")
			}
			if noTime(st) != noTime(wantSt) {
				t.Errorf("stats = %+v, want %+v", st, wantSt)
			}
		})
	}
}

// TestMTRangeParallelGroupsEqualsSerial checks that probing the
// transformation rectangles concurrently returns byte-identical matches
// and statistics to the serial group loop, across worker counts and
// partitions.
func TestMTRangeParallelGroupsEqualsSerial(t *testing.T) {
	ds, ix := buildFixture(t, 3, 300, 64, DefaultIndexOptions())
	ts := transform.MovingAverageSet(64, 5, 28) // 24 transforms
	eps := series.DistanceForCorrelation(64, 0.92)
	for _, per := range []int{1, 4, 8} {
		groups := EqualPartition(len(ts), per)
		for trial := 0; trial < 5; trial++ {
			q := ds.Records[trial*31%len(ds.Records)]
			want, wantSt, err := ix.MTIndexRange(nil, q, ts, eps, RangeOptions{Groups: groups})
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 4, 16} {
				got, gotSt, err := ix.MTIndexRange(nil, q, ts, eps, RangeOptions{Groups: groups, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				SortMatches(got)
				SortMatches(want)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("per=%d workers=%d: parallel matches diverge from serial", per, workers)
				}
				if noTime(gotSt) != noTime(wantSt) {
					t.Fatalf("per=%d workers=%d: stats = %+v, want %+v", per, workers, gotSt, wantSt)
				}
			}
		}
	}
}

// TestMTRangeParallelBadGroupIndex checks that an out-of-range group
// index still surfaces as an error (not a panic) from the parallel path.
func TestMTRangeParallelBadGroupIndex(t *testing.T) {
	ds, ix := buildFixture(t, 5, 40, 32, DefaultIndexOptions())
	ts := transform.MovingAverageSet(32, 3, 8)
	groups := [][]int{{0, 1}, {len(ts) + 3}}
	_, _, err := ix.MTIndexRange(nil, ds.Records[0], ts, 1.0, RangeOptions{Groups: groups, Workers: 4})
	if err == nil {
		t.Fatal("out-of-range group index did not error")
	}
}

// TestParallelFor pins the fork-join every parallel path shares: every
// index runs exactly once, never on more than `workers` goroutines at a
// time, inline and in order when there is nothing to fork, and a failure
// reports the lowest failing index.
func TestParallelFor(t *testing.T) {
	for _, tc := range []struct{ n, workers int }{
		{0, 4}, {1, 4}, {3, 8}, {8, 3}, {100, 4}, {5, 1}, {5, 0}, {5, -2},
	} {
		t.Run(fmt.Sprintf("n=%d/workers=%d", tc.n, tc.workers), func(t *testing.T) {
			visits := make([]atomic.Int32, tc.n)
			var live, peak atomic.Int32
			var order []int // appended unguarded: only read when the run must be inline
			inline := tc.workers <= 1 || tc.n <= 1
			err := ParallelFor(tc.n, tc.workers, func(i int) error {
				now := live.Add(1)
				for {
					p := peak.Load()
					if now <= p || peak.CompareAndSwap(p, now) {
						break
					}
				}
				if inline {
					order = append(order, i)
				}
				visits[i].Add(1)
				live.Add(-1)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for i := range visits {
				if v := visits[i].Load(); v != 1 {
					t.Errorf("index %d visited %d times", i, v)
				}
			}
			if limit := int32(max(1, min(tc.workers, tc.n))); tc.n > 0 && peak.Load() > limit {
				t.Errorf("%d calls live at once, limit %d", peak.Load(), limit)
			}
			if inline && !reflect.DeepEqual(order, identityIndexes(tc.n)) && tc.n > 0 {
				t.Errorf("inline run visited %v, want ascending order", order)
			}
		})
	}

	// A failure: serially nothing after it runs; in parallel the lowest
	// failing index is the one reported.
	boom := func(i int) error { return fmt.Errorf("index %d", i) }
	var ran []int
	err := ParallelFor(10, 1, func(i int) error {
		ran = append(ran, i)
		if i == 3 {
			return boom(i)
		}
		return nil
	})
	if err == nil || err.Error() != "index 3" || len(ran) != 4 {
		t.Errorf("serial failure: err %v after running %v; want index 3 after [0 1 2 3]", err, ran)
	}
	sentinel := errors.New("lowest")
	err = ParallelFor(64, 8, func(i int) error {
		switch {
		case i == 5:
			return sentinel
		case i > 5 && i%2 == 0:
			return boom(i)
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Errorf("parallel failure reported %v, want the lowest failing index's error", err)
	}
}
