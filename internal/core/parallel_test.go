package core

import (
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"tsq/internal/datagen"
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

// TestMTRangeParallelGroupsEqualsSerial checks that the range query's
// one fan-out, over its (shard, rectangle) pairs, returns exactly what
// the serial one-worker run does — the same matches in the same order
// and every statistic — at shards 1 to 3, in memory and on files without
// a pool (so every page access is a read, whatever the order), for one
// rectangle, four transformations per rectangle and singletons (the
// ST-index), on 1, 2 and 4 workers. The fan-out reads no page more than
// its pairs do, each probed alone at the same worker count; in memory,
// where a probe reads tree nodes only, that is the serial run's count. On
// a file the workers also split each probe's verification into chunks,
// each fetching its own heap pages, so a page two chunks share is read
// twice.
func TestMTRangeParallelGroupsEqualsSerial(t *testing.T) {
	ds, err := NewDataset(datagen.RandomWalks(3, 300, 64), nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := transform.MovingAverageSet(64, 5, 28) // 24 transforms
	eps := series.DistanceForCorrelation(64, 0.92)
	for _, nshards := range []int{1, 2, 3} {
		parts, err := PartitionDataset(ds, nshards)
		if err != nil {
			t.Fatal(err)
		}
		for _, onFile := range []bool{false, true} {
			shards := make([]*Index, nshards)
			for i, part := range parts {
				opts := DefaultIndexOptions()
				if onFile {
					opts.Manager = fileManager(t, 0, true)
					opts.PageSize, opts.Paged = opts.Manager.PageSize(), true
				}
				if shards[i], err = BuildIndex(part, opts); err != nil {
					t.Fatal(err)
				}
			}
			sh, err := AssembleShards(shards)
			if err != nil {
				t.Fatal(err)
			}
			run := func(sh *Sharded, q *Record, groups [][]int, workers int) ([]Match, QueryStats, int64) {
				sh.ResetDiskStats()
				got, st, err := sh.MTIndexRange(nil, q, ts, eps, RangeOptions{Mode: QRectSafe, Groups: groups, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				return got, noTime(st), sh.DiskStats().Reads
			}
			// pairReads probes every pair alone.
			pairReads := func(q *Record, groups [][]int, workers int) (reads int64) {
				for _, ix := range shards {
					if groups == nil {
						_, _, r := run(WrapIndex(ix), q, nil, workers)
						reads += r
					}
					for _, g := range groups {
						_, _, r := run(WrapIndex(ix), q, [][]int{g}, workers)
						reads += r
					}
				}
				return reads
			}
			for _, groups := range [][][]int{nil, EqualPartition(len(ts), 4), SingletonGroups(len(ts))} {
				for trial := 0; trial < 3; trial++ {
					q := ds.Records[trial*31%len(ds.Records)]
					want, wantSt, serialReads := run(sh, q, groups, 1)
					if len(want) == 0 {
						t.Fatalf("query %d matches nothing: the parity says nothing", q.ID)
					}
					for _, workers := range []int{1, 2, 4} {
						got, gotSt, gotReads := run(sh, q, groups, workers)
						wantReads := pairReads(q, groups, workers)
						if !onFile && wantReads != serialReads {
							t.Fatalf("%d shards, %d workers: the pairs alone read %d pages, the serial run %d", nshards, workers, wantReads, serialReads)
						}
						where := fmt.Sprintf("%d shards, file %v, %d rectangles, %d workers, query %d", nshards, onFile, max(1, len(groups)), workers, q.ID)
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s: matches or their order differ from the serial run", where)
						}
						if gotSt != wantSt {
							t.Fatalf("%s: stats = %+v, want %+v", where, gotSt, wantSt)
						}
						if gotReads != wantReads {
							t.Fatalf("%s: %d pages read, its pairs alone %d", where, gotReads, wantReads)
						}
					}
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
	_, _, err := WrapIndex(ix).MTIndexRange(nil, ds.Records[0], ts, 1.0, RangeOptions{Groups: groups, Workers: 4})
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
