package tsq

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"tsq/internal/datagen"
	"tsq/internal/obs/capture"
)

// captureMixedWorkload runs one of every captured query shape — range
// over all three algorithms (stored and ad-hoc query points), NN, and a
// subsequence search — and returns how many queries it issued.
func captureMixedWorkload(t *testing.T, db *DB) int {
	t.Helper()
	n := db.SeriesLength()
	ts := MovingAverages(n, 5, 20)
	thr := Correlation(0.95)
	queries := 0
	for id, opts := range map[int64]QueryOptions{
		5: {Algorithm: MTIndex, TransformsPerMBR: 8},
		6: {Algorithm: STIndex},
		7: {Algorithm: SeqScan},
	} {
		if _, _, err := db.RangeByID(id, ts, thr, opts); err != nil {
			t.Fatal(err)
		}
		queries++
	}
	q := db.Get(3)
	q[0] += 0.25
	if _, _, err := db.Range(q, ts, Distance(4), QueryOptions{Algorithm: MTIndex, TransformsPerMBR: 8}); err != nil {
		t.Fatal(err)
	}
	queries++
	if _, _, err := db.NearestNeighbors(q, ts, 5, QueryOptions{}); err != nil {
		t.Fatal(err)
	}
	queries++

	all := make([]Series, db.Len())
	for i := range all {
		all[i] = db.Get(int64(i))
	}
	ix, err := NewSubsequenceIndex(all, SubseqOptions{Window: 16})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ix.Search(db.Get(2)[4:20], 2.5); err != nil {
		t.Fatal(err)
	}
	queries++
	return queries
}

func TestCaptureReplayRoundTrip(t *testing.T) {
	backends := map[string]func(t *testing.T) *DB{
		"mem": func(t *testing.T) *DB { return openTestDB(t, 7, 40, 64) },
		"disk": func(t *testing.T) *DB {
			db, err := CreateFile(filepath.Join(t.TempDir(), "rt.tsq"),
				datagen.RandomWalks(7, 40, 64), nil, Options{PageSize: 4096, BufferPages: 32})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = db.Close() })
			return db
		},
	}
	for name, open := range backends {
		t.Run(name, func(t *testing.T) {
			db := open(t)
			path := filepath.Join(t.TempDir(), "rt.tscap")
			if _, err := EnableCapture(path, CaptureOptions{}); err != nil {
				t.Fatal(err)
			}
			queries := captureMixedWorkload(t, db)
			st := CaptureSnapshot()
			if err := DisableCapture(); err != nil {
				t.Fatal(err)
			}
			if st.Written != int64(queries) || st.Dropped != 0 {
				t.Fatalf("journaled %d of %d queries (dropped %d, last error %q)",
					st.Written, queries, st.Dropped, st.LastError)
			}

			rep, err := ReplayFile(context.Background(), db, path, ReplayOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Records != int64(queries) || rep.Replayed != int64(queries) ||
				rep.Skipped != 0 || rep.Errors != 0 || rep.Mismatches != 0 {
				rep.WriteText(os.Stderr)
				t.Fatalf("replay: records=%d replayed=%d skipped=%d errors=%d mismatches=%d",
					rep.Records, rep.Replayed, rep.Skipped, rep.Errors, rep.Mismatches)
			}
			if rep.CapturedTotals.Matches == 0 {
				t.Error("workload produced no matches; the digest check is vacuous")
			}
			if rep.ReplayedTotals.Matches != rep.CapturedTotals.Matches {
				t.Errorf("replayed %d matches, captured %d",
					rep.ReplayedTotals.Matches, rep.CapturedTotals.Matches)
			}
		})
	}
}

func TestReplayLimit(t *testing.T) {
	db := openTestDB(t, 13, 30, 64)
	ts := MovingAverages(64, 5, 12)
	path := filepath.Join(t.TempDir(), "lim.tscap")
	if _, err := EnableCapture(path, CaptureOptions{}); err != nil {
		t.Fatal(err)
	}
	for id := int64(0); id < 5; id++ {
		if _, _, err := db.RangeByID(id, ts, Correlation(0.95), QueryOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := DisableCapture(); err != nil {
		t.Fatal(err)
	}
	rep, err := ReplayFile(context.Background(), db, path, ReplayOptions{Limit: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Records != 2 || rep.Replayed != 2 || !rep.OK() {
		t.Errorf("limited replay: records=%d replayed=%d ok=%v", rep.Records, rep.Replayed, rep.OK())
	}
}

func TestReplayCorruptCapture(t *testing.T) {
	db := openTestDB(t, 17, 30, 64)
	ts := MovingAverages(64, 5, 12)
	path := filepath.Join(t.TempDir(), "bad.tscap")
	if _, err := EnableCapture(path, CaptureOptions{}); err != nil {
		t.Fatal(err)
	}
	for id := int64(0); id < 3; id++ {
		if _, _, err := db.RangeByID(id, ts, Correlation(0.95), QueryOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := DisableCapture(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-3] ^= 0x20 // inside the final frame's CRC: complete frame, bad checksum
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := ReplayFile(context.Background(), db, path, ReplayOptions{})
	if !errors.Is(err, capture.ErrCorrupt) {
		t.Fatalf("err=%v, want ErrCorrupt", err)
	}
	if rep == nil || rep.Records != 2 || rep.Mismatches != 0 {
		t.Fatalf("partial report: %+v", rep)
	}
}

// TestReplayAgainstChangedData checks that a by-reference query replays
// only when the referenced series still has the captured content: a
// different database skips (never false-verifies) every row.
func TestReplayAgainstChangedData(t *testing.T) {
	db := openTestDB(t, 19, 30, 64)
	ts := MovingAverages(64, 5, 12)
	path := filepath.Join(t.TempDir(), "moved.tscap")
	if _, err := EnableCapture(path, CaptureOptions{}); err != nil {
		t.Fatal(err)
	}
	for id := int64(0); id < 3; id++ {
		if _, _, err := db.RangeByID(id, ts, Correlation(0.95), QueryOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := DisableCapture(); err != nil {
		t.Fatal(err)
	}

	other := openTestDB(t, 20, 30, 64) // same shape, different content
	rep, err := ReplayFile(context.Background(), other, path, ReplayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Skipped != 3 || rep.Replayed != 0 || rep.Mismatches != 0 {
		rep.WriteText(os.Stderr)
		t.Fatalf("replay against changed data: skipped=%d replayed=%d", rep.Skipped, rep.Replayed)
	}

	// A shrunk database still holds ids 0..1 with the captured content,
	// so those queries re-run — and their answer sets genuinely differ
	// (the candidate universe shrank). The digests must report that
	// divergence, not silently pass; the missing id is skipped.
	small := openTestDB(t, 19, 2, 64)
	rep, err = ReplayFile(context.Background(), small, path, ReplayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Replayed != 2 || rep.Skipped != 1 || rep.Mismatches != 2 || rep.OK() {
		rep.WriteText(os.Stderr)
		t.Fatalf("replay against shrunk data: replayed=%d skipped=%d mismatches=%d",
			rep.Replayed, rep.Skipped, rep.Mismatches)
	}
}

// TestReplaySkipsCapturedErrors synthesizes a journal holding an
// errored query: replay must skip it (the digest is empty by
// construction), not re-fail or false-match.
func TestReplaySkipsCapturedErrors(t *testing.T) {
	db := openTestDB(t, 23, 10, 64)
	path := filepath.Join(t.TempDir(), "err.tscap")
	w, err := capture.NewWriter(path, capture.Options{})
	if err != nil {
		t.Fatal(err)
	}
	w.Admit()
	w.Append(&capture.Record{
		QueryID: 1, Kind: capture.KindRange, SeriesID: 0,
		QueryHash: capture.HashFloats(db.Get(0)), Eps: 1,
		Err: "synthetic dispatch failure",
	}, MovingAverages(64, 5, 8))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err := ReplayFile(context.Background(), db, path, ReplayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Skipped != 1 || rep.Errors != 0 || !rep.OK() {
		t.Fatalf("errored record: skipped=%d errors=%d ok=%v", rep.Skipped, rep.Errors, rep.OK())
	}
}

// TestCaptureDisabledZeroAlloc pins the journal's disabled-path
// contract, mirroring the query log's: with no capture writer installed
// the per-query hook allocates nothing, including after an
// enable/disable cycle.
func TestCaptureDisabledZeroAlloc(t *testing.T) {
	DisableQueryLog()
	DisableResourceAttribution()
	if err := DisableCapture(); err != nil {
		t.Fatal(err)
	}
	db := openTestDB(t, 3, 200, 64)
	ts := MovingAverages(64, 5, 20)
	thr := Correlation(0.95)
	run := func() {
		if _, _, err := db.RangeByID(10, ts, thr, QueryOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	base := testing.AllocsPerRun(20, run)

	if _, err := EnableCapture(filepath.Join(t.TempDir(), "alloc.tscap"), CaptureOptions{}); err != nil {
		t.Fatal(err)
	}
	run()
	if err := DisableCapture(); err != nil {
		t.Fatal(err)
	}

	after := testing.AllocsPerRun(20, run)
	if after > base {
		t.Errorf("disabled path allocates %.0f/op after a capture cycle, %.0f/op before", after, base)
	}
}

// TestCaptureSamplingFacade checks SampleEvery through the public
// facade: the journal sees every query but writes one in three.
func TestCaptureSamplingFacade(t *testing.T) {
	db := openTestDB(t, 29, 30, 64)
	ts := MovingAverages(64, 5, 12)
	path := filepath.Join(t.TempDir(), "sampled.tscap")
	if _, err := EnableCapture(path, CaptureOptions{SampleEvery: 3}); err != nil {
		t.Fatal(err)
	}
	for id := int64(0); id < 9; id++ {
		if _, _, err := db.RangeByID(id, ts, Correlation(0.95), QueryOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	st := CaptureSnapshot()
	if err := DisableCapture(); err != nil {
		t.Fatal(err)
	}
	if st.Seen != 9 || st.Written != 3 || st.SampledOut != 6 {
		t.Errorf("sampling: seen=%d written=%d sampled_out=%d, want 9/3/6", st.Seen, st.Written, st.SampledOut)
	}
	rep, err := ReplayFile(context.Background(), db, path, ReplayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Records != 3 || !rep.OK() {
		t.Errorf("sampled replay: records=%d ok=%v", rep.Records, rep.OK())
	}
}

// Benchmark pair pinning the journal overhead on the range path:
// Disabled is the production default (one atomic load), Enabled pays
// digesting, record assembly and a buffered write.
func benchmarkRangeCapture(b *testing.B, enabled bool) {
	DisableQueryLog()
	DisableResourceAttribution()
	_ = DisableCapture()
	db := openTestDB(b, 3, 200, 64)
	ts := MovingAverages(64, 5, 20)
	thr := Correlation(0.95)
	if enabled {
		if _, err := EnableCapture(filepath.Join(b.TempDir(), "bench.tscap"), CaptureOptions{}); err != nil {
			b.Fatal(err)
		}
		defer func() { _ = DisableCapture() }()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := db.RangeByID(10, ts, thr, QueryOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRangeCaptureDisabled(b *testing.B) { benchmarkRangeCapture(b, false) }
func BenchmarkRangeCaptureEnabled(b *testing.B)  { benchmarkRangeCapture(b, true) }
