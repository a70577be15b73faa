package tsq

// The fault-injection sweep: every query path must, for a fault injected
// at ANY point in its I/O trace, either return a wrapped error naming the
// failing page or produce exactly the fault-free answer — never a wrong
// answer, a panic, or a leaked goroutine. This is the executable form of
// the storage stack's error-propagation contract.

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"tsq/internal/core"
	"tsq/internal/datagen"
	"tsq/internal/storage"
)

// buildFaultedMemDB builds a paged in-memory database whose every page
// access flows through the returned FaultBackend.
func buildFaultedMemDB(t *testing.T, seed int64) (*DB, *storage.FaultBackend) {
	t.Helper()
	const ps = 2048
	fb := storage.NewFaultBackend(storage.NewMemBackend(ps), seed)
	mgr := storage.NewManager(storage.Options{PageSize: ps, Backend: fb})
	ss := datagen.RandomWalks(17, 60, 32)
	ds, err := core.NewDataset(ss, nil)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := core.BuildIndex(ds, core.IndexOptions{
		K:           2,
		PageSize:    ps,
		UseSymmetry: true,
		Paged:       true,
		Manager:     mgr,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &DB{ds: ds, ix: core.WrapIndex(ix)}, fb
}

// assertFaultOutcome checks the sweep invariant for one armed run: an
// error that names a page, or the exact baseline answer.
func assertFaultOutcome(t *testing.T, label string, op int64, err error, got, want any) {
	t.Helper()
	if err != nil {
		if !strings.Contains(err.Error(), "page") {
			t.Errorf("%s op %d: error does not name a page: %v", label, op, err)
		}
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s op %d: fault produced a WRONG ANSWER:\n got %v\nwant %v", label, op, got, want)
	}
}

// checkGoroutines waits for the goroutine count to settle back to the
// starting level (parallel query workers must never hang on a fault).
func checkGoroutines(t *testing.T, start int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > start+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > start+2 {
		t.Errorf("goroutine leak: %d running, started with %d", n, start)
	}
}

// sweepQuery runs query once fault-free to get the baseline and the op
// count, then re-runs it with a fault armed at every successive I/O op.
func sweepQuery(t *testing.T, label string, fb *storage.FaultBackend, query func() (any, error)) {
	t.Helper()
	fb.FailAt(0, storage.FaultNone)
	want, err := query()
	if err != nil {
		t.Fatalf("%s baseline: %v", label, err)
	}
	total := fb.Ops()
	if total == 0 {
		t.Fatalf("%s baseline performed no I/O; sweep is vacuous", label)
	}
	goroutines := runtime.NumGoroutine()
	for _, kind := range []storage.FaultKind{storage.FaultError, storage.FaultShortRead, storage.FaultCrash} {
		for op := int64(1); op <= total; op++ {
			fb.FailAt(op, kind)
			got, err := query()
			assertFaultOutcome(t, label, op, err, got, want)
		}
	}
	fb.FailAt(0, storage.FaultNone)
	checkGoroutines(t, goroutines)
}

func TestFaultSweepMemQueries(t *testing.T) {
	db, fb := buildFaultedMemDB(t, 11)
	ts := MovingAverages(32, 3, 8)
	thr := Correlation(0.9)
	q := db.Get(0)

	t.Run("range-serial", func(t *testing.T) {
		sweepQuery(t, "range-serial", fb, func() (any, error) {
			ms, _, err := db.Range(q, ts, thr, QueryOptions{})
			return ms, err
		})
	})
	t.Run("range-parallel", func(t *testing.T) {
		sweepQuery(t, "range-parallel", fb, func() (any, error) {
			ms, _, err := db.Range(q, ts, thr, QueryOptions{Workers: 4})
			return ms, err
		})
	})
	t.Run("nn", func(t *testing.T) {
		sweepQuery(t, "nn", fb, func() (any, error) {
			ms, _, err := db.NearestNeighbors(q, ts, 3, QueryOptions{})
			return ms, err
		})
	})
}

func TestFaultSweepDiskQueries(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.tsq")
	ss := datagen.RandomWalks(19, 50, 32)
	db, err := CreateFile(path, ss, nil, Options{PageSize: 2048})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen with a FaultBackend at the "disk" position: beneath the
	// checksum layer, where real media faults happen.
	var fb *storage.FaultBackend
	re, err := openFileAny(path, func(b storage.Backend) storage.Backend {
		fb = storage.NewFaultBackend(b, 13)
		return fb
	}, openRW)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	ts := MovingAverages(32, 3, 8)
	thr := Correlation(0.9)
	q := re.Get(0)
	t.Run("range-serial", func(t *testing.T) {
		sweepQuery(t, "disk-range-serial", fb, func() (any, error) {
			ms, _, err := re.Range(q, ts, thr, QueryOptions{})
			return ms, err
		})
	})
	t.Run("range-parallel", func(t *testing.T) {
		sweepQuery(t, "disk-range-parallel", fb, func() (any, error) {
			ms, _, err := re.Range(q, ts, thr, QueryOptions{Workers: 4})
			return ms, err
		})
	})
	t.Run("nn", func(t *testing.T) {
		sweepQuery(t, "disk-nn", fb, func() (any, error) {
			ms, _, err := re.NearestNeighbors(q, ts, 3, QueryOptions{})
			return ms, err
		})
	})
}

func TestFaultSweepSubsequence(t *testing.T) {
	seqs := datagen.RandomWalks(5, 6, 80)
	fb := storage.NewFaultBackend(storage.NewMemBackend(4096), 3)
	ix, err := NewSubsequenceIndex(seqs, SubseqOptions{Window: 16, Backend: fb})
	if err != nil {
		t.Fatal(err)
	}
	pattern := seqs[0][10:26]
	sweepQuery(t, "subseq", fb, func() (any, error) {
		ms, _, err := ix.Search(pattern, 0.5)
		return ms, err
	})
}

func TestFaultSweepCrashDuringCreate(t *testing.T) {
	// Crash the backend at every point of the create-time I/O trace and
	// verify the commit protocol: a crashed create must leave a file
	// that OpenFile rejects (or that opens fully intact), and CheckFile
	// must always produce a coherent report, never a panic.
	dir := t.TempDir()
	ss := datagen.RandomWalks(23, 30, 32)
	opts := Options{PageSize: 2048}

	// Count the create-time ops with a disarmed backend.
	var probe *storage.FaultBackend
	path := filepath.Join(dir, "baseline.tsq")
	db, err := createFile(path, ss, nil, opts, func(b storage.Backend) storage.Backend {
		probe = storage.NewFaultBackend(b, 1)
		return probe
	})
	if err != nil {
		t.Fatal(err)
	}
	total := probe.Ops()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if total == 0 {
		t.Fatal("create performed no I/O; matrix is vacuous")
	}

	// Every early op, then a stride through the rest: each crash point
	// is a full index build, so the tail is sampled.
	var points []int64
	for op := int64(1); op <= total; op++ {
		if op <= 16 || op%7 == 0 || op == total {
			points = append(points, op)
		}
	}
	for _, op := range points {
		path := filepath.Join(dir, "crash.tsq")
		var fb *storage.FaultBackend
		db, err := createFile(path, ss, nil, opts, func(b storage.Backend) storage.Backend {
			fb = storage.NewFaultBackend(b, op)
			fb.FailAt(op, storage.FaultCrash)
			return fb
		})
		if err == nil {
			// The crash point was never reached (ops after the data
			// image is complete); the database must be fully usable.
			if verr := db.Verify(); verr != nil {
				t.Errorf("crash at op %d: create succeeded but Verify failed: %v", op, verr)
			}
			if cerr := db.Close(); cerr != nil {
				t.Errorf("crash at op %d: close: %v", op, cerr)
			}
		} else if !strings.Contains(err.Error(), "page") && !strings.Contains(err.Error(), "sync") {
			t.Errorf("crash at op %d: error names neither page nor sync: %v", op, err)
		}

		// The survived image must never open as a silently-wrong
		// database: either rejected, or complete and verifiable.
		if re, oerr := OpenFile(path); oerr == nil {
			if verr := re.Verify(); verr != nil {
				t.Errorf("crash at op %d: reopened a corrupt database: %v", op, verr)
			}
			_ = re.Close()
		}

		// And the scrubber always renders a verdict.
		r, cerr := CheckFile(path)
		if cerr != nil {
			t.Errorf("crash at op %d: CheckFile: %v", op, cerr)
			continue
		}
		if err != nil && r.OK() {
			t.Errorf("crash at op %d: create failed but scrub says OK:\n%s", op, r)
		}
		if err == nil && !r.OK() {
			t.Errorf("crash at op %d: create succeeded but scrub says corrupt:\n%s", op, r)
		}
		_ = r.String() // rendering must not panic either
	}
}

func TestFaultSweepCrashDuringShardedCreate(t *testing.T) {
	// The multi-shard commit protocol: shard files commit first, the
	// manifest last. Crash or tear a write at any point of any shard's
	// create-time I/O trace — what survives must never open as a
	// partially-visible database: OpenFile either reconstructs the full
	// DB or rejects the set, and the scrubber renders a verdict that
	// agrees with the create's outcome.
	dir := t.TempDir()
	ss := datagen.RandomWalks(27, 36, 32)
	opts := Options{PageSize: 2048, Shards: 3}

	// Baseline: one disarmed probe per shard file counts each shard's
	// create-time ops (wrap runs serially, once per shard, in order).
	var probes []*storage.FaultBackend
	base := filepath.Join(dir, "baseline.tsq")
	db, err := createFile(base, ss, nil, opts, func(b storage.Backend) storage.Backend {
		fb := storage.NewFaultBackend(b, int64(len(probes)+1))
		probes = append(probes, fb)
		return fb
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if len(probes) != opts.Shards {
		t.Fatalf("wrap ran %d times, want once per shard (%d)", len(probes), opts.Shards)
	}

	for _, kind := range []storage.FaultKind{storage.FaultCrash, storage.FaultTornWrite} {
		for s := 0; s < opts.Shards; s++ {
			total := probes[s].Ops()
			if total == 0 {
				t.Fatalf("shard %d performed no create I/O; sweep is vacuous", s)
			}
			var points []int64
			for op := int64(1); op <= total; op++ {
				if op <= 8 || op%11 == 0 || op == total {
					points = append(points, op)
				}
			}
			for _, op := range points {
				path := filepath.Join(dir, fmt.Sprintf("f%d_s%d_%d.tsq", kind, s, op))
				calls := 0
				db, err := createFile(path, ss, nil, opts, func(b storage.Backend) storage.Backend {
					fb := storage.NewFaultBackend(b, op)
					if calls == s {
						fb.FailAt(op, kind)
					}
					calls++
					return fb
				})
				label := fmt.Sprintf("kind %d shard %d op %d", kind, s, op)
				if err == nil {
					// The fault point was never reached; the database
					// must be fully usable.
					if verr := db.Verify(); verr != nil {
						t.Errorf("%s: create succeeded but Verify failed: %v", label, verr)
					}
					if cerr := db.Close(); cerr != nil {
						t.Errorf("%s: close: %v", label, cerr)
					}
				} else if !strings.Contains(err.Error(), "shard") {
					t.Errorf("%s: create error does not name the shard: %v", label, err)
				}

				// Whatever the create left on disk must never open as a
				// silently-wrong database. A failed multi-shard create
				// never wrote the manifest, so the usual rejection is
				// "no such file" at path — exactly the invisible-DB
				// guarantee.
				if re, oerr := OpenFile(path); oerr == nil {
					if verr := re.Verify(); verr != nil {
						t.Errorf("%s: reopened a corrupt database: %v", label, verr)
					}
					_ = re.Close()
				}

				// The scrubber agrees with the outcome whenever there is
				// a manifest to scrub.
				if _, serr := os.Stat(path); serr == nil {
					r, cerr := CheckFile(path)
					if cerr != nil {
						t.Errorf("%s: CheckFile: %v", label, cerr)
						continue
					}
					if err != nil && r.OK() {
						t.Errorf("%s: create failed but scrub says OK:\n%s", label, r)
					}
					if err == nil && !r.OK() {
						t.Errorf("%s: create succeeded but scrub says corrupt:\n%s", label, r)
					}
					_ = r.String()
				} else if err == nil {
					t.Errorf("%s: create succeeded but no manifest on disk", label)
				}
			}
		}
	}
}
