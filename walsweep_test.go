package tsq

// Crash-consistency sweep for online writes. A serialized Insert/Delete
// workload runs with a fault armed at every sampled point of the page
// file's I/O trace; whatever the crash leaves on disk must reopen to
// exactly the never-crashed baseline after k operations, where k is the
// number of acknowledged ops — or k+1 when the op in flight had already
// reached the write-ahead log. No acknowledged write is ever lost, and
// query answers on the recovered database are bit-identical to the
// baseline's.

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"tsq/internal/core"
	"tsq/internal/datagen"
	"tsq/internal/storage"
	"tsq/internal/wal"
)

// copyDBFiles clones the database at src — page file, shard files, and
// their write-ahead logs — to dst, preserving suffixes. This is the
// crash simulation: the copy captures every write syscall that
// completed, and nothing the still-open writer had in memory.
func copyDBFiles(t *testing.T, src, dst string) {
	t.Helper()
	dir := filepath.Dir(src)
	base := filepath.Base(src)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasPrefix(e.Name(), base) {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(dst+strings.TrimPrefix(e.Name(), base), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// dbState is the full logical state of a database: one entry per id
// ever assigned, nil series marking tombstones.
type dbState struct {
	Names  []string
	Series []Series
}

func snapshotState(db *DB) dbState {
	var st dbState
	for id := int64(0); id < int64(db.Len()); id++ {
		st.Names = append(st.Names, db.Name(id))
		st.Series = append(st.Series, db.Get(id))
	}
	return st
}

// sortedMatches returns the range answer in a canonical order so
// baseline and recovered answers compare with DeepEqual regardless of
// scatter-gather scheduling.
func sortedMatches(ms []Match) []Match {
	out := append([]Match(nil), ms...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].RecordID != out[j].RecordID {
			return out[i].RecordID < out[j].RecordID
		}
		return out[i].TransformIdx < out[j].TransformIdx
	})
	return out
}

// walWorkload is the serialized write workload the sweep crashes:
// inserts and deletes interleaved, touching both original and
// freshly-inserted ids. initial is the pristine database's record
// count.
func walWorkload(initial int64, extra []Series) []func(db *DB) error {
	return []func(db *DB) error{
		func(db *DB) error { _, err := db.Insert("wal-a", extra[0]); return err },
		func(db *DB) error { _, err := db.Insert("wal-b", extra[1]); return err },
		func(db *DB) error { return db.Delete(3) },
		func(db *DB) error { _, err := db.Insert("wal-c", extra[2]); return err },
		func(db *DB) error { return db.Delete(initial) }, // wal-a
		func(db *DB) error { _, err := db.Insert("wal-d", extra[3]); return err },
	}
}

// sweepWALWrites is the sweep on the small fixture: 30 records on 2 KiB
// pages, far from filling the heap's first directory page.
func sweepWALWrites(t *testing.T, shardCount int, keep func(op, total int64) bool) {
	sweepWALFixture(t, shardCount, 30, 2048, false, keep)
}

// directoryPages sums the heap directory chains of db's shards.
func directoryPages(t *testing.T, db *DB) int {
	t.Helper()
	total := 0
	for i := 0; i < db.ix.ShardCount(); i++ {
		h, err := db.ix.Shard(i).Heap().ComputeHealth(nil)
		if err != nil {
			t.Fatal(err)
		}
		total += h.DirectoryPages
	}
	return total
}

// sweepWALFixture is the matrix body, shared by the single-file and
// sharded layouts: count records on pages of pageSize bytes. With spill
// the workload's inserts must link a new heap directory page.
func sweepWALFixture(t *testing.T, shardCount, count, pageSize int, spill bool, keep func(op, total int64) bool) {
	dir := t.TempDir()
	ss := datagen.RandomWalks(31, count, 32)
	extra := datagen.RandomWalks(37, 4, 32)
	opts := Options{PageSize: pageSize, Shards: shardCount}
	ts := MovingAverages(32, 3, 8)
	thr := Correlation(0.9)
	query := ss[0]

	pristine := filepath.Join(dir, "pristine.tsq")
	db, err := CreateFile(pristine, ss, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	ops := walWorkload(int64(len(ss)), extra)

	// Never-crashed baseline: state and range answer after every prefix.
	basePath := filepath.Join(dir, "baseline.tsq")
	copyDBFiles(t, pristine, basePath)
	base, err := OpenFile(basePath)
	if err != nil {
		t.Fatal(err)
	}
	answer := func(db *DB) ([]Match, error) {
		ms, _, err := db.Range(query, ts, thr, QueryOptions{})
		return sortedMatches(ms), err
	}
	snaps := []dbState{snapshotState(base)}
	ans, err := answer(base)
	if err != nil {
		t.Fatal(err)
	}
	answers := [][]Match{ans}
	dirPagesBefore := directoryPages(t, base)
	for i, op := range ops {
		if err := op(base); err != nil {
			t.Fatalf("baseline op %d: %v", i, err)
		}
		snaps = append(snaps, snapshotState(base))
		if ans, err = answer(base); err != nil {
			t.Fatalf("baseline answer after op %d: %v", i, err)
		}
		answers = append(answers, ans)
	}
	if after := directoryPages(t, base); spill && after != dirPagesBefore+1 {
		t.Fatalf("the workload was to link one heap directory page: %d before, %d after", dirPagesBefore, after)
	}
	if err := base.Close(); err != nil {
		t.Fatal(err)
	}

	// Probe run: count each page file's I/O ops across the workload.
	probePath := filepath.Join(dir, "probe.tsq")
	copyDBFiles(t, pristine, probePath)
	var probes []*storage.FaultBackend
	pdb, err := openFileAny(probePath, func(b storage.Backend) storage.Backend {
		fb := storage.NewFaultBackend(b, int64(len(probes)+1))
		probes = append(probes, fb)
		return fb
	}, openRW)
	if err != nil {
		t.Fatal(err)
	}
	for _, fb := range probes {
		fb.FailAt(0, storage.FaultNone) // count from the workload's first op
	}
	for i, op := range ops {
		if err := op(pdb); err != nil {
			t.Fatalf("probe op %d: %v", i, err)
		}
	}
	totals := make([]int64, len(probes))
	for i, fb := range probes {
		totals[i] = fb.Ops()
		if totals[i] == 0 && shardCount <= 1 {
			t.Fatal("workload performed no page I/O; sweep is vacuous")
		}
	}
	if err := pdb.Close(); err != nil {
		t.Fatal(err)
	}

	run := 0
	for _, kind := range []storage.FaultKind{storage.FaultCrash, storage.FaultTornWrite} {
		for target := range totals {
			for op := int64(1); op <= totals[target]; op++ {
				if !keep(op, totals[target]) {
					continue
				}
				run++
				label := fmt.Sprintf("kind %d file %d op %d", kind, target, op)
				work := filepath.Join(dir, fmt.Sprintf("w%d.tsq", run))
				copyDBFiles(t, pristine, work)

				var fbs []*storage.FaultBackend
				wdb, err := openFileAny(work, func(b storage.Backend) storage.Backend {
					fb := storage.NewFaultBackend(b, op)
					fbs = append(fbs, fb)
					return fb
				}, openRW)
				if err != nil {
					t.Fatalf("%s: open: %v", label, err)
				}
				fbs[target].FailAt(op, kind)

				// Apply until the fault bites; a crashed process never
				// issues the next op, so the workload stops at the first
				// error.
				acked := 0
				for _, wop := range ops {
					if err := wop(wdb); err != nil {
						break
					}
					acked++
				}

				// The crash: clone what is on disk, then let the dying
				// writer go (its Close may fail; the clone is the truth).
				crashed := filepath.Join(dir, fmt.Sprintf("c%d.tsq", run))
				copyDBFiles(t, work, crashed)
				_ = wdb.Close()

				re, err := OpenFile(crashed)
				if err != nil {
					t.Errorf("%s: acked %d: reopen after crash failed: %v", label, acked, err)
					continue
				}
				got := snapshotState(re)
				k := -1
				switch {
				case reflect.DeepEqual(got, snaps[acked]):
					k = acked
				case acked+1 < len(snaps) && reflect.DeepEqual(got, snaps[acked+1]):
					k = acked + 1 // the op in flight had reached the log
				}
				if k < 0 {
					t.Errorf("%s: recovered state matches no acked prefix (acked %d): lost or invented a write", label, acked)
					_ = re.Close()
					continue
				}
				if verr := re.Verify(); verr != nil {
					t.Errorf("%s: recovered database fails Verify: %v", label, verr)
				}
				if ans, aerr := answer(re); aerr != nil {
					t.Errorf("%s: range query on recovered database: %v", label, aerr)
				} else if !reflect.DeepEqual(ans, answers[k]) {
					t.Errorf("%s: recovered answers diverge from the never-crashed baseline at prefix %d", label, k)
				}
				if cerr := re.Close(); cerr != nil {
					t.Errorf("%s: close after recovery: %v", label, cerr)
				}
				// After the reopen folded the log, the scrubber must give
				// the file a clean bill.
				r, cerr := CheckFile(crashed)
				if cerr != nil {
					t.Errorf("%s: CheckFile: %v", label, cerr)
				} else if !r.OK() {
					t.Errorf("%s: scrub after recovery says corrupt:\n%s", label, r)
				}
			}
		}
	}
	if run == 0 {
		t.Fatal("sampling kept no fault points; sweep is vacuous")
	}
}

func TestWALSweepSingleFile(t *testing.T) {
	sweepWALWrites(t, 0, func(op, total int64) bool {
		return op <= 10 || op%13 == 0 || op == total
	})
}

func TestWALSweepSharded(t *testing.T) {
	sweepWALWrites(t, 2, func(op, total int64) bool {
		return op <= 5 || op%19 == 0 || op == total
	})
}

// spillPageSize is the page size of the spill fixtures: the smallest
// power of two holding a 32-sample record, so a heap directory page (251
// entries behind the checksum trailer) fills quickly.
const spillPageSize = 1024

// spillEntries is the number of entries on a heap directory page of a
// checksummed file with spillPageSize pages: 12 bytes of header, 4 a page id.
const spillEntries = (spillPageSize - storage.ChecksumTrailerSize - 12) / 4

// TestWALSweepDirectorySpill sweeps inserts that fill the heap's first
// directory page and link a second one, which writes two directory pages
// in one transaction where every other insert writes one. The database
// starts one record short of a full page: the first insert fills it, the
// second links the new page.
func TestWALSweepDirectorySpill(t *testing.T) {
	sweepWALFixture(t, 0, spillEntries-1, spillPageSize, true, func(op, total int64) bool { return true })
}

// TestWALSweepDirectorySpillSharded is the same on two shards: the
// initial count leaves one shard a record short of a full directory page
// with two of the workload's four inserts hashing to it.
func TestWALSweepDirectorySpillSharded(t *testing.T) {
	const shards = 2
	var counts [shards]int // records per shard among ids below count
	count := 0
search:
	for ; ; count++ {
		var into [shards]int // of the four ids the workload inserts
		for g := count; g < count+4; g++ {
			into[core.ShardOf(int64(g), shards)]++
		}
		for s := range counts {
			if counts[s] == spillEntries-1 && into[s] >= 2 {
				break search
			}
		}
		if count > shards*spillEntries {
			t.Fatal("no initial count leaves a shard one short of a directory page")
		}
		counts[core.ShardOf(int64(count), shards)]++
	}
	sweepWALFixture(t, shards, count, spillPageSize, true, func(op, total int64) bool {
		return op <= 5 || op%11 == 0 || op == total
	})
}

// TestWALHealsTornPage is the targeted healing path: insert without
// checkpointing, crash, corrupt one of the pages the pending log still
// covers, and verify that reopening replays the after-image over the
// damage — and that the scrubber counts the page healable beforehand.
func TestWALHealsTornPage(t *testing.T) {
	dir := t.TempDir()
	ss := datagen.RandomWalks(41, 24, 32)
	extra := datagen.RandomWalks(43, 3, 32)
	path := filepath.Join(dir, "heal.tsq")
	db, err := CreateFile(path, ss, nil, Options{PageSize: 2048})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db, err = OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range extra {
		if _, err := db.Insert(fmt.Sprintf("heal-%d", i), s); err != nil {
			t.Fatal(err)
		}
	}
	want := snapshotState(db)

	// Crash: clone the files with the log unfolded, abandon the writer.
	crashed := filepath.Join(dir, "crashed.tsq")
	copyDBFiles(t, path, crashed)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	pending, info, err := wal.ReadPending(crashed + ".wal")
	if err != nil {
		t.Fatal(err)
	}
	if !info.Present || len(pending) != len(extra) {
		t.Fatalf("expected %d pending records, got %d (present=%v)", len(extra), len(pending), info.Present)
	}
	// Tear the last page the log covers: garbage over its first bytes.
	images := pending[len(pending)-1].Pages
	victim := images[len(images)-1].ID
	f, err := os.OpenFile(crashed, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("torn write garbage"), int64(victim)*2048); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// Scrub before recovery: the bad page must be reported healable,
	// and the file as a whole not corrupt.
	r, err := CheckFile(crashed)
	if err != nil {
		t.Fatal(err)
	}
	if r.BadPageCount == 0 || r.HealedPages != r.BadPageCount {
		t.Fatalf("scrub should count the torn page healable:\n%s", r)
	}
	if !r.OK() {
		t.Fatalf("a crash the log can heal must not scrub as corrupt:\n%s", r)
	}

	// Recovery: replay heals the page; nothing acknowledged is lost.
	re, err := OpenFile(crashed)
	if err != nil {
		t.Fatalf("reopen after torn write: %v", err)
	}
	if got := snapshotState(re); !reflect.DeepEqual(got, want) {
		t.Error("recovered state differs from the pre-crash state")
	}
	if err := re.Verify(); err != nil {
		t.Errorf("recovered database fails Verify: %v", err)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	r, err = CheckFile(crashed)
	if err != nil {
		t.Fatal(err)
	}
	if !r.OK() {
		t.Fatalf("scrub after recovery:\n%s", r)
	}
}

// TestInsertCrashReopenScrub is the end-to-end recovery walk on both
// layouts: insert online, crash without closing, reopen, and scrub.
func TestInsertCrashReopenScrub(t *testing.T) {
	for _, tc := range []struct {
		name   string
		shards int
	}{{"single-file", 0}, {"sharded", 3}} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			ss := datagen.RandomWalks(47, 27, 32)
			extra := datagen.RandomWalks(53, 5, 32)
			path := filepath.Join(dir, "e2e.tsq")
			db, err := CreateFile(path, ss, nil, Options{PageSize: 2048, Shards: tc.shards})
			if err != nil {
				t.Fatal(err)
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			db, err = OpenFile(path)
			if err != nil {
				t.Fatal(err)
			}
			for i, s := range extra {
				if _, err := db.Insert(fmt.Sprintf("e2e-%d", i), s); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.Delete(2); err != nil {
				t.Fatal(err)
			}
			want := snapshotState(db)
			crashed := filepath.Join(dir, "crashed.tsq")
			copyDBFiles(t, path, crashed)
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}

			re, err := OpenFile(crashed)
			if err != nil {
				t.Fatalf("reopen after crash: %v", err)
			}
			if got := snapshotState(re); !reflect.DeepEqual(got, want) {
				t.Error("recovered state differs from the pre-crash state")
			}
			if err := re.Verify(); err != nil {
				t.Errorf("recovered database fails Verify: %v", err)
			}
			if err := re.Close(); err != nil {
				t.Fatal(err)
			}
			r, err := CheckFile(crashed)
			if err != nil {
				t.Fatal(err)
			}
			if !r.OK() {
				t.Fatalf("scrub after recovery:\n%s", r)
			}
		})
	}
}

// TestConcurrentWritesRacingQueries drives Insert/Delete from writer
// goroutines while readers run range queries — the lock discipline
// (db.mu writers exclusive, queries shared) must hold under the race
// detector, and every answer a reader sees must be internally
// consistent (no panics, no errors).
func TestConcurrentWritesRacingQueries(t *testing.T) {
	dir := t.TempDir()
	ss := datagen.RandomWalks(59, 30, 32)
	path := filepath.Join(dir, "race.tsq")
	db, err := CreateFile(path, ss, nil, Options{PageSize: 2048})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db, err = OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ts := MovingAverages(32, 3, 8)
	thr := Correlation(0.9)
	query := ss[0]

	const writers, perWriter = 2, 12
	var wgW, wgR sync.WaitGroup
	errs := make(chan error, writers+2)
	done := make(chan struct{})
	for w := 0; w < writers; w++ {
		wgW.Add(1)
		go func(w int) {
			defer wgW.Done()
			rows := datagen.RandomWalks(int64(61+w), perWriter, 32)
			var mine []int64
			for i, s := range rows {
				id, err := db.Insert(fmt.Sprintf("race-%d-%d", w, i), s)
				if err != nil {
					errs <- fmt.Errorf("writer %d insert %d: %w", w, i, err)
					return
				}
				mine = append(mine, id)
				if i%3 == 2 { // delete every third of my own inserts
					if err := db.Delete(mine[len(mine)-2]); err != nil {
						errs <- fmt.Errorf("writer %d delete: %w", w, err)
						return
					}
				}
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		wgR.Add(1)
		go func(r int) {
			defer wgR.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if _, _, err := db.Range(query, ts, thr, QueryOptions{Workers: 2}); err != nil {
					errs <- fmt.Errorf("reader %d: %w", r, err)
					return
				}
			}
		}(r)
	}
	wgW.Wait()
	close(done)
	wgR.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if err := db.Verify(); err != nil {
		t.Errorf("Verify after concurrent writes: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}
