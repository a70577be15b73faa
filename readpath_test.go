package tsq

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"tsq/internal/datagen"
)

// smallPoolFile creates a file-backed database whose buffer pool is far
// smaller than the file, so record fetches miss and the pool recycles
// frames on nearly every page.
func smallPoolFile(t testing.TB, count, n, bufferPages int) *DB {
	t.Helper()
	path := filepath.Join(t.TempDir(), "readpath.tsq")
	db, err := CreateFile(path, datagen.RandomWalks(31, count, n), nil, Options{BufferPages: bufferPages})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := db.Close(); err != nil {
			t.Error(err)
		}
	})
	return db
}

// TestFileBackedRangeAllocsDoNotGrowWithCandidates is the end-to-end form
// of the record read path's contract: on a file behind a pool that holds
// a fiftieth of it, a range query that fetches and verifies hundreds of
// candidates more allocates no more than one that fetches a few — pages
// go through recycled frames and a reused run buffer, records through
// one decode slot. Before, every fetched record cost ten allocations.
func TestFileBackedRangeAllocsDoNotGrowWithCandidates(t *testing.T) {
	db := smallPoolFile(t, 1600, 64, 32)
	ts := MovingAverages(64, 5, 12)
	measure := func(rho float64) (allocs float64, fetched int) {
		allocs = testing.AllocsPerRun(5, func() {
			_, st, err := db.RangeByID(3, ts, Correlation(rho), QueryOptions{})
			if err != nil {
				t.Fatal(err)
			}
			fetched = st.Candidates
		})
		return allocs, fetched
	}
	fewAllocs, few := measure(0.995)
	manyAllocs, many := measure(0.7)
	t.Logf("%d records fetched: %.0f allocations; %d records fetched: %.0f allocations", few, fewAllocs, many, manyAllocs)
	if many < few+300 {
		t.Fatalf("the loose query fetches %d records, the tight one %d: too close to tell", many, few)
	}
	// Without -race the two counts are equal. Under -race the checksum
	// layer's sync.Pool drops a quarter of its Puts, so a share of the page
	// reads allocates a scratch page again; one allocation per record is
	// still a tenth of what the path cost when it allocated by design.
	if extra := manyAllocs - fewAllocs; extra >= float64(many-few) {
		t.Errorf("%d more records fetched cost %.0f more allocations: the read path allocates per record or per page", many-few, extra)
	}
}

// TestInMemoryRangeAllocBudget pins what an untraced in-memory range
// query of the range-mem shape allocates once warm: its answer, and not
// the probe's stage. The lifted MBRs, the query rectangle, the lower-bound
// cascade, its skip and the group of the whole set live in the probe's
// reused scratch; before they did, such a query made 52 allocations.
func TestInMemoryRangeAllocBudget(t *testing.T) {
	const budget = 4
	db, err := Open(datagen.RandomWalks(1, 3000, 128), nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := MovingAverages(128, 10, 25)
	var matches int
	allocs := testing.AllocsPerRun(20, func() {
		got, _, err := db.RangeByID(17, ts, Correlation(0.99), QueryOptions{Algorithm: MTIndex})
		if err != nil {
			t.Fatal(err)
		}
		matches = len(got)
	})
	if matches == 0 || allocs > budget {
		t.Fatalf("a range query with %d matches allocates %.1f times, budget %d", matches, allocs, budget)
	}
}

// TestFileBackedAnswersEqualSeqScanWithWorkers runs range and NN queries
// with Workers: 4 from several goroutines at once against one small-pool
// file — every verification worker streaming records through its own
// scratch, all of them recycling the same pool's frames — and checks
// each answer against the sequential scan. Run under -race it is the
// check that no slot, run buffer or frame is shared.
func TestFileBackedAnswersEqualSeqScanWithWorkers(t *testing.T) {
	db := smallPoolFile(t, 600, 64, 16)
	for _, id := range []int64{5, 250, 599} {
		if err := db.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	ts := MovingAverages(64, 5, 12)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				id := int64(7 + 97*g + 13*i)
				thr := Correlation(0.75 + 0.04*float64(i%4))
				want, _, err := db.RangeByID(id, ts, thr, QueryOptions{Algorithm: SeqScan})
				if err != nil {
					t.Error(err)
					return
				}
				got, st, err := db.RangeByID(id, ts, thr, QueryOptions{Workers: 4})
				if err != nil {
					t.Error(err)
					return
				}
				SortMatches(want)
				SortMatches(got)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("range by %d: %d matches from %d fetched records, sequential scan has %d", id, len(got), st.Candidates, len(want))
				}
				wantNN, _, err := db.NearestNeighbors(db.Get(id), ts, 5, QueryOptions{Algorithm: SeqScan})
				if err != nil {
					t.Error(err)
					return
				}
				gotNN, _, err := db.NearestNeighbors(db.Get(id), ts, 5, QueryOptions{Workers: 4})
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(gotNN, wantNN) {
					t.Errorf("5-NN of %d: %v, sequential scan has %v", id, gotNN, wantNN)
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestOpensFileWrittenBeforeChecksumFold opens database files checked in
// under testdata, written by older commits, and pins what they hold:
//
//   - pr13.tsq, written by the commit before the page checksum stopped
//     going through crc32.Update and before records were decoded into
//     slots: 40 random walks of length 8, 512-byte checksummed pages,
//     K=1, records 7 and 23 deleted.
//   - sharded2.tsq with sharded2.tsq.shard0 and .shard1, written by the
//     commit before create, open and scrub became one loop over a
//     database's page files: a 2-shard manifest over 200 random walks
//     of length 8, 1 KiB checksummed pages, K=2, records 7 and 150
//     deleted.
//
// Every page must still verify, every record read back, and the index
// answer as the sequential scan does.
func TestOpensFileWrittenBeforeChecksumFold(t *testing.T) {
	for _, tc := range []struct {
		name          string
		shards        int
		count, length int
		deleted       []int64
		matches       map[int64]int // query id -> range matches
	}{
		{name: "pr13.tsq", shards: 1, count: 40, length: 8, deleted: []int64{7, 23},
			matches: map[int64]int{0: 39, 12: 40, 39: 61}},
		{name: "sharded2.tsq", shards: 2, count: 200, length: 8, deleted: []int64{7, 150},
			matches: map[int64]int{5: 238}},
	} {
		dir := t.TempDir()
		files := []string{tc.name}
		for i := 0; tc.shards > 1 && i < tc.shards; i++ {
			files = append(files, shardPath(tc.name, i))
		}
		for _, f := range files {
			image, err := os.ReadFile(filepath.Join("testdata", f))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, f), image, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		path := filepath.Join(dir, tc.name)
		rep, err := CheckFile(path)
		if err != nil {
			t.Fatal(err)
		}
		scrubbed := []*CheckReport{rep} // one report per page file
		if tc.shards > 1 {
			scrubbed = rep.Shards
		}
		if !rep.OK() || len(scrubbed) != tc.shards {
			t.Fatalf("%s: scrub of the old file:\n%s", tc.name, rep)
		}
		for _, r := range scrubbed {
			if !r.Checksummed || r.Scanned == 0 {
				t.Fatalf("%s: scrub of the old file: %+v", tc.name, r)
			}
		}
		db, err := OpenFile(path)
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		if err := db.Verify(); err != nil {
			t.Fatal(err)
		}
		if db.Shards() != tc.shards || db.Len() != tc.count || db.Name(12) != "walk-12" || len(db.Get(8)) != tc.length {
			t.Fatalf("%s reads back %d shards, %d ids, name(12)=%q", tc.name, db.Shards(), db.Len(), db.Name(12))
		}
		for _, id := range tc.deleted {
			if db.Get(id) != nil {
				t.Fatalf("%s: deleted record %d present", tc.name, id)
			}
		}
		ts := MovingAverages(tc.length, 1, 3)
		for id, n := range tc.matches {
			want, _, err := db.RangeByID(id, ts, Correlation(0.5), QueryOptions{Algorithm: SeqScan})
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := db.RangeByID(id, ts, Correlation(0.5), QueryOptions{})
			if err != nil {
				t.Fatal(err)
			}
			SortMatches(want)
			SortMatches(got)
			if len(want) != n || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: range by %d on the old file: %d matches (pinned %d), index %s, sequential scan %s", tc.name, id, len(want), n, fmt.Sprint(got), fmt.Sprint(want))
			}
		}
	}
}
