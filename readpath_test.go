package tsq

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
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

// TestShardedNNAllocBudget pins what a warm, untraced 10-NN query of the
// nn-shards2 shape allocates: featurizing the query and its answer. The
// search's queue, the k best so far and each shard's decode slot live in
// reused scratch, and one search covers every shard, so two shards cost
// no more than one. Before, the query made 42 allocations at two shards.
func TestShardedNNAllocBudget(t *testing.T) {
	const budget = 10
	ss := datagen.RandomWalks(5, 2000, 128)
	q := datagen.RandomWalks(6, 1, 128)[0]
	ts := MovingAverages(128, 10, 11)
	for _, shards := range []int{1, 2} {
		db, err := Open(ss, nil, Options{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		var got int
		allocs := testing.AllocsPerRun(20, func() {
			nn, _, err := db.NearestNeighbors(q, ts, 10, QueryOptions{})
			if err != nil {
				t.Fatal(err)
			}
			got = len(nn)
		})
		if got != 10 || allocs > budget {
			t.Fatalf("shards=%d: a 10-NN query with %d answers allocates %.1f times, budget %d", shards, got, allocs, budget)
		}
	}
}

// TestNNPagedEqualsInMemory holds the NN search's run logic to its
// promise: the same records in memory and in a file behind a pool far
// smaller than it, at one and two shards, give the same answers and every
// QueryStats count the same, by-id queries (which leave the stored series
// out) and deleted records included. The file fetches each run of popped
// entries in one page-ordered batch and verifies it in pop order; memory
// verifies the same runs without a fetch. The file is written without
// page checksums, whose trailer costs a leaf one entry, so that both hold
// the same tree.
func TestNNPagedEqualsInMemory(t *testing.T) {
	ss := datagen.RandomWalks(41, 900, 64)
	queries := datagen.RandomWalks(42, 4, 64)
	sets := []struct {
		ts   []Transform
		opts QueryOptions
	}{
		{MovingAverages(64, 5, 12), QueryOptions{}},
		{TimeShifts(64, -3, 3), QueryOptions{OneSided: true}},
		{append(MovingAverages(64, 4, 6), Reverse(64), Scale(64, 1.5)), QueryOptions{}},
	}
	for _, shards := range []int{1, 2} {
		mem, err := Open(ss, nil, Options{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		file, err := CreateFile(filepath.Join(t.TempDir(), "nn.tsq"), ss, nil, Options{Shards: shards, BufferPages: 16, DisableChecksums: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range []int64{3, 400, 401, 899} {
			if err := mem.Delete(id); err != nil {
				t.Fatal(err)
			}
			if err := file.Delete(id); err != nil {
				t.Fatal(err)
			}
		}
		var reqs []BatchRequest
		for _, set := range sets {
			for _, k := range []int{1, 10, 40} {
				for _, q := range queries {
					reqs = append(reqs, BatchRequest{Query: q, Transforms: set.ts, K: k, Opts: set.opts})
				}
				for _, id := range []int64{0, 402, 777} {
					reqs = append(reqs, BatchRequest{ID: id, ByID: true, Transforms: set.ts, K: k, Opts: set.opts})
				}
			}
		}
		want, got := mem.Batch(context.Background(), reqs, 1), file.Batch(context.Background(), reqs, 1)
		var skipped int
		for i := range reqs {
			w, g := want[i], got[i]
			// An NN search runs no timed bound and no resource sampling:
			// every field of its Stats is a count.
			if w.Err != nil || g.Err != nil {
				t.Fatalf("shards=%d request %d: errors %v (memory), %v (file)", shards, i, w.Err, g.Err)
			}
			if !reflect.DeepEqual(g.NN, w.NN) || len(g.NN) != reqs[i].K {
				t.Errorf("shards=%d request %d (k=%d): file answers\n%+v\nmemory answers\n%+v", shards, i, reqs[i].K, g.NN, w.NN)
			}
			if g.Stats != w.Stats {
				t.Errorf("shards=%d request %d (k=%d): file counts\n%+v\nmemory counts\n%+v", shards, i, reqs[i].K, g.Stats, w.Stats)
			}
			skipped += w.Stats.SkippedLB
		}
		if skipped == 0 {
			t.Errorf("shards=%d: the prefix bound dismissed nothing", shards)
		}
		if err := file.Close(); err != nil {
			t.Fatal(err)
		}
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

// TestHostileInputsOnViewPath pins what the range filter and the NN
// search answer where they read point leaves in place, for inputs at the
// edge of the domain: constant series (std 0, whose normal form is all
// zeros) stored and used as the query, eps = 0, which admits only an
// exact duplicate's normal form, NN with k = 0 and k above the number of
// series, and shards left empty (one series over three). At one and two
// shards, in memory and from a file, the index must answer exactly as
// the sequential scan.
func TestHostileInputsOnViewPath(t *testing.T) {
	const n = 64
	flat := func(level float64) Series {
		s := make(Series, n)
		for i := range s {
			s[i] = level
		}
		return s
	}
	walks := datagen.RandomWalks(43, 250, n)
	ss := append(walks, flat(3), flat(-7), walks[17].Clone())
	const flatA, flatB, twin = 250, 251, 252
	cases := []struct {
		name   string
		ss     []Series
		shards []int
		ids    []int64
	}{
		{"walks and constants", ss, []int{1, 2}, []int64{flatA, flatB, 17, twin, 100}},
		{"empty shards", ss[:1], []int{3}, []int64{0}},
	}
	sets := [][]Transform{MovingAverages(n, 5, 12), {Identity(n)}}
	thresholds := []Threshold{Distance(0), Correlation(0.9), Distance(3)}
	for _, c := range cases {
		for _, shards := range c.shards {
			for _, onFile := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s shards=%d file=%v", c.name, shards, onFile), func(t *testing.T) {
					t.Parallel()
					opts := Options{Shards: shards}
					var db *DB
					var err error
					if onFile {
						db, err = CreateFile(filepath.Join(t.TempDir(), "hostile.tsq"), c.ss, nil, opts)
					} else {
						db, err = Open(c.ss, nil, opts)
					}
					if err != nil {
						t.Fatal(err)
					}
					defer db.Close()
					matched, exact := 0, 0
					for _, id := range c.ids {
						for si, ts := range sets {
							for ti, thr := range thresholds {
								want, _, err := db.RangeByID(id, ts, thr, QueryOptions{Algorithm: SeqScan})
								if err != nil {
									t.Fatal(err)
								}
								got, _, err := db.RangeByID(id, ts, thr, QueryOptions{})
								if err != nil {
									t.Fatal(err)
								}
								SortMatches(want)
								SortMatches(got)
								if !reflect.DeepEqual(got, want) {
									t.Errorf("range by %d, set %d, %v: index %d matches, scan %d", id, si, thr, len(got), len(want))
								}
								matched += len(got)
								if ti == 0 {
									exact += len(got)
								}
							}
							for _, k := range []int{0, 5, len(c.ss) + 10} {
								want, _, err := db.NearestNeighbors(db.Get(id), ts, k, QueryOptions{Algorithm: SeqScan})
								if err != nil {
									t.Fatal(err)
								}
								got, _, err := db.NearestNeighbors(db.Get(id), ts, k, QueryOptions{})
								if err != nil {
									t.Fatal(err)
								}
								if (len(got) > 0 || len(want) > 0) && !reflect.DeepEqual(got, want) {
									t.Errorf("%d-NN of %d, set %d: index %v, scan %v", k, id, si, got, want)
								}
								if k == 0 && len(got) != 0 || k > len(c.ss) && len(got) != len(c.ss) {
									t.Errorf("%d-NN of %d over %d series: %d answers", k, id, len(c.ss), len(got))
								}
							}
						}
					}
					if matched == 0 || len(c.ss) > 1 && exact == 0 {
						t.Errorf("%d range matches, %d at eps 0: the test is vacuous", matched, exact)
					}
				})
			}
		}
	}
}

// TestHostileInputsOnEveryPairShape pins the pair shapes and the raw
// range at the edge of the domain: eps = 0, 1e-12 and one wide enough to
// match every pair, over random walks among which two equal constant
// series sit (their normal forms are the same zeros), and ClosestPairs
// with k = 0, 1 and above the number of pairs. At shards 0..3, in memory
// and from a file, Join (MT and ST) equals the scan, ClosestPairs returns
// the scan's pairs in rank order (distance, then the ids) with the same
// distances, and the
// indexed RawRange equals the raw scan.
func TestHostileInputsOnEveryPairShape(t *testing.T) {
	const n = 64
	flat := make(Series, n)
	for i := range flat {
		flat[i] = 3
	}
	ss := append(datagen.RandomWalks(47, 40, n), flat, flat.Clone())
	pairs := len(ss) * (len(ss) - 1) / 2
	ts := MovingAverages(n, 5, 7)
	epss := []float64{0, 1e-12, 1e3}
	for shards := 0; shards <= 3; shards++ {
		for _, onFile := range []bool{false, true} {
			t.Run(fmt.Sprintf("shards=%d file=%v", shards, onFile), func(t *testing.T) {
				t.Parallel()
				opts := Options{Shards: shards}
				var db *DB
				var err error
				if onFile {
					db, err = CreateFile(filepath.Join(t.TempDir(), "pairs.tsq"), ss, nil, opts)
				} else {
					db, err = Open(ss, nil, opts)
				}
				if err != nil {
					t.Fatal(err)
				}
				defer db.Close()
				for _, eps := range epss {
					want, _, err := db.Join(ts, Distance(eps), QueryOptions{Algorithm: SeqScan})
					if err != nil {
						t.Fatal(err)
					}
					sortJoinMatches(want)
					if eps > 1 && len(want) != pairs*len(ts) || eps == 0 && len(want) == 0 {
						t.Fatalf("eps %v: the scan joins %d of %d pairs: the test is vacuous", eps, len(want), pairs*len(ts))
					}
					for _, alg := range []Algorithm{MTIndex, STIndex} {
						got, _, err := db.Join(ts, Distance(eps), QueryOptions{Algorithm: alg})
						if err != nil {
							t.Fatal(err)
						}
						sortJoinMatches(got)
						if !reflect.DeepEqual(got, want) {
							t.Errorf("join under %v at eps %v: %d matches, scan %d", alg, eps, len(got), len(want))
						}
					}
					for _, q := range []Series{flat, ss[7]} {
						want, _, err := db.RawRange(q, eps, false)
						if err != nil {
							t.Fatal(err)
						}
						got, _, err := db.RawRange(q, eps, true)
						if err != nil {
							t.Fatal(err)
						}
						sort.Slice(got, func(i, j int) bool { return got[i].RecordID < got[j].RecordID })
						sort.Slice(want, func(i, j int) bool { return want[i].RecordID < want[j].RecordID })
						if len(want) == 0 || !reflect.DeepEqual(got, want) {
							t.Errorf("raw range at eps %v: index %v, scan %v", eps, got, want)
						}
					}
				}
				for _, k := range []int{0, 1, pairs + 5} {
					want, _, err := db.ClosestPairs(ts, k, SeqScan)
					if err != nil {
						t.Fatal(err)
					}
					got, _, err := db.ClosestPairs(ts, k, MTIndex)
					if err != nil {
						t.Fatal(err)
					}
					if len(want) != min(k, pairs) || (len(got) > 0 || len(want) > 0) && !reflect.DeepEqual(got, want) {
						t.Errorf("%d closest pairs: index %d pairs, scan %d of %d", k, len(got), len(want), pairs)
					}
					for i := 1; i < len(got); i++ {
						a, b := got[i-1], got[i]
						if a.Distance > b.Distance || a.Distance == b.Distance && (a.IDA > b.IDA || a.IDA == b.IDA && a.IDB >= b.IDB) {
							t.Errorf("%d closest pairs: pair %d %+v ranks after %+v", k, i, got[i], got[i-1])
							break
						}
					}
				}
			})
		}
	}
}

// TestEmptiedDatabaseAnswersEmpty deletes every series of a database, in
// memory and on a file it reopens, at shards 0 and 2: every query shape
// under every algorithm returns no answer and no error, and Explain,
// OptimalPartition, Info and Verify succeed. A database of no series
// cannot be opened or created.
func TestEmptiedDatabaseAnswersEmpty(t *testing.T) {
	const n = 32
	ss := datagen.RandomWalks(53, 30, n)
	q := ss[4]
	ts := MovingAverages(n, 3, 6)
	thr := Correlation(0.9)
	for _, shards := range []int{0, 2} {
		for _, onFile := range []bool{false, true} {
			t.Run(fmt.Sprintf("shards=%d file=%v", shards, onFile), func(t *testing.T) {
				opts := Options{Shards: shards}
				path := filepath.Join(t.TempDir(), "emptied.tsq")
				var db *DB
				var err error
				if onFile {
					db, err = CreateFile(path, ss, nil, opts)
				} else {
					db, err = Open(ss, nil, opts)
				}
				if err != nil {
					t.Fatal(err)
				}
				for id := range ss {
					if err := db.Delete(int64(id)); err != nil {
						t.Fatal(err)
					}
				}
				if onFile {
					if err := db.Close(); err != nil {
						t.Fatal(err)
					}
					if db, err = OpenFile(path); err != nil {
						t.Fatal(err)
					}
				}
				defer db.Close()
				for _, alg := range []Algorithm{Auto, MTIndex, STIndex, SeqScan} {
					if m, _, err := db.Range(q, ts, thr, QueryOptions{Algorithm: alg}); err != nil || len(m) != 0 {
						t.Errorf("range under %v: %v, %v", alg, m, err)
					}
					if m, _, err := db.Range(q, ts, thr, QueryOptions{Algorithm: alg, OneSided: true}); err != nil || len(m) != 0 {
						t.Errorf("one-sided range under %v: %v, %v", alg, m, err)
					}
					if m, _, err := db.NearestNeighbors(q, ts, 3, QueryOptions{Algorithm: alg}); err != nil || len(m) != 0 {
						t.Errorf("NN under %v: %v, %v", alg, m, err)
					}
					if m, _, err := db.Join(ts, thr, QueryOptions{Algorithm: alg}); err != nil || len(m) != 0 {
						t.Errorf("join under %v: %v, %v", alg, m, err)
					}
					if m, _, err := db.ClosestPairs(ts, 3, alg); err != nil || len(m) != 0 {
						t.Errorf("closest pairs under %v: %v, %v", alg, m, err)
					}
					res := db.Batch(context.Background(), []BatchRequest{
						{Query: q, Transforms: ts, Threshold: thr, Opts: QueryOptions{Algorithm: alg}},
						{Query: q, Transforms: ts, K: 2, Opts: QueryOptions{Algorithm: alg}},
					}, 2)
					for i, r := range res {
						if r.Err != nil || len(r.Matches) != 0 || len(r.NN) != 0 {
							t.Errorf("batch request %d under %v: %+v", i, alg, r)
						}
					}
				}
				for _, useIndex := range []bool{false, true} {
					if m, _, err := db.RawRange(q, 1e3, useIndex); err != nil || len(m) != 0 {
						t.Errorf("raw range (index %v): %v, %v", useIndex, m, err)
					}
				}
				if _, err := db.Explain(q, ts, thr); err != nil {
					t.Errorf("explain: %v", err)
				}
				if _, _, err := db.OptimalPartition(q, ts, thr); err != nil {
					t.Errorf("optimal partition: %v", err)
				}
				if _, err := db.Info(); err != nil {
					t.Errorf("info: %v", err)
				}
				if err := db.Verify(); err != nil {
					t.Errorf("verify: %v", err)
				}
			})
		}
	}
	if _, err := Open(nil, nil, Options{}); err == nil {
		t.Error("Open of no series succeeded")
	}
	if _, err := CreateFile(filepath.Join(t.TempDir(), "none.tsq"), nil, nil, Options{}); err == nil {
		t.Error("CreateFile of no series succeeded")
	}
}
