package tsq

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"tsq/internal/datagen"
)

func TestCreateOpenFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "market.tsq")
	ss := datagen.StockMarket(55, 200, 64, datagen.DefaultMarketOptions())
	names := make([]string, len(ss))
	for i := range names {
		names[i] = "s" + string(rune('A'+i%26)) + string(rune('0'+i%10))
	}
	db, err := CreateFile(path, ss, names, Options{PageSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	ts := MovingAverages(64, 5, 15)
	thr := Correlation(0.92)
	q := db.Get(7)
	want, _, err := db.Range(q, ts, thr, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != 200 || re.SeriesLength() != 64 {
		t.Fatalf("reopened: len=%d n=%d", re.Len(), re.SeriesLength())
	}
	if re.Name(7) != names[7] {
		t.Errorf("name lost: %q vs %q", re.Name(7), names[7])
	}
	if EuclideanDistance(re.Get(7), ss[7]) != 0 {
		t.Error("raw series corrupted across reopen")
	}
	got, _, err := re.Range(q, ts, thr, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("reopened query: %d matches, want %d", len(got), len(want))
	}
	// And seqscan agrees with the reopened index.
	seq, _, err := re.Range(q, ts, thr, QueryOptions{Algorithm: SeqScan})
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(got) {
		t.Fatalf("reopened MT %d vs seqscan %d", len(got), len(seq))
	}
}

func TestPagedVerificationCountsRecordFetches(t *testing.T) {
	path := filepath.Join(t.TempDir(), "paged.tsq")
	ss := datagen.RandomWalks(9, 300, 64)
	db, err := CreateFile(path, ss, nil, Options{PageSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.ResetDiskStats()
	_, st, err := db.Range(db.Get(0), MovingAverages(64, 5, 15), Correlation(0.9), QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Candidates == 0 {
		t.Fatal("no candidates; test is vacuous")
	}
	// Every candidate verification fetched a record page through the
	// storage manager: total backend I/O (reads plus readahead-prefetched
	// pages plus buffer hits — a contiguous run of k cold pages counts as
	// 1 read + k-1 prefetched) covers node accesses plus candidate
	// fetches.
	io := db.DiskStats()
	total := int(io.Reads + io.Prefetched + io.Hits)
	if total < st.DAAll+st.Candidates {
		t.Errorf("backend I/O %d (%d reads + %d prefetched + %d hits) < node accesses %d + candidates %d",
			total, io.Reads, io.Prefetched, io.Hits, st.DAAll, st.Candidates)
	}
}

func TestInsertDeleteLifecycle(t *testing.T) {
	path := filepath.Join(t.TempDir(), "life.tsq")
	ss := datagen.RandomWalks(10, 50, 32)
	db, err := CreateFile(path, ss, nil, Options{PageSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	ts := MovingAverages(32, 2, 6)
	thr := Distance(1e9) // everything matches: checks membership exactly

	// Insert a new series; it becomes queryable.
	extra := datagen.RandomWalks(77, 1, 32)[0]
	id, err := db.Insert("extra", extra)
	if err != nil {
		t.Fatal(err)
	}
	if id != 50 || db.Len() != 51 {
		t.Fatalf("id=%d len=%d", id, db.Len())
	}
	found := func(db *DB, want int64) bool {
		ms, _, err := db.Range(db.Get(0), ts, thr, QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range ms {
			if m.RecordID == want {
				return true
			}
		}
		return false
	}
	if !found(db, id) {
		t.Error("inserted series not returned by a catch-all query")
	}

	// Delete it; it disappears from index and scans.
	if err := db.Delete(id); err != nil {
		t.Fatal(err)
	}
	if found(db, id) {
		t.Error("deleted series still returned by MT query")
	}
	seq, _, _ := db.Range(db.Get(0), ts, thr, QueryOptions{Algorithm: SeqScan})
	for _, m := range seq {
		if m.RecordID == id {
			t.Error("deleted series still returned by seqscan")
		}
	}
	if db.Get(id) != nil {
		t.Error("deleted series still accessible")
	}
	if err := db.Delete(id); err == nil {
		t.Error("double delete succeeded")
	}

	// Both survive a reopen.
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != 51 {
		t.Fatalf("reopened len = %d (ids stay allocated)", re.Len())
	}
	if re.Get(id) != nil {
		t.Error("tombstone not persisted")
	}
	if found(re, id) {
		t.Error("deleted series resurfaced after reopen")
	}
	if !found(re, 49) {
		t.Error("live series lost after reopen")
	}
}

// TestInMemoryInsertDelete: inserts and deletes on an in-memory database,
// and, row by row, a file-backed database of the same content, which
// keeps no record in memory and reads each one from its page: every
// accessor and query answer, live, deleted, out-of-range and negative
// ids alike, must be the in-memory database's, before and after a
// reopen, at one and two shards.
func TestInMemoryInsertDelete(t *testing.T) {
	const n = 32
	flat := make(Series, n) // std 0: its normal form is all zeros
	for i := range flat {
		flat[i] = 7
	}
	rows := []struct {
		name   string
		shards int
		ss     []Series
		insert bool
		del    int64 // deleted twice; -1 for none
	}{
		{"one shard", 1, append(datagen.RandomWalks(30, 40, n), flat), true, 3},
		{"two shards", 2, append(datagen.RandomWalks(30, 40, n), flat), true, 3},
		// One series over two shards leaves one shard empty.
		{"two shards, one empty", 2, datagen.RandomWalks(30, 1, n), false, -1},
	}
	extra := datagen.RandomWalks(31, 1, n)[0]
	ts := MovingAverages(n, 2, 4)
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			mem, err := Open(row.ss, nil, Options{Shards: row.shards})
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "db.tsq")
			file, err := CreateFile(path, row.ss, nil, Options{Shards: row.shards})
			if err != nil {
				t.Fatal(err)
			}
			var delErr [2]string
			for i, db := range []*DB{mem, file} {
				if row.insert {
					if id, err := db.Insert("new", extra); err != nil || id != int64(len(row.ss)) {
						t.Fatalf("insert: %v %v", id, err)
					}
				}
				if _, err := db.Insert("short", make(Series, 5)); err == nil {
					t.Error("wrong-length insert accepted")
				}
				if row.del < 0 {
					continue
				}
				if err := db.Delete(row.del); err != nil {
					t.Fatal(err)
				}
				err := db.Delete(row.del)
				if err == nil {
					t.Fatal("double delete succeeded")
				}
				delErr[i] = err.Error()
				ms, _, err := db.Range(db.Get(0), ts, Distance(1e9), QueryOptions{})
				if err != nil {
					t.Fatal(err)
				}
				for _, m := range ms {
					if m.RecordID == row.del {
						t.Error("deleted record matched")
					}
				}
			}
			if delErr[1] != delErr[0] {
				t.Errorf("double delete: file %q, in memory %q", delErr[1], delErr[0])
			}
			if len(row.ss) > 1 {
				if norm := file.NormalForm(int64(len(row.ss) - 1)); len(norm) != n || !allZeros(norm) {
					t.Errorf("constant series read back with normal form %v", norm)
				}
			}
			sameAsInMemory(t, "created", mem, file, ts)
			if err := file.Close(); err != nil {
				t.Fatal(err)
			}
			re, err := OpenFile(path)
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			sameAsInMemory(t, "reopened", mem, re, ts)
			if err := re.Verify(); err != nil {
				t.Error(err)
			}
		})
	}
}

// sameAsInMemory holds a file-backed database to the in-memory one it
// was built alike with: Len, Info().Series, Name, Get and NormalForm of
// every id from -1 to Len (bit for bit), RangeByID at a threshold and at
// eps = 0, by index and by scan, and NearestNeighbors at k = 0, 5 and
// beyond Len. A sequential scan's statistics are equal too; an index's
// are not compared, since a page file's pages are smaller than memory
// pages by their checksum trailer and the trees differ in shape.
func sameAsInMemory(t *testing.T, label string, mem, file *DB, ts []Transform) {
	t.Helper()
	if file.Len() != mem.Len() {
		t.Fatalf("%s: Len %d, in memory %d", label, file.Len(), mem.Len())
	}
	fi, ferr := file.Info()
	mi, merr := mem.Info()
	if ferr != nil || merr != nil || fi.Series != mi.Series {
		t.Errorf("%s: Info().Series %d (%v), in memory %d (%v)", label, fi.Series, ferr, mi.Series, merr)
	}
	errText := func(err error) string {
		if err == nil {
			return ""
		}
		return err.Error()
	}
	for id := int64(-1); id <= int64(mem.Len()); id++ {
		if f, m := file.Name(id), mem.Name(id); f != m {
			t.Errorf("%s: Name(%d) = %q, in memory %q", label, id, f, m)
		}
		if f, m := file.Get(id), mem.Get(id); !sameBits(f, m) {
			t.Errorf("%s: Get(%d) = %v, in memory %v", label, id, f, m)
		}
		if f, m := file.NormalForm(id), mem.NormalForm(id); !sameBits(f, m) {
			t.Errorf("%s: NormalForm(%d) = %v, in memory %v", label, id, f, m)
		}
		for _, thr := range []Threshold{Correlation(0.9), Distance(0)} {
			for _, alg := range []Algorithm{MTIndex, SeqScan} {
				opts := QueryOptions{Algorithm: alg}
				fm, fst, ferr := file.RangeByID(id, ts, thr, opts)
				mm, mst, merr := mem.RangeByID(id, ts, thr, opts)
				SortMatches(fm)
				SortMatches(mm)
				if errText(ferr) != errText(merr) || !reflect.DeepEqual(fm, mm) || (alg == SeqScan && fst != mst) {
					t.Errorf("%s: RangeByID(%d, %v, %v) = %v %+v %v, in memory %v %+v %v", label, id, thr, alg, fm, fst, ferr, mm, mst, merr)
				}
			}
		}
	}
	q := datagen.RandomWalks(32, 1, mem.SeriesLength())[0]
	for _, k := range []int{0, 5, mem.Len() + 5} {
		for _, alg := range []Algorithm{MTIndex, SeqScan} {
			opts := QueryOptions{Algorithm: alg}
			fn, fst, ferr := file.NearestNeighbors(q, ts, k, opts)
			mn, mst, merr := mem.NearestNeighbors(q, ts, k, opts)
			if ferr != nil || merr != nil || !reflect.DeepEqual(fn, mn) || (alg == SeqScan && fst != mst) {
				t.Errorf("%s: NearestNeighbors(k=%d, %v) = %v %+v %v, in memory %v %+v %v", label, k, alg, fn, fst, ferr, mn, mst, merr)
			}
		}
	}
}

// sameBits reports whether two series hold the same float64 bits.
func sameBits(a, b Series) bool {
	if len(a) != len(b) || (a == nil) != (b == nil) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func allZeros(s Series) bool {
	for _, v := range s {
		if v != 0 {
			return false
		}
	}
	return true
}

func TestOpenFileErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := OpenFile(filepath.Join(dir, "missing.tsq")); err == nil {
		t.Error("missing file opened")
	}
	// A non-database file is rejected by magic.
	bogus := filepath.Join(dir, "bogus.tsq")
	if err := writeRawHeaderBogus(bogus); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFile(bogus); err == nil {
		t.Error("bogus file opened")
	}
}

func writeRawHeaderBogus(path string) error {
	data := make([]byte, 64)
	copy(data, "NOPE")
	return os.WriteFile(path, data, 0o644)
}

func TestJoinAndNNOnPagedDB(t *testing.T) {
	path := filepath.Join(t.TempDir(), "join.tsq")
	ss := datagen.StockMarket(66, 120, 64, datagen.DefaultMarketOptions())
	db, err := CreateFile(path, ss, nil, Options{PageSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ts := MovingAverages(64, 5, 10)
	seqJ, _, err := db.Join(ts, Correlation(0.9), QueryOptions{Algorithm: SeqScan})
	if err != nil {
		t.Fatal(err)
	}
	mtJ, _, err := db.Join(ts, Correlation(0.9), QueryOptions{Algorithm: MTIndex})
	if err != nil {
		t.Fatal(err)
	}
	if len(seqJ) != len(mtJ) {
		t.Fatalf("paged join: %d vs %d", len(mtJ), len(seqJ))
	}
	nnSeq, _, err := db.NearestNeighbors(db.Get(2), ts, 3, QueryOptions{Algorithm: SeqScan})
	if err != nil {
		t.Fatal(err)
	}
	nnMT, _, err := db.NearestNeighbors(db.Get(2), ts, 3, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range nnSeq {
		if math.Abs(nnSeq[i].Distance-nnMT[i].Distance) > 1e-9 {
			t.Fatalf("paged NN rank %d: %v vs %v", i, nnMT[i].Distance, nnSeq[i].Distance)
		}
	}
}

func TestInsertAfterReopenDoesNotCorrupt(t *testing.T) {
	// Regression: a reopened manager must resume page allocation after
	// the existing file contents, or inserts overwrite live pages.
	path := filepath.Join(t.TempDir(), "grow.tsq")
	ss := datagen.RandomWalks(11, 60, 32)
	db, err := CreateFile(path, ss, nil, Options{PageSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	extra := datagen.RandomWalks(12, 10, 32)
	for i, s := range extra {
		if _, err := re.Insert(fmt.Sprintf("late%d", i), s); err != nil {
			t.Fatal(err)
		}
	}
	if err := re.Verify(); err != nil {
		t.Fatalf("integrity after post-reopen inserts: %v", err)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	// And again across a second reopen.
	re2, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re2.Close()
	if re2.Len() != 70 {
		t.Fatalf("len after second reopen = %d, want 70", re2.Len())
	}
	if err := re2.Verify(); err != nil {
		t.Fatalf("integrity after second reopen: %v", err)
	}
	// Old and new records both intact.
	if EuclideanDistance(re2.Get(0), ss[0]) != 0 {
		t.Error("original record corrupted")
	}
	if EuclideanDistance(re2.Get(65), extra[5]) != 0 {
		t.Error("inserted record corrupted")
	}
}

func TestVerifyDetectsCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "corrupt.tsq")
	ss := datagen.RandomWalks(13, 40, 32)
	db, err := CreateFile(path, ss, nil, Options{PageSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Verify(); err != nil {
		t.Fatalf("fresh database failed verification: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip bytes in the middle of the file (record/node territory).
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	st, _ := f.Stat()
	if _, err := f.WriteAt([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}, st.Size()/2); err != nil {
		t.Fatal(err)
	}
	f.Close()
	re, err := OpenFile(path)
	if err != nil {
		return // corruption surfaced at open: also acceptable
	}
	defer re.Close()
	if err := re.Verify(); err == nil {
		t.Error("verification passed on a corrupted file")
	}
}

// TestDeleteNeverShrinksTheFile is the regression test for
// FileBackend.Grow truncating the page file when the allocator hands
// out a recycled page: R*-tree underflow frees pages, the next
// allocation reuses one from the middle of the file, and growing "to"
// that page used to cut off every page behind it.
func TestDeleteNeverShrinksTheFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shrink.tsq")
	ss := datagen.RandomWalks(21, 1200, 32)
	db, err := CreateFile(path, ss, nil, Options{PageSize: 1024})
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
	fileSize := func() int64 {
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return st.Size()
	}
	size := fileSize()
	order := rand.New(rand.NewSource(5)).Perm(len(ss))
	deleted := make(map[int64]bool)
	for _, id := range order[:len(ss)/2] {
		if err := db.Delete(int64(id)); err != nil {
			t.Fatalf("delete %d of %d (id %d): %v", len(deleted)+1, len(ss)/2, id, err)
		}
		deleted[int64(id)] = true
		if now := fileSize(); now < size {
			t.Fatalf("file shrank from %d to %d bytes at delete %d", size, now, len(deleted))
		} else {
			size = now
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := CheckFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !r.OK() {
		t.Fatalf("file damaged after deletes:\n%s", r)
	}

	re, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	ts := MovingAverages(32, 3, 8)
	thr := Correlation(0.8)
	q := int64(order[len(ss)-1]) // a survivor
	got, _, err := re.RangeByID(q, ts, thr, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := re.RangeByID(q, ts, thr, QueryOptions{Algorithm: SeqScan})
	if err != nil {
		t.Fatal(err)
	}
	SortMatches(got)
	SortMatches(want)
	if len(want) < 2 {
		t.Fatalf("only %d matches; the comparison is vacuous", len(want))
	}
	if len(got) != len(want) {
		t.Fatalf("index %d matches, sequential scan %d", len(got), len(want))
	}
	for i := range got {
		if got[i].RecordID != want[i].RecordID || got[i].TransformIdx != want[i].TransformIdx {
			t.Fatalf("match %d: index %+v, sequential scan %+v", i, got[i], want[i])
		}
		if deleted[got[i].RecordID] {
			t.Fatalf("deleted series %d answered", got[i].RecordID)
		}
	}
}

// TestCreateOverLargerDatabase: creating a database where a larger one
// lies must not keep the old file's pages. With a different page size
// the stale pages fail their checksums; with the same one they would
// survive past the new end and allocation would resume after them.
func TestCreateOverLargerDatabase(t *testing.T) {
	for _, shards := range []int{1, 2} {
		dir := t.TempDir()
		path := filepath.Join(dir, "re.tsq")
		fresh := filepath.Join(dir, "fresh.tsq")
		big, err := CreateFile(path, datagen.RandomWalks(3, 600, 64), nil, Options{PageSize: 4096, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		if err := big.Close(); err != nil {
			t.Fatal(err)
		}
		small := datagen.RandomWalks(4, 50, 64)
		for _, p := range []string{path, fresh} {
			db, err := CreateFile(p, small, nil, Options{PageSize: 2048, Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
		}
		r, err := CheckFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !r.OK() {
			t.Fatalf("shards=%d: database created over a larger one is corrupt:\n%s", shards, r)
		}
		files := []string{"re.tsq", "fresh.tsq"}
		if shards > 1 {
			files = []string{shardPath("re.tsq", 0), shardPath("fresh.tsq", 0), shardPath("re.tsq", 1), shardPath("fresh.tsq", 1)}
		}
		for i := 0; i < len(files); i += 2 {
			got, err := os.Stat(filepath.Join(dir, files[i]))
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.Stat(filepath.Join(dir, files[i+1]))
			if err != nil {
				t.Fatal(err)
			}
			if got.Size() != want.Size() {
				t.Errorf("shards=%d: %s is %d bytes, a fresh create is %d", shards, files[i], got.Size(), want.Size())
			}
		}
	}
}

// liveHeap returns the smallest of three readings of the live heap, each
// taken right after a collection.
func liveHeap() int64 {
	least := int64(math.MaxInt64)
	for i := 0; i < 3; i++ {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		least = min(least, int64(m.HeapAlloc))
	}
	return least
}

// TestFileBackedDBHoldsNoRecords: a file-backed database keeps each
// record once, on its page. What it holds in memory after CreateFile,
// and again after Close and OpenFile, is its heap directory, its tree
// and its query scratch, not its records: under 512 B per series against
// the about 4 KB an in-memory database keeps on purpose, where the
// record (raw series, normal form, magnitudes, phases) is the only copy.
func TestFileBackedDBHoldsNoRecords(t *testing.T) {
	const count, n, perSeries = 4000, 128, 512
	ss := datagen.RandomWalks(41, count, n)
	for _, shards := range []int{1, 2} {
		path := filepath.Join(t.TempDir(), "db.tsq")
		base := liveHeap()
		db, err := CreateFile(path, ss, nil, Options{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		got := (liveHeap() - base) / count
		t.Logf("shards=%d: CreateFile keeps %d B per series", shards, got)
		if got >= perSeries {
			t.Errorf("shards=%d: CreateFile keeps %d B per series", shards, got)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		if db, err = OpenFile(path); err != nil {
			t.Fatal(err)
		}
		got = (liveHeap() - base) / count
		t.Logf("shards=%d: OpenFile keeps %d B per series", shards, got)
		if got >= perSeries {
			t.Errorf("shards=%d: OpenFile keeps %d B per series", shards, got)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}

		base = liveHeap()
		mem, err := Open(ss, nil, Options{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		got = (liveHeap() - base) / count
		t.Logf("shards=%d: Open keeps %d B per series", shards, got)
		if got < 3*n*8 {
			t.Errorf("shards=%d: an in-memory database keeps %d B per series, less than its records", shards, got)
		}
		runtime.KeepAlive(mem)
	}
}

// TestOpenFileReadsNoRecordPage: opening a file-backed database reads its
// superblock, its heap directory and its tree's meta page, and no record:
// the page accesses of the open do not grow with the series count beyond
// the directory's pages.
func TestOpenFileReadsNoRecordPage(t *testing.T) {
	const n = 64
	// A directory page of a checksummed 4 KiB page file lists
	// (4096-8-12)/4 record pages.
	const perDirPage = (4096 - 8 - 12) / 4
	for _, count := range []int{2000, 4000} {
		path := filepath.Join(t.TempDir(), "db.tsq")
		db, err := CreateFile(path, datagen.RandomWalks(43, count, n), nil, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		re, err := OpenFile(path)
		if err != nil {
			t.Fatal(err)
		}
		io := re.DiskStats()
		dirPages := int64((count + perDirPage - 1) / perDirPage)
		if got := io.Reads + io.Prefetched + io.Hits; got > dirPages+3 {
			t.Errorf("%d series: open made %d page accesses (%+v), want at most %d directory pages + 3", count, got, io, dirPages)
		}
		if re.Len() != count {
			t.Errorf("reopened Len %d, want %d", re.Len(), count)
		}
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFileSeqScanStreamsHeap: a sequential scan of a file-backed database
// reads the file. Range (at one and four workers), nearest-neighbor, raw
// range, join and closest-pairs scans return the in-memory scans' answers
// and statistics; the range scan reads every record page exactly once and
// leaves the live heap within one run buffer of where it found it.
func TestFileSeqScanStreamsHeap(t *testing.T) {
	const count, n = 300, 64
	ss := datagen.RandomWalks(45, count, n)
	mem, err := Open(ss, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	file, err := CreateFile(filepath.Join(t.TempDir(), "db.tsq"), ss, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	for _, db := range []*DB{mem, file} {
		if err := db.Delete(7); err != nil {
			t.Fatal(err)
		}
	}
	ts := MovingAverages(n, 4, 8)
	thr := Correlation(0.9)
	q := datagen.RandomWalks(46, 1, n)[0]
	seq := QueryOptions{Algorithm: SeqScan}
	check := func(what string, f, m any, fst, mst Stats, ferr, merr error) {
		t.Helper()
		if ferr != nil || merr != nil || !reflect.DeepEqual(f, m) || fst != mst {
			t.Errorf("%s: file %v %+v %v, in memory %v %+v %v", what, f, fst, ferr, m, mst, merr)
		}
	}
	// A run buffer holds scanChunk record pages.
	const runBuffer = 64 * 4096
	for _, workers := range []int{1, 4} {
		opts := QueryOptions{Algorithm: SeqScan, Workers: workers}
		file.ResetDiskStats()
		before := liveHeap()
		fm, fst, ferr := file.Range(q, ts, thr, opts)
		if grown := liveHeap() - before; grown > runBuffer {
			t.Errorf("workers=%d: the scan left %d bytes on the heap", workers, grown)
		}
		io := file.DiskStats()
		if got := io.Reads + io.Prefetched + io.Hits; got != count || io.Reads >= count/8 {
			t.Errorf("workers=%d: the scan made %d page accesses (%+v) for %d record pages, not in runs", workers, got, io, count)
		}
		mm, mst, merr := mem.Range(q, ts, thr, opts)
		check(fmt.Sprintf("range, %d workers", workers), fm, mm, fst, mst, ferr, merr)
	}
	fn, fst, ferr := file.NearestNeighbors(q, ts, 5, seq)
	mn, mst, merr := mem.NearestNeighbors(q, ts, 5, seq)
	check("nearest neighbors", fn, mn, fst, mst, ferr, merr)
	fr, fst, ferr := file.RawRange(q, 30, false)
	mr, mst, merr := mem.RawRange(q, 30, false)
	check("raw range", fr, mr, fst, mst, ferr, merr)
	fj, fst, ferr := file.Join(ts, thr, seq)
	mj, mst, merr := mem.Join(ts, thr, seq)
	check("join", fj, mj, fst, mst, ferr, merr)
	fp, fst, ferr := file.ClosestPairs(ts, 5, SeqScan)
	mp, mst, merr := mem.ClosestPairs(ts, 5, SeqScan)
	check("closest pairs", fp, mp, fst, mst, ferr, merr)
}
