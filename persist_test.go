package tsq

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
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

func TestInMemoryInsertDelete(t *testing.T) {
	db := openTestDB(t, 30, 40, 32)
	id, err := db.Insert("new", datagen.RandomWalks(31, 1, 32)[0])
	if err != nil || id != 40 {
		t.Fatalf("insert: %v %v", id, err)
	}
	if err := db.Delete(3); err != nil {
		t.Fatal(err)
	}
	ms, _, err := db.Range(db.Get(0), MovingAverages(32, 2, 4), Distance(1e9), QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range ms {
		if m.RecordID == 3 {
			t.Error("deleted record matched")
		}
	}
	if _, err := db.Insert("short", make(Series, 5)); err == nil {
		t.Error("wrong-length insert accepted")
	}
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
