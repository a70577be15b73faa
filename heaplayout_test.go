package tsq

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tsq/internal/core"
	"tsq/internal/datagen"
	"tsq/internal/heapfile"
	"tsq/internal/storage"
)

// TestHeapLayoutIsReported pins every number of the heap report on a
// database packed from 300 series of 128 points and then grown by ten
// inserts, with one packed and one inserted series deleted: the packed
// leaves STR-tiled into 128 verify pages of two or three parts (300 parts
// in 384 places); 300 raw parts of 128 points and a name of up to four
// bytes, three to a page, 100 raw pages; one insert page per inserted
// series, all ten out of leaf order; a directory head and one page of
// entries. DB.IndexHealth and CheckFile report the same, and tsquery
// -check prints it.
func TestHeapLayoutIsReported(t *testing.T) {
	const n = 128
	path := filepath.Join(t.TempDir(), "layout.tsq")
	db, err := CreateFile(path, datagen.RandomWalks(81, 300, n), nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range datagen.RandomWalks(82, 10, n) {
		if _, err := db.Insert(fmt.Sprint("late", i), s); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []int64{17, 305} {
		if err := db.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	hr, err := db.IndexHealth(context.Background(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	h := hr.Heap
	var used int64
	for i := 0; i < 310; i++ {
		name := len(fmt.Sprint("s", i))
		if i >= 300 {
			name = len(fmt.Sprint("late", i-300))
		}
		if i != 17 && i != 305 {
			used += 32 + 16*65 + 8 + 8*n + int64(name)
		}
	}
	want := heapfile.Health{
		Records: 310, Live: 308, Deleted: 2,
		VerifyPages: 128, VerifyFill: 300.0 / 384, RawPages: 100, InsertPages: 10, RecordPages: 0, DirectoryPages: 2,
		OutOfOrder: 10, BytesUsed: used, BytesAllocated: 238 * 4088,
		Utilization: float64(used) / (238 * 4088),
	}
	same := func(h *heapfile.Health) bool {
		if h == nil {
			return false
		}
		g, w := *h, want
		fill, util := g.VerifyFill-w.VerifyFill, g.Utilization-w.Utilization
		g.VerifyFill, g.Utilization, w.VerifyFill, w.Utilization = 0, 0, 0, 0
		return g == w && fill < 1e-12 && fill > -1e-12 && util < 1e-12 && util > -1e-12
	}
	if !same(h) {
		t.Errorf("heap report\n%+v, want\n%+v", *h, want)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err := CheckFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() || !same(rep.Heap) {
		t.Fatalf("check report heap %+v, want %+v\n%s", rep.Heap, want, rep)
	}
	line := "  heap:      310 records (308 live, 2 deleted); 128 verify pages 78.1% full, 100 raw, 10 insert, 0 format-1 record, 2 directory; 10 out of leaf order; 66.7% utilized\n"
	if !strings.Contains(rep.String(), line) {
		t.Errorf("check report does not print the heap layout:\n%s", rep)
	}
}

// TestCorruptSharedVerifyPage flips one byte of a verify page that holds
// three records: every query that fetches one of them fails with the
// checksum error naming the page and all three records, on a page file
// (the storage layer's CRC32C catches it) and paged in memory (the heap
// page's own CRC does); their series, on raw pages, still read, and
// CheckFile names the page and its records.
func TestCorruptSharedVerifyPage(t *testing.T) {
	const n = 128
	ss := datagen.RandomWalks(83, 300, n)
	path := filepath.Join(t.TempDir(), "corrupt.tsq")
	file, err := CreateFile(path, ss, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := file.Close(); err != nil {
		t.Fatal(err)
	}
	ds, err := core.NewDataset(ss, nil)
	if err != nil {
		t.Fatal(err)
	}
	mgr := storage.NewManager(storage.Options{PageSize: storage.DefaultPageSize})
	ix, err := core.BuildIndex(ds, core.IndexOptions{K: 2, UseSymmetry: true, Paged: true, BulkLoad: true, Manager: mgr})
	if err != nil {
		t.Fatal(err)
	}
	mem := &DB{ix: core.WrapIndex(ix)}

	// threeOn returns the first verify page of db that holds three
	// records, and them; kind reads a page's kind byte.
	threeOn := func(db *DB, kind func(storage.PageID) byte) (storage.PageID, []int64) {
		for id := storage.PageID(2); int(id) < db.ix.NumPages(); id++ {
			if recs := db.ix.RecordsOnPage(0, id); len(recs) == 3 && kind(id) == 'V' {
				return id, recs
			}
		}
		t.Fatal("no verify page holds three records")
		return 0, nil
	}
	image, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	file, err = OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const ps = storage.DefaultPageSize
	filePage, fileRecs := threeOn(file, func(id storage.PageID) byte { return image[int(id)*ps] })
	if err := file.Close(); err != nil {
		t.Fatal(err)
	}
	// One flipped byte in the second verify part.
	image[int(filePage)*ps+16+1072+200] ^= 0x20
	if err := os.WriteFile(path, image, 0o644); err != nil {
		t.Fatal(err)
	}
	if file, err = OpenFile(path); err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	buf := make([]byte, mgr.PageSize())
	memPage, memRecs := threeOn(mem, func(id storage.PageID) byte {
		if err := mgr.Read(id, buf); err != nil {
			t.Fatal(err)
		}
		return buf[0]
	})
	if err := mgr.Read(memPage, buf); err != nil {
		t.Fatal(err)
	}
	buf[16+1072+200] ^= 0x20
	if err := mgr.Write(memPage, buf); err != nil {
		t.Fatal(err)
	}
	for _, db := range []struct {
		name string
		db   *DB
		page storage.PageID
		recs []int64
		is   func(error) bool
	}{
		{"page file", file, filePage, fileRecs, func(err error) bool { var ce *storage.ChecksumError; return errors.As(err, &ce) }},
		{"paged in memory", mem, memPage, memRecs, func(err error) bool { return errors.Is(err, heapfile.ErrChecksum) }},
	} {
		recs := db.recs
		named := fmt.Sprintf("heapfile: page %d (records %d, %d, %d)", db.page, recs[0], recs[1], recs[2])
		ts := MovingAverages(n, 10, 25)
		for _, id := range recs {
			_, _, err := db.db.RangeByID(id, ts, Correlation(0.96), QueryOptions{})
			if err == nil || !db.is(err) || !strings.Contains(err.Error(), named) {
				t.Errorf("%s: a query by id %d returned %v, want the checksum error %q", db.name, id, err, named)
			}
			_, _, err = db.db.Range(ss[id], ts, Correlation(0.96), QueryOptions{})
			if err == nil || !db.is(err) || !strings.Contains(err.Error(), named) {
				t.Errorf("%s: a query with record %d a candidate returned %v, want the checksum error", db.name, id, err)
			}
			if EuclideanDistance(db.db.Get(id), ss[id]) != 0 {
				t.Errorf("%s: series %d does not read back", db.name, id)
			}
		}
		if err := db.db.Verify(); err == nil || !strings.Contains(err.Error(), named) {
			t.Errorf("%s: Verify returned %v", db.name, err)
		}
	}
	page, recs := filePage, fileRecs
	rep, err := CheckFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() || rep.BadPageCount != 1 || rep.BadPages[0] != page {
		t.Fatalf("check report:\n%s", rep)
	}
	holds := fmt.Sprintf("page %d holds records %v", page, recs)
	if out := rep.String(); !strings.Contains(out, holds) || !strings.Contains(out, fmt.Sprintf("(records %d, %d, %d)", recs[0], recs[1], recs[2])) {
		t.Errorf("check report does not name the page and its records (%q):\n%s", holds, out)
	}
}
