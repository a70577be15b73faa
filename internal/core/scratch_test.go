package core

import (
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"tsq/internal/heapfile"
	"tsq/internal/rtree"
	"tsq/internal/storage"
)

// TestScratchDropsLargeBuffers: the free list keeps a scratch only while
// what it holds stays under maxScratchBytes, and never more than
// maxIdleScratch of them, so a burst of large queries leaves a bounded
// amount of memory behind.
func TestScratchDropsLargeBuffers(t *testing.T) {
	_, ix := buildFixture(t, 1, 50, 32, DefaultIndexOptions())
	big := ix.acquireScratch()
	big.matches = make([]Match, 0, maxScratchBytes/24+1)
	ix.releaseScratch(big)
	if len(ix.idleScratch) != 0 {
		t.Fatalf("a scratch of %d bytes was kept (limit %d)", big.bytes(), maxScratchBytes)
	}
	small := ix.acquireScratch()
	small.ids = make([]int64, 0, 100)
	ix.releaseScratch(small)
	if got := ix.acquireScratch(); got != small {
		t.Fatal("a small scratch was not reused")
	}
	var out []*scratch
	for i := 0; i < 3*maxIdleScratch; i++ {
		out = append(out, ix.acquireScratch())
	}
	for _, sc := range out {
		ix.releaseScratch(sc)
	}
	if len(ix.idleScratch) != maxIdleScratch {
		t.Fatalf("%d idle scratches kept, want %d", len(ix.idleScratch), maxIdleScratch)
	}
}

// TestOpenIndexReadsNoRecord: a paged index keeps no record in memory,
// so OpenIndex reads what attaching the heap directory and the tree takes
// and no record page, and the reopened index serves every record from its
// page, tombstones included, exactly as it was built.
func TestOpenIndexReadsNoRecord(t *testing.T) {
	opts := DefaultIndexOptions()
	opts.Paged = true
	ds, ix := buildFixture(t, 4, 300, 32, opts)
	if ix.Dataset() != nil {
		t.Fatal("a paged index keeps its dataset")
	}
	deleted := map[int64]bool{0: true, 63: true, 64: true, 299: true}
	for id := range deleted {
		if err := ix.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	mgr, treeMeta, heapDir := ix.Manager(), ix.Tree().MetaID(), ix.Heap().DirHead()

	mgr.ResetStats()
	if _, err := heapfile.Open(mgr, heapDir, ds.N); err != nil {
		t.Fatal(err)
	}
	if _, err := rtree.Open(mgr, treeMeta); err != nil {
		t.Fatal(err)
	}
	attach := mgr.Stats()

	mgr.ResetStats()
	reopened, err := OpenIndex(mgr, treeMeta, heapDir, ds.N, opts)
	if err != nil {
		t.Fatal(err)
	}
	if st := mgr.Stats(); st != attach {
		t.Errorf("open made %+v page accesses, attaching the directory and the tree %+v", st, attach)
	}
	if reopened.Len() != len(ds.Records) || reopened.SeriesLength() != ds.N {
		t.Fatalf("reopened: Len %d, SeriesLength %d", reopened.Len(), reopened.SeriesLength())
	}
	for _, want := range ds.Records {
		got, err := reopened.Record(want.ID)
		if err != nil {
			t.Fatal(err)
		}
		if deleted[want.ID] {
			if got != nil {
				t.Errorf("deleted record %d read back", want.ID)
			}
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("record %d read back differs from the one built", want.ID)
		}
	}
	if err := reopened.Verify(); err != nil {
		t.Error(err)
	}
}

// BenchmarkOpenIndex reopens a file-backed index of 10 000 series of
// length 128 on the program's page stack (page file, checksums): ns and
// allocations per open, the page accesses an open makes, and the bytes an
// opened index keeps on the heap, its heap directory and tree handle and
// no record.
func BenchmarkOpenIndex(b *testing.B) {
	const count, n = 10000, 128
	path := filepath.Join(b.TempDir(), "ix.pages")
	opts := DefaultIndexOptions()
	stack := func() *storage.Manager {
		fb, err := storage.NewFileBackend(path, storage.DefaultPageSize)
		if err != nil {
			b.Fatal(err)
		}
		cb := storage.NewChecksumBackend(fb, storage.DefaultPageSize)
		opts.PageSize = cb.LogicalPageSize()
		return storage.NewManager(storage.Options{PageSize: opts.PageSize, Backend: cb})
	}
	opts.Manager, opts.Paged, opts.BulkLoad = stack(), true, true
	_, built := buildFixture(b, 75, count, n, opts)
	treeMeta, heapDir := built.Tree().MetaID(), built.Heap().DirHead()
	if err := built.Close(); err != nil {
		b.Fatal(err)
	}
	open := func() *Index {
		ix, err := OpenIndex(stack(), treeMeta, heapDir, n, opts)
		if err != nil {
			b.Fatal(err)
		}
		return ix
	}
	var pages int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix := open()
		st := ix.DiskStats()
		pages += st.Reads + st.Prefetched + st.Hits
		if err := ix.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	// The live heap, after enough collections to empty the sync.Pool
	// caches the runtime and the test framework keep.
	heap := func() int64 {
		var m runtime.MemStats
		for range 3 {
			runtime.GC()
		}
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	before := heap()
	ix := open()
	kept := heap() - before
	if err := ix.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(pages)/float64(b.N), "pages/op")
	b.ReportMetric(float64(kept), "retainedB/op")
}
