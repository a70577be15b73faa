package core

import (
	"reflect"
	"testing"

	"tsq/internal/heapfile"
	"tsq/internal/rtree"
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

// TestOpenIndexBatchedLoad: OpenIndex loads the dataset through the
// run-batched fetch. It must fetch exactly the pages the record-at-a-time
// load fetched (one per record, on top of the directory and the tree
// meta page), most of them as the prefetched tail of a run, and rebuild
// the same records, tombstones included.
func TestOpenIndexBatchedLoad(t *testing.T) {
	opts := DefaultIndexOptions()
	opts.Paged = true
	ds, ix := buildFixture(t, 4, 300, 32, opts)
	for _, id := range []int64{0, 63, 64, 299} {
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
	attach := mgr.Stats().Reads

	mgr.ResetStats()
	reopened, err := OpenIndex(mgr, treeMeta, heapDir, ds.N, opts)
	if err != nil {
		t.Fatal(err)
	}
	st := mgr.Stats()
	if got, want := st.Reads+st.Prefetched, attach+int64(len(ds.Records)); got != want {
		t.Errorf("open fetched %d pages (%d reads + %d prefetched), want %d: one per record plus %d to attach", got, st.Reads, st.Prefetched, want, attach)
	}
	if st.Reads >= attach+int64(len(ds.Records))/8 {
		t.Errorf("open made %d backend reads for %d records: the load is not run-batched", st.Reads, len(ds.Records))
	}
	if !reflect.DeepEqual(reopened.Dataset().Records, ds.Records) {
		t.Error("the reopened dataset differs from the one the index was built from")
	}
	if err := reopened.Verify(); err != nil {
		t.Error(err)
	}
}
