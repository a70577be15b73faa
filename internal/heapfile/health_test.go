package heapfile

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"tsq/internal/storage"
)

// TestComputeHealth checks liveness tallies, page kinds and space
// accounting against a heap packed and then grown by appends, with
// deletions in both.
func TestComputeHealth(t *testing.T) {
	const n = 128
	mgr := storage.NewManager(storage.Options{PageSize: 4096})
	f, err := Create(mgr, n)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	const packed, appended = 30, 20
	var recs []*Rec
	var groups [][]int
	for i := 0; i < packed; i++ {
		recs = append(recs, randRec(rng, n, fmt.Sprintf("s%02d", i)))
		if i%3 == 0 && i < 27 {
			groups = append(groups, nil)
		}
		if i >= 27 {
			groups = append(groups, nil) // three pages of one
		}
		groups[len(groups)-1] = append(groups[len(groups)-1], i)
	}
	if err := f.Pack(recs, groups); err != nil {
		t.Fatal(err)
	}
	for i := packed; i < packed+appended; i++ {
		if _, err := f.Append(randRec(rng, n, fmt.Sprintf("s%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	var wantBytes int64
	for i := 0; i < packed+appended; i++ {
		wantBytes += int64(verifySize(n) + rawSize(n, 3))
	}
	for _, rec := range []int64{3, 17, 41} {
		if err := f.Delete(rec); err != nil {
			t.Fatal(err)
		}
		wantBytes -= int64(verifySize(n) + rawSize(n, 3))
	}
	h, err := f.ComputeHealth(nil)
	if err != nil {
		t.Fatal(err)
	}
	const total = packed + appended
	// 30 raw parts of 1 035 bytes, three to a 4 088-byte page: 10 pages.
	if h.Records != total || h.Live != total-3 || h.Deleted != 3 {
		t.Errorf("liveness = %+v, want records=%d live=%d deleted=3", h, total, total-3)
	}
	if h.VerifyPages != 12 || h.RawPages != 10 || h.InsertPages != appended || h.RecordPages != 0 || h.DirectoryPages != len(f.dirPages) {
		t.Errorf("pages = %+v, want 12 verify, 10 raw, %d insert", h, appended)
	}
	if want := (9*1.0 + 3*(1.0/3)) / 12; math.Abs(h.VerifyFill-want) > 1e-12 {
		t.Errorf("verify fill = %v, want %v", h.VerifyFill, want)
	}
	if h.OutOfOrder != appended {
		t.Errorf("out of order = %d, want the %d appended", h.OutOfOrder, appended)
	}
	if h.BytesUsed != wantBytes {
		t.Errorf("bytes used = %d, want %d", h.BytesUsed, wantBytes)
	}
	if pages := int64(12 + 10 + appended); h.BytesAllocated != pages*4096 || h.Utilization != float64(wantBytes)/float64(pages*4096) {
		t.Errorf("bytes allocated = %d, utilization %v", h.BytesAllocated, h.Utilization)
	}
	old := createFormat1(t, mgr, n, recs[:4])
	if h, err := old.ComputeHealth(nil); err != nil || h.RecordPages != 4 || h.OutOfOrder != 4 || h.Live != 4 {
		t.Errorf("format-1 heap health %+v, %v", h, err)
	}
}

// TestComputeHealthEmpty checks the fresh heap.
func TestComputeHealthEmpty(t *testing.T) {
	mgr := storage.NewManager(storage.Options{PageSize: 1024})
	f, err := Create(mgr, 16)
	if err != nil {
		t.Fatal(err)
	}
	h, err := f.ComputeHealth(nil)
	if err != nil {
		t.Fatal(err)
	}
	if h.Records != 0 || h.Live != 0 || h.Utilization != 0 || h.DirectoryPages != 1 {
		t.Errorf("empty heap health = %+v", h)
	}
}
