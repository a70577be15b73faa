package heapfile

import (
	"fmt"
	"math/rand"
	"testing"

	"tsq/internal/storage"
)

func buildHeap(t testing.TB, count, n int) (*storage.Manager, *File) {
	t.Helper()
	mgr := storage.NewManager(storage.Options{PageSize: 1024})
	f, err := Create(mgr, n)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < count; i++ {
		if _, err := f.Append(randRec(rng, n, fmt.Sprintf("r%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	return mgr, f
}

// readVerify returns record rec's verify part as a Rec, read alone
// through a fresh scratch, nil when deleted.
func readVerify(f *File, rec int64) (*Rec, error) {
	var out *Rec
	err := f.Visit(nil, []int64{rec}, new(Scratch), func(_ int, v *View) error {
		if v != nil {
			out = &Rec{Mean: v.Mean, Std: v.Std, Mags: append([]float64(nil), v.Mags...), Phases: append([]float64(nil), v.Phases...)}
		}
		return nil
	})
	return out, err
}

// checkVisitMatchesRead visits ids through s, both parts, and compares
// every view, while it is valid, with the record the id reads alone;
// every position of ids must be visited exactly once, in page order.
func checkVisitMatchesRead(t *testing.T, f *File, s *Scratch, ids []int64) {
	t.Helper()
	seen := make([]int, len(ids))
	lastPage := storage.NilPage
	err := f.Visit(nil, ids, s, func(i int, v *View) error {
		seen[i]++
		if page := f.verify[ids[i]]; page < lastPage {
			t.Errorf("visit of ids[%d]=%d goes back from page %d to %d", i, ids[i], lastPage, page)
		} else {
			lastPage = page
		}
		want, err := readVerify(f, ids[i])
		if err != nil {
			return err
		}
		if want == nil {
			if v != nil {
				t.Errorf("ids[%d]=%d: a deleted record visited live", i, ids[i])
			}
		} else if !viewIsRec(v, want) {
			t.Errorf("ids[%d]=%d: visited verify part differs from the one read alone", i, ids[i])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range seen {
		if n != 1 {
			t.Errorf("ids[%d]=%d visited %d times", i, ids[i], n)
		}
	}
	clear(seen)
	err = f.VisitRaw(nil, ids, s, func(i int, v *RawView) error {
		seen[i]++
		want, err := f.Read(ids[i])
		if err != nil {
			return err
		}
		if (v == nil) != (want == nil) || v != nil && !recsEqual(&Rec{Name: string(v.Name), Raw: v.Raw}, want) {
			t.Errorf("ids[%d]=%d: visited raw part differs from Read", i, ids[i])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range seen {
		if n != 1 {
			t.Errorf("ids[%d]=%d raw part visited %d times", i, ids[i], n)
		}
	}
}

// TestFetchBatchParity: FetchBatch and Visit return exactly what
// record-at-a-time Read returns, parallel to the requested ids —
// including duplicates, reversed order, and tombstoned records (nil).
func TestFetchBatchParity(t *testing.T) {
	mgr, f := buildHeap(t, 60, 16)
	defer mgr.Close()
	for _, rec := range []int64{3, 17, 44} {
		if err := f.Delete(rec); err != nil {
			t.Fatal(err)
		}
	}
	ids := []int64{59, 3, 0, 17, 17, 58, 1, 44, 0, 30, 29, 28, 31}
	got, err := f.FetchBatch(nil, ids)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ids) {
		t.Fatalf("batch returned %d records for %d ids", len(got), len(ids))
	}
	for i, id := range ids {
		want, err := f.Read(id)
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case want == nil && got[i] == nil:
		case want == nil || got[i] == nil:
			t.Errorf("ids[%d]=%d: batch nil=%v, read nil=%v", i, id, got[i] == nil, want == nil)
		case !recsEqual(got[i], want):
			t.Errorf("ids[%d]=%d: batch record differs from Read", i, id)
		}
	}
	// One scratch serves fetch after fetch, whatever it held before.
	var s Scratch
	checkVisitMatchesRead(t, f, &s, ids)
	checkVisitMatchesRead(t, f, &s, []int64{17})
	checkVisitMatchesRead(t, f, &s, ids[3:9])
	// Empty batch.
	if out, err := f.FetchBatch(nil, nil); err != nil || len(out) != 0 {
		t.Errorf("empty batch: out=%v err=%v", out, err)
	}
	checkVisitMatchesRead(t, f, &s, nil)
}

// TestFetchBatchOutOfRange: any invalid id fails the whole batch before
// any I/O.
func TestFetchBatchOutOfRange(t *testing.T) {
	mgr, f := buildHeap(t, 5, 8)
	defer mgr.Close()
	for _, ids := range [][]int64{{-1}, {5}, {0, 99, 1}} {
		if _, err := f.FetchBatch(nil, ids); err == nil {
			t.Errorf("FetchBatch(%v) succeeded", ids)
		}
	}
}

// TestFetchBatchRunIO: a batch over consecutively appended records is
// read in runs of maxRun pages — one backend Read each, the rest
// Prefetched — while the same ids
// fetched one at a time cost one Read each.
func TestFetchBatchRunIO(t *testing.T) {
	mgr, f := buildHeap(t, 32, 16)
	defer mgr.Close()
	ids := make([]int64, 32)
	for i := range ids {
		ids[i] = int64(31 - i) // descending: the batch must still sort into runs
	}
	mgr.ResetStats()
	if _, err := f.FetchBatch(nil, ids); err != nil {
		t.Fatal(err)
	}
	st := mgr.Stats()
	if runs := int64(32+maxRun-1) / maxRun; st.Reads != runs || st.Prefetched != 32-runs {
		t.Errorf("batch: reads=%d prefetched=%d, want %d/%d", st.Reads, st.Prefetched, runs, 32-runs)
	}
	mgr.ResetStats()
	for _, id := range ids {
		if _, err := f.Read(id); err != nil {
			t.Fatal(err)
		}
	}
	st = mgr.Stats()
	if st.Reads != 32 || st.Prefetched != 0 {
		t.Errorf("record-at-a-time: reads=%d prefetched=%d, want 32/0", st.Reads, st.Prefetched)
	}
}

// TestFetchBatchDuplicatePagesReadOnce: repeated ids do not re-read their
// page within a batch.
func TestFetchBatchDuplicatePagesReadOnce(t *testing.T) {
	mgr, f := buildHeap(t, 4, 8)
	defer mgr.Close()
	mgr.ResetStats()
	out, err := f.FetchBatch(nil, []int64{2, 2, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	st := mgr.Stats()
	if got := st.Reads + st.Prefetched; got != 1 {
		t.Errorf("4 duplicate ids cost %d page fetches, want 1", got)
	}
	for i := 1; i < len(out); i++ {
		if !recsEqual(out[i], out[0]) {
			t.Errorf("duplicate id decode %d differs from first", i)
		}
	}
}

// TestFetchBatchAllocsPerCandidate pins the allocation contract of the
// two fetches: on the visiting path a record added to the batch costs no
// allocation at all (one slot, one run buffer, one order, all in the
// Scratch), and on the owning path only its decode (the Rec, its three
// arrays and the name — no per-candidate bookkeeping).
func TestFetchBatchAllocsPerCandidate(t *testing.T) {
	mgr, f := buildHeap(t, 128, 16)
	defer mgr.Close()
	idsFor := func(n int) []int64 {
		ids := make([]int64, n)
		for i := range ids {
			ids[i] = int64(i)
		}
		return ids
	}
	var s Scratch
	var sum float64
	visit := func(ids []int64) float64 {
		return testing.AllocsPerRun(20, func() {
			err := f.Visit(nil, ids, &s, func(_ int, v *View) error {
				sum += v.Mags[0] + v.Phases[len(v.Phases)-1]
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := visit(idsFor(32)), visit(idsFor(128)); small != 0 || large != 0 {
		t.Errorf("visiting fetch allocates %.0f times for 32 records and %.0f for 128, want 0 with a warm scratch", small, large)
	}
	owned := func(ids []int64) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := f.FetchBatch(nil, ids); err != nil {
				t.Fatal(err)
			}
		})
	}
	perCandidate := (owned(idsFor(128)) - owned(idsFor(32))) / 96
	// Decode allocates the Rec, Raw and the name string: 3.
	if perCandidate > 3.5 {
		t.Errorf("owning fetch: %.2f allocations per candidate, want <= 3.5 (decode only)", perCandidate)
	}
}

// TestVisitStopsAtACorruptPage: a record page that fails its checksum in
// the middle of a batch ends the fetch with the error naming the page and
// its record;
// the callback sees the records before it, never the bad one, and never
// the previous record's contents under the bad one's position.
func TestVisitStopsAtACorruptPage(t *testing.T) {
	mgr, f := buildHeap(t, 12, 16)
	defer mgr.Close()
	const bad = 5
	buf := make([]byte, mgr.PageSize())
	if err := mgr.Read(f.verify[bad], buf); err != nil {
		t.Fatal(err)
	}
	buf[pageHeaderSize+verifyHeaderSize+40] ^= 0x10
	if err := mgr.Write(f.verify[bad], buf); err != nil {
		t.Fatal(err)
	}
	ids := []int64{9, 3, bad, 4, 8, 6}
	var s Scratch
	var visited []int64
	err := f.Visit(nil, ids, &s, func(i int, v *View) error {
		visited = append(visited, ids[i])
		want, err := readVerify(f, ids[i])
		if err != nil {
			return err
		}
		if !viewIsRec(v, want) {
			t.Errorf("record %d: visited contents differ from Read", ids[i])
		}
		return nil
	})
	wantErr := fmt.Sprintf("heapfile: page %d (record 5): checksum mismatch", f.verify[bad])
	if err == nil || err.Error() != wantErr {
		t.Fatalf("Visit over a corrupt page returned %v, want %q", err, wantErr)
	}
	if fmt.Sprint(visited) != "[3 4]" {
		t.Errorf("visited %v before the error, want the two records on earlier pages", visited)
	}
	if _, err := f.FetchBatch(nil, ids); err == nil || err.Error() != wantErr {
		t.Errorf("FetchBatch over a corrupt page returned %v", err)
	}
}

// FuzzFetchBatch drives random append/delete/sync interleavings and
// random id multisets (duplicates, boundary ids, arbitrary order) and
// asserts FetchBatch and Visit parity with record-at-a-time Read.
func FuzzFetchBatch(f *testing.F) {
	f.Add(int64(1), uint8(20), uint16(8))
	f.Add(int64(7), uint8(1), uint16(32))
	f.Add(int64(99), uint8(200), uint16(64))
	f.Fuzz(func(t *testing.T, seed int64, opCount uint8, idCount uint16) {
		rng := rand.New(rand.NewSource(seed))
		mgr := storage.NewManager(storage.Options{PageSize: 512})
		defer mgr.Close()
		hf, err := Create(mgr, 8)
		if err != nil {
			t.Fatal(err)
		}
		// A packed start, in groups of up to VerifyPerPage records in a
		// random order.
		packed := make([]*Rec, rng.Intn(40))
		for i := range packed {
			packed[i] = randRec(rng, 8, fmt.Sprint("p", i))
		}
		var groups [][]int
		for _, i := range rng.Perm(len(packed)) {
			if len(groups) == 0 || len(groups[len(groups)-1]) == hf.VerifyPerPage() || rng.Intn(3) == 0 {
				groups = append(groups, nil)
			}
			groups[len(groups)-1] = append(groups[len(groups)-1], i)
		}
		if err := hf.Pack(packed, groups); err != nil {
			t.Fatal(err)
		}
		// Interleave appends, deletes, and directory syncs; syncs can
		// allocate directory pages mid-stream, breaking up the
		// otherwise-consecutive record page runs.
		for op := 0; op < int(opCount); op++ {
			switch {
			case hf.Len() == 0 || rng.Intn(3) != 0:
				name := fmt.Sprintf("n%d", op)
				if _, err := hf.Append(randRec(rng, 8, name)); err != nil {
					t.Fatal(err)
				}
			case rng.Intn(2) == 0:
				if err := hf.Delete(int64(rng.Intn(hf.Len()))); err != nil {
					t.Fatal(err)
				}
			default:
				if err := hf.Sync(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if hf.Len() == 0 {
			return
		}
		ids := make([]int64, int(idCount)%128)
		for i := range ids {
			ids[i] = int64(rng.Intn(hf.Len()))
		}
		got, err := hf.FetchBatch(nil, ids)
		if err != nil {
			t.Fatal(err)
		}
		for i, id := range ids {
			want, err := hf.Read(id)
			if err != nil {
				t.Fatal(err)
			}
			switch {
			case want == nil && got[i] == nil:
			case want == nil || got[i] == nil:
				t.Fatalf("seed=%d ids[%d]=%d: batch nil=%v, read nil=%v", seed, i, id, got[i] == nil, want == nil)
			case !recsEqual(got[i], want):
				t.Fatalf("seed=%d ids[%d]=%d: batch record differs from Read", seed, i, id)
			}
		}
		// The visiting fetch over the same history, twice through one
		// scratch: the second pass decodes into a slot the first filled.
		var s Scratch
		checkVisitMatchesRead(t, hf, &s, ids)
		checkVisitMatchesRead(t, hf, &s, ids[len(ids)/2:])
	})
}
