package heapfile

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"tsq/internal/storage"
)

func randRec(rng *rand.Rand, n int, name string) *Rec {
	mk := func() []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = rng.NormFloat64() * 100
		}
		return out
	}
	return &Rec{
		Name: name,
		Mean: rng.NormFloat64(),
		Std:  rng.Float64() + 0.1,
		Raw:  mk(), Mags: mk(), Phases: mk(),
	}
}

// recsEqual reports whether a Rec read back (its raw part) is the raw
// part of the Rec written.
func recsEqual(got, want *Rec) bool {
	if got.Name != want.Name || len(got.Raw) != len(want.Raw) {
		return false
	}
	for i := range got.Raw {
		if math.Float64bits(got.Raw[i]) != math.Float64bits(want.Raw[i]) {
			return false
		}
	}
	return true
}

// viewIsRec reports whether a verify view shows the verify part of r:
// its statistics and f = 0..n/2 of its spectrum, bit for bit, and NaN
// above.
func viewIsRec(v *View, r *Rec) bool {
	if v == nil || r == nil {
		return v == nil && r == nil
	}
	n := len(r.Mags)
	if len(v.Mags) != n || len(v.Phases) != n ||
		math.Float64bits(v.Mean) != math.Float64bits(r.Mean) || math.Float64bits(v.Std) != math.Float64bits(r.Std) {
		return false
	}
	for f := 0; f < n; f++ {
		if f < half(n) {
			if math.Float64bits(v.Mags[f]) != math.Float64bits(r.Mags[f]) || math.Float64bits(v.Phases[f]) != math.Float64bits(r.Phases[f]) {
				return false
			}
		} else if !math.IsNaN(v.Mags[f]) || !math.IsNaN(v.Phases[f]) {
			return false
		}
	}
	return true
}

// format1Page is the record page a heap wrote before the split: one
// whole record, the full spectrum included.
func format1Page(ps int, r *Rec) []byte {
	n := len(r.Raw)
	buf := make([]byte, ps)
	buf[0] = kindRecord
	binary.LittleEndian.PutUint16(buf[2:], uint16(len(r.Name)))
	binary.LittleEndian.PutUint32(buf[4:], uint32(n))
	binary.LittleEndian.PutUint64(buf[16:], math.Float64bits(r.Mean))
	binary.LittleEndian.PutUint64(buf[24:], math.Float64bits(r.Std))
	putFloats(buf[recHeaderSize:], r.Raw)
	putFloats(buf[recHeaderSize+8*n:], r.Mags)
	putFloats(buf[recHeaderSize+16*n:], r.Phases)
	copy(buf[recSize(n, 0):], r.Name)
	binary.LittleEndian.PutUint32(buf[8:], crc32.ChecksumIEEE(buf))
	return buf
}

// createFormat1 writes a heap as one written before the split held recs:
// one record page each and a directory of one page id per record.
func createFormat1(t testing.TB, mgr *storage.Manager, n int, recs []*Rec) *File {
	t.Helper()
	head, err := mgr.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	f := &File{mgr: mgr, n: n, dirPages: []storage.PageID{head}, buf: make([]byte, mgr.PageSize())}
	for _, r := range recs {
		id, err := mgr.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		if err := mgr.Write(id, format1Page(mgr.PageSize(), r)); err != nil {
			t.Fatal(err)
		}
		f.verify = append(f.verify, id)
	}
	if err := f.writeDirectory(0); err != nil {
		t.Fatal(err)
	}
	g, err := Open(mgr, head, n)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// checkRecords compares every record of f, both parts, with want (nil:
// deleted).
func checkRecords(t *testing.T, f *File, want []*Rec) {
	t.Helper()
	if f.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", f.Len(), len(want))
	}
	var s Scratch
	for i, w := range want {
		got, err := f.Read(int64(i))
		if err != nil {
			t.Fatal(err)
		}
		if (got == nil) != (w == nil) || got != nil && !recsEqual(got, w) {
			t.Fatalf("record %d: raw part %+v, want %+v", i, got, w)
		}
		err = f.Visit(nil, []int64{int64(i)}, &s, func(_ int, v *View) error {
			if !viewIsRec(v, w) {
				t.Fatalf("record %d: verify part differs", i)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestAppendReadRoundTrip(t *testing.T) {
	mgr := storage.NewManager(storage.Options{PageSize: 4096})
	f, err := Create(mgr, 128)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	var want []*Rec
	for i := 0; i < 200; i++ {
		r := randRec(rng, 128, fmt.Sprintf("record-%03d", i))
		rec, err := f.Append(r)
		if err != nil {
			t.Fatal(err)
		}
		if rec != int64(i) {
			t.Fatalf("record number %d, want %d", rec, i)
		}
		want = append(want, r)
	}
	checkRecords(t, f, want)
}

// TestPackSharesPages: Pack puts the verify parts of a group on one page
// in the order given and the raw parts in record order, as many to a
// page as fit; a batch over one group's records reads one page.
func TestPackSharesPages(t *testing.T) {
	const n = 128
	mgr := storage.NewManager(storage.Options{PageSize: 4096})
	f, err := Create(mgr, n)
	if err != nil {
		t.Fatal(err)
	}
	if got := f.VerifyPerPage(); got != 3 {
		t.Fatalf("VerifyPerPage = %d at n = 128, want 3", got)
	}
	rng := rand.New(rand.NewSource(11))
	var recs []*Rec
	for i := 0; i < 10; i++ {
		recs = append(recs, randRec(rng, n, fmt.Sprint("r", i)))
	}
	groups := [][]int{{7, 2, 9}, {0}, {1, 3, 4}, {8, 6, 5}}
	if err := f.Pack(recs, groups); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	for _, g := range groups {
		for _, i := range g {
			if f.verify[i] != f.verify[g[0]] {
				t.Errorf("record %d is not on its group's page", i)
			}
		}
	}
	if f.verify[0] == f.verify[1] || f.rawPage(0) != f.rawPage(2) || f.rawPage(2) == f.rawPage(3) {
		t.Errorf("verify pages %v, raw pages from %d, %d to a page", f.verify, f.rawFirst, f.rawPerPage)
	}
	checkRecords(t, f, recs)
	mgr.ResetStats()
	var s Scratch
	if err := f.Visit(nil, []int64{9, 2, 7}, &s, func(int, *View) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if st := mgr.Stats(); st.Reads+st.Prefetched != 1 {
		t.Errorf("a group's three verify parts cost %+v, want one page", st)
	}
	// Appends after a pack take one page each, both parts on it.
	late := randRec(rng, n, "late")
	writes := mgr.Stats().Writes
	if _, err := f.Append(late); err != nil {
		t.Fatal(err)
	}
	if got := mgr.Stats().Writes - writes; got != 1 || f.verify[10] != f.rawPage(10) {
		t.Errorf("an append wrote %d pages", got)
	}
	checkRecords(t, f, append(recs, late))
	for _, bad := range [][][]int{{{0}}, {{0, 1, 2, 3}}, {{0}, {0, 1}}, {{}}, {{5}}} {
		g, _ := Create(mgr, n)
		if err := g.Pack(recs[:2], bad); err == nil {
			t.Errorf("Pack accepted groups %v for 2 records", bad)
		}
	}
}

// TestFormat1HeapsStayLive: a heap written before the split opens,
// answers both views from its record pages, deletes, and takes appends,
// which write the same one-record page a split heap's do into its
// one-id directory.
func TestFormat1HeapsStayLive(t *testing.T) {
	const n = 16
	mgr := storage.NewManager(storage.Options{PageSize: 1024})
	rng := rand.New(rand.NewSource(12))
	var recs []*Rec
	for i := 0; i < 300; i++ {
		recs = append(recs, randRec(rng, n, fmt.Sprint("old", i)))
	}
	f := createFormat1(t, mgr, n, recs)
	if f.Split() || f.Len() != 300 {
		t.Fatalf("format-1 heap: split=%v len=%d", f.Split(), f.Len())
	}
	checkRecords(t, f, recs)
	if err := f.Delete(5); err != nil {
		t.Fatal(err)
	}
	recs[5] = nil
	for i := 0; i < 20; i++ {
		r := randRec(rng, n, fmt.Sprint("new", i))
		if _, err := f.Append(r); err != nil {
			t.Fatal(err)
		}
		recs = append(recs, r)
	}
	if err := f.Delete(310); err != nil {
		t.Fatal(err)
	}
	recs[310] = nil
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	g, err := Open(mgr, f.DirHead(), n)
	if err != nil {
		t.Fatal(err)
	}
	if g.Split() {
		t.Fatal("a format-1 heap reopens split")
	}
	checkRecords(t, g, recs)
	if err := g.Pack(recs[:1], [][]int{{0}}); err == nil {
		t.Error("Pack into a format-1 heap accepted")
	}
}

func TestReadCostsOnePage(t *testing.T) {
	mgr := storage.NewManager(storage.Options{PageSize: 4096})
	f, _ := Create(mgr, 64)
	rng := rand.New(rand.NewSource(2))
	f.Append(randRec(rng, 64, "a"))
	mgr.ResetStats()
	if _, err := f.Read(0); err != nil {
		t.Fatal(err)
	}
	if got := mgr.Stats().Reads; got != 1 {
		t.Errorf("Read cost %d page accesses, want 1", got)
	}
}

func TestPersistenceAcrossOpen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "heap.db")
	fb, err := storage.NewFileBackend(path, 1024)
	if err != nil {
		t.Fatal(err)
	}
	mgr := storage.NewManager(storage.Options{PageSize: 1024, Backend: fb})
	f, err := Create(mgr, 30)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	var want []*Rec
	// Enough records to force a multi-page directory (1024-byte pages
	// hold (1024-12)/8 = 126 entries; use 600), packed and appended.
	var groups [][]int
	for i := 0; i < 400; i++ {
		want = append(want, randRec(rng, 30, fmt.Sprintf("r%d", i)))
		groups = append(groups, []int{i})
	}
	if err := f.Pack(want, groups); err != nil {
		t.Fatal(err)
	}
	for i := 400; i < 600; i++ {
		r := randRec(rng, 30, fmt.Sprintf("r%d", i))
		if _, err := f.Append(r); err != nil {
			t.Fatal(err)
		}
		want = append(want, r)
	}
	head := f.DirHead()
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}

	fb2, err := storage.NewFileBackend(path, 1024)
	if err != nil {
		t.Fatal(err)
	}
	mgr2 := storage.NewManager(storage.Options{PageSize: 1024, Backend: fb2})
	defer mgr2.Close()
	re, err := Open(mgr2, head, 30)
	if err != nil {
		t.Fatal(err)
	}
	if !re.Split() {
		t.Fatal("reopened heap is not split")
	}
	checkRecords(t, re, want)
	// The reopened heap can keep appending.
	if _, err := re.Append(randRec(rng, 30, "late")); err != nil {
		t.Fatal(err)
	}
	if err := re.Sync(); err != nil {
		t.Fatal(err)
	}
}

func TestSyncIdempotent(t *testing.T) {
	mgr := storage.NewManager(storage.Options{PageSize: 1024})
	f, _ := Create(mgr, 8)
	rng := rand.New(rand.NewSource(4))
	f.Append(randRec(rng, 8, "x"))
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	writes := mgr.Stats().Writes
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if mgr.Stats().Writes != writes {
		t.Error("second Sync wrote pages")
	}
}

func TestValidation(t *testing.T) {
	mgr := storage.NewManager(storage.Options{PageSize: 256})
	if _, err := Create(mgr, 100); err == nil {
		t.Error("oversized series accepted")
	}
	f, err := Create(mgr, 8)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	short := randRec(rng, 4, "short")
	if _, err := f.Append(short); err == nil {
		t.Error("wrong-length record accepted")
	}
	long := randRec(rng, 8, strings.Repeat("n", 300))
	if _, err := f.Append(long); err == nil {
		t.Error("oversized name accepted")
	}
	if _, err := f.Read(0); err == nil {
		t.Error("read of empty heap succeeded")
	}
	if _, err := f.Read(-1); err == nil {
		t.Error("negative record accepted")
	}
}

func TestMaxSeriesLength(t *testing.T) {
	// 16 + 32 + 16(n/2+1) + 8 + 8n bytes: 72 + 16n at even n.
	if got := MaxSeriesLength(4096, 0); got != (4096-72)/16 {
		t.Errorf("MaxSeriesLength = %d", got)
	}
	// A record at exactly the bound fits, and one longer does not.
	mgr := storage.NewManager(storage.Options{PageSize: 4096})
	n := MaxSeriesLength(4096, 4)
	f, err := Create(mgr, n)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	if _, err := f.Append(randRec(rng, n, "abcd")); err != nil {
		t.Errorf("bound-sized record rejected: %v", err)
	}
	if _, err := f.Append(randRec(rng, n, "abcde")); err == nil && insertSize(n, 5) > 4096 {
		t.Error("oversized record accepted")
	}
}

func TestSpecialFloatValues(t *testing.T) {
	mgr := storage.NewManager(storage.Options{PageSize: 1024})
	f, _ := Create(mgr, 4)
	r := &Rec{
		Name:   "special",
		Mean:   math.Inf(1),
		Std:    math.SmallestNonzeroFloat64,
		Raw:    []float64{0, -0.0, math.MaxFloat64, -math.MaxFloat64},
		Mags:   []float64{1, 2, 3, 4},
		Phases: []float64{-math.Pi, math.Pi, 1e-300, 0},
	}
	if _, err := f.Append(r); err != nil {
		t.Fatal(err)
	}
	checkRecords(t, f, []*Rec{r})
}

func TestOpenRejectsNonDirectory(t *testing.T) {
	mgr := storage.NewManager(storage.Options{PageSize: 512})
	f, err := Create(mgr, 8)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	rec, err := f.Append(randRec(rng, 8, "x"))
	if err != nil {
		t.Fatal(err)
	}
	// Opening with a record page as the directory head must fail loudly.
	if _, err := Open(mgr, f.verify[rec], 8); err == nil {
		t.Error("record page accepted as directory head")
	}
}

// TestDeleteTombstone: a deleted record reads as nil in both views,
// whether its parts share a page (an append), share pages with others
// (a pack) or lie on a format-1 page, and its neighbours stay live.
func TestDeleteTombstone(t *testing.T) {
	mgr := storage.NewManager(storage.Options{PageSize: 512})
	f, _ := Create(mgr, 8)
	rng := rand.New(rand.NewSource(8))
	recs := []*Rec{randRec(rng, 8, "a"), randRec(rng, 8, "b"), randRec(rng, 8, "c")}
	if err := f.Pack(recs, [][]int{{0, 1, 2}}); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"d", "e"} {
		r := randRec(rng, 8, name)
		if _, err := f.Append(r); err != nil {
			t.Fatal(err)
		}
		recs = append(recs, r)
	}
	for _, rec := range []int64{1, 3} {
		if err := f.Delete(rec); err != nil {
			t.Fatal(err)
		}
		recs[rec] = nil
	}
	checkRecords(t, f, recs)
	if err := f.Delete(99); err == nil {
		t.Error("out-of-range delete accepted")
	}
	old := createFormat1(t, mgr, 8, []*Rec{randRec(rng, 8, "x"), randRec(rng, 8, "y")})
	if err := old.Delete(0); err != nil {
		t.Fatal(err)
	}
	if got, err := old.Read(0); err != nil || got != nil {
		t.Errorf("deleted format-1 record reads %v, %v", got, err)
	}
	if got, err := old.Read(1); err != nil || got == nil || got.Name != "y" {
		t.Errorf("live format-1 record reads %v, %v", got, err)
	}
}

// TestCorruptSharedPageNamesItsRecords: one flipped byte on a verify page
// that holds three records fails every fetch of any of them with
// ErrChecksum, naming the page and all three records.
func TestCorruptSharedPageNamesItsRecords(t *testing.T) {
	const n = 128
	mgr := storage.NewManager(storage.Options{PageSize: 4096})
	f, _ := Create(mgr, n)
	rng := rand.New(rand.NewSource(13))
	var recs []*Rec
	for i := 0; i < 6; i++ {
		recs = append(recs, randRec(rng, n, fmt.Sprint("r", i)))
	}
	if err := f.Pack(recs, [][]int{{0, 4, 5}, {1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	page := f.verify[4]
	buf := make([]byte, mgr.PageSize())
	if err := mgr.Read(page, buf); err != nil {
		t.Fatal(err)
	}
	buf[pageHeaderSize+verifySize(n)+100] ^= 0x04
	if err := mgr.Write(page, buf); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("heapfile: page %d (records 0, 4, 5): checksum mismatch", page)
	for _, ids := range [][]int64{{0}, {2, 5}, {4, 1}} {
		err := f.Visit(nil, ids, new(Scratch), func(int, *View) error { return nil })
		if !errors.Is(err, ErrChecksum) || err.Error() != want {
			t.Errorf("Visit(%v) = %v, want %q", ids, err, want)
		}
	}
	if _, err := f.ComputeHealth(nil); !errors.Is(err, ErrChecksum) {
		t.Errorf("ComputeHealth = %v", err)
	}
	// The records on the other page still read.
	if err := f.Visit(nil, []int64{1, 2, 3}, new(Scratch), func(int, *View) error { return nil }); err != nil {
		t.Error(err)
	}
}
