package storage

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"path/filepath"
	"testing"
)

func TestChecksumRoundTrip(t *testing.T) {
	const phys = 512
	cb := NewChecksumBackend(NewMemBackend(phys), phys)
	if got := cb.LogicalPageSize(); got != phys-ChecksumTrailerSize {
		t.Fatalf("logical page size = %d, want %d", got, phys-ChecksumTrailerSize)
	}
	ls := cb.LogicalPageSize()
	in := make([]byte, ls)
	stampPage(in, 3)
	if err := cb.Grow(3); err != nil {
		t.Fatal(err)
	}
	if err := cb.WritePage(3, in); err != nil {
		t.Fatal(err)
	}
	out := make([]byte, ls)
	if err := cb.ReadPage(3, out); err != nil {
		t.Fatal(err)
	}
	if string(in) != string(out) {
		t.Fatal("payload corrupted across checksum framing")
	}
}

func TestChecksumDetectsBitRot(t *testing.T) {
	const phys = 512
	mem := NewMemBackend(phys)
	cb := NewChecksumBackend(mem, phys)
	ls := cb.LogicalPageSize()
	in := make([]byte, ls)
	stampPage(in, 5)
	if err := cb.Grow(5); err != nil {
		t.Fatal(err)
	}
	if err := cb.WritePage(5, in); err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte beneath the checksum layer.
	raw := make([]byte, phys)
	if err := mem.ReadPage(5, raw); err != nil {
		t.Fatal(err)
	}
	raw[100] ^= 0x01
	if err := mem.WritePage(5, raw); err != nil {
		t.Fatal(err)
	}
	err := cb.ReadPage(5, make([]byte, ls))
	var ce *ChecksumError
	if !errors.As(err, &ce) {
		t.Fatalf("bit rot not detected: %v", err)
	}
	if ce.Page != 5 || ce.Missing {
		t.Errorf("ChecksumError = %+v, want page 5, not missing", ce)
	}
}

func TestChecksumDetectsMisdirectedWrite(t *testing.T) {
	// A structurally intact page read back from the wrong offset must
	// fail: the CRC covers the page id.
	const phys = 512
	mem := NewMemBackend(phys)
	cb := NewChecksumBackend(mem, phys)
	ls := cb.LogicalPageSize()
	in := make([]byte, ls)
	stampPage(in, 1)
	for _, id := range []PageID{1, 2} {
		if err := cb.Grow(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := cb.WritePage(1, in); err != nil {
		t.Fatal(err)
	}
	// Copy page 1's physical image over page 2 (the misdirected write).
	raw := make([]byte, phys)
	if err := mem.ReadPage(1, raw); err != nil {
		t.Fatal(err)
	}
	if err := mem.WritePage(2, raw); err != nil {
		t.Fatal(err)
	}
	err := cb.ReadPage(2, make([]byte, ls))
	var ce *ChecksumError
	if !errors.As(err, &ce) || ce.Page != 2 {
		t.Fatalf("misdirected write not detected: %v", err)
	}
}

func TestChecksumDetectsMissingTrailer(t *testing.T) {
	const phys = 512
	mem := NewMemBackend(phys)
	cb := NewChecksumBackend(mem, phys)
	if err := cb.Grow(4); err != nil {
		t.Fatal(err)
	}
	// Page 4 exists but was never written through the checksum layer:
	// an all-zero page, as a crash mid-extend would leave.
	err := cb.ReadPage(4, make([]byte, cb.LogicalPageSize()))
	var ce *ChecksumError
	if !errors.As(err, &ce) {
		t.Fatalf("trailer-less page accepted: %v", err)
	}
	if !ce.Missing {
		t.Errorf("ChecksumError.Missing = false for a never-written page")
	}
}

func TestChecksumRunRead(t *testing.T) {
	const phys = 256
	for _, inner := range []struct {
		name string
		b    Backend
	}{
		{"mem-runreader", NewMemBackend(phys)},
		{"no-runreader", pageOnlyBackend{NewMemBackend(phys)}},
	} {
		t.Run(inner.name, func(t *testing.T) {
			cb := NewChecksumBackend(inner.b, phys)
			ls := cb.LogicalPageSize()
			want := make([]byte, 4*ls)
			for i := 0; i < 4; i++ {
				id := PageID(i + 1)
				if err := cb.Grow(id); err != nil {
					t.Fatal(err)
				}
				stampPage(want[i*ls:(i+1)*ls], id)
				if err := cb.WritePage(id, want[i*ls:(i+1)*ls]); err != nil {
					t.Fatal(err)
				}
			}
			got := make([]byte, 4*ls)
			if err := cb.ReadRun(1, 4, got); err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Fatal("run payload corrupted across checksum framing")
			}
		})
	}
}

func TestChecksumUnderManagerCountsFailures(t *testing.T) {
	const phys = 512
	mem := NewMemBackend(phys)
	cb := NewChecksumBackend(mem, phys)
	m := NewManager(Options{PageSize: cb.LogicalPageSize(), Backend: cb})
	id, err := m.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, cb.LogicalPageSize())
	stampPage(buf, id)
	if err := m.Write(id, buf); err != nil {
		t.Fatal(err)
	}
	// Corrupt beneath the checksum layer.
	raw := make([]byte, phys)
	if err := mem.ReadPage(id, raw); err != nil {
		t.Fatal(err)
	}
	raw[7] ^= 0xFF
	if err := mem.WritePage(id, raw); err != nil {
		t.Fatal(err)
	}
	before := GlobalStats()
	err = m.Read(id, buf)
	var ce *ChecksumError
	if !errors.As(err, &ce) {
		t.Fatalf("corruption not detected through manager: %v", err)
	}
	st := m.Stats()
	if st.IOErrors != 1 || st.ChecksumFailures != 1 {
		t.Errorf("IOErrors=%d ChecksumFailures=%d, want 1/1", st.IOErrors, st.ChecksumFailures)
	}
	after := GlobalStats()
	if after.ChecksumFailures-before.ChecksumFailures != 1 {
		t.Errorf("global ChecksumFailures delta = %d, want 1", after.ChecksumFailures-before.ChecksumFailures)
	}
}

func TestChecksumOverFileBackend(t *testing.T) {
	const phys = 512
	path := filepath.Join(t.TempDir(), "ck.pages")
	fb, err := NewFileBackend(path, phys)
	if err != nil {
		t.Fatal(err)
	}
	cb := NewChecksumBackend(fb, phys)
	ls := cb.LogicalPageSize()
	in := make([]byte, ls)
	stampPage(in, 2)
	if err := cb.Grow(2); err != nil {
		t.Fatal(err)
	}
	if err := cb.WritePage(2, in); err != nil {
		t.Fatal(err)
	}
	if err := cb.Sync(); err != nil {
		t.Fatal(err)
	}
	out := make([]byte, ls)
	if err := cb.ReadPage(2, out); err != nil {
		t.Fatal(err)
	}
	if string(in) != string(out) {
		t.Fatal("payload corrupted on disk round trip")
	}
	if err := cb.Close(); err != nil {
		t.Fatal(err)
	}
}

// pageOnlyBackend hides RunReader from a backend.
type pageOnlyBackend struct{ inner Backend }

func (p pageOnlyBackend) ReadPage(id PageID, buf []byte) error  { return p.inner.ReadPage(id, buf) }
func (p pageOnlyBackend) WritePage(id PageID, buf []byte) error { return p.inner.WritePage(id, buf) }
func (p pageOnlyBackend) Grow(id PageID) error                  { return p.inner.Grow(id) }
func (p pageOnlyBackend) Close() error                          { return p.inner.Close() }

// pageCRCViaUpdate is the trailer checksum as every file so far was
// written: crc32.Update over the payload's CRC32C and the id bytes.
func pageCRCViaUpdate(id PageID, data []byte) uint32 {
	var idb [4]byte
	binary.LittleEndian.PutUint32(idb[:], uint32(id))
	return crc32.Update(crc32.Checksum(data, castagnoli), castagnoli, idb[:])
}

// TestPageCRCIsTheOnDiskChecksum: pageCRC folds the id bytes through the
// table itself. It must stay bit-identical to the crc32.Update formula —
// pinned values computed before the change, random inputs against the
// formula — or no existing file would verify; and it allocates nothing.
func TestPageCRCIsTheOnDiskChecksum(t *testing.T) {
	pattern := make([]byte, 4088)
	for i := range pattern {
		pattern[i] = byte(i*7 + 3)
	}
	for _, g := range []struct {
		id   PageID
		data []byte
		want uint32
	}{
		{0, nil, 0x48674bc7},
		{1, []byte("tsq"), 0xfca61c61},
		{0xdeadbeef, make([]byte, 4088), 0xaeab457a},
		{258, pattern, 0x72855cf0},
	} {
		if got := pageCRC(g.id, g.data); got != g.want {
			t.Errorf("pageCRC(%d, %d bytes) = %#08x, want %#08x", g.id, len(g.data), got, g.want)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		data := make([]byte, rng.Intn(600))
		rng.Read(data)
		id := PageID(rng.Uint32())
		if got, want := pageCRC(id, data), pageCRCViaUpdate(id, data); got != want {
			t.Fatalf("pageCRC(%d, %d bytes) = %#08x, crc32.Update gives %#08x", id, len(data), got, want)
		}
	}
	var sink uint32
	if allocs := testing.AllocsPerRun(100, func() { sink += pageCRC(77, pattern) }); allocs != 0 {
		t.Errorf("pageCRC allocates %.0f times, want 0", allocs)
	}
	_ = sink
}

// TestChecksumRunReadReusesScratch: a run read draws its physical
// buffer from the backend's scratch instead of allocating one per run.
// (Under -race the sync.Pool drops a quarter of the Puts; AllocsPerRun
// reports whole allocations per run, so that still reads 0.)
func TestChecksumRunReadReusesScratch(t *testing.T) {
	const phys, n = 512, 12
	cb := NewChecksumBackend(NewMemBackend(phys), phys)
	page := make([]byte, cb.LogicalPageSize())
	for id := PageID(1); id <= n; id++ {
		if err := cb.Grow(id); err != nil {
			t.Fatal(err)
		}
		stampPage(page, id)
		if err := cb.WritePage(id, page); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]byte, n*cb.LogicalPageSize())
	if allocs := testing.AllocsPerRun(50, func() {
		if err := cb.ReadRun(1, n, buf); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("a %d-page run read allocates %.0f times, want 0", n, allocs)
	}
}
