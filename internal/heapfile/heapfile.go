// Package heapfile implements the paged record store that holds the full
// database records (name, statistics, raw series, and the polar spectrum
// used by distance verification). One record occupies one page, so
// retrieving a candidate during query postprocessing costs exactly one
// page access — the "find and retrieve all candidate data items"
// accounting of the paper's Eq. 18 — and goes through the same storage
// manager (and optional buffer pool) as the index.
//
// The file keeps a directory of record pages as a chain of directory
// pages, so a heap written to a file-backed manager can be reopened.
package heapfile

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"sort"

	"tsq/internal/storage"
)

// Rec is one stored record.
type Rec struct {
	Name      string
	Mean, Std float64
	Raw       []float64
	Mags      []float64
	Phases    []float64
}

// File is a heap of fixed-length records.
type File struct {
	mgr      *storage.Manager
	n        int              // series length
	dirPages []storage.PageID // directory chain, head first
	pages    []storage.PageID // record pages, record i on pages[i]
	// dirFrom is the first directory entry changed since the last Sync,
	// dirClean when there is none: Sync rewrites the chain from there.
	dirFrom int
	// buf is the page every write is encoded in (writes are exclusive).
	buf []byte
}

const dirClean = math.MaxInt

// Record page layout (little endian):
//
//	offset 0: magic 'R' (1 byte), reserved (1 byte)
//	offset 2: name length (uint16)
//	offset 4: series length n (uint32)
//	offset 8: CRC32 (IEEE) of the page with this field zeroed (uint32)
//	offset 12: reserved (uint32)
//	offset 16: mean, std (2 float64)
//	offset 32: raw[n], mags[n], phases[n] (3n float64)
//	then: name bytes
const recHeaderSize = 32

// recSize returns the encoded size of a record.
func recSize(n, nameLen int) int { return recHeaderSize + 24*n + nameLen }

// MaxSeriesLength returns the longest series a record page can hold given
// a name length budget.
func MaxSeriesLength(pageSize, nameLen int) int {
	return (pageSize - recHeaderSize - nameLen) / 24
}

// Directory page layout:
//
//	offset 0: magic "HDIR" (4 bytes)
//	offset 4: entry count in this page (uint32)
//	offset 8: next directory page (uint32, NilPage terminates)
//	offset 12: record page ids (uint32 each)
var dirMagic = [4]byte{'H', 'D', 'I', 'R'}

const dirHeaderSize = 12

// dirEntries returns the number of entries a directory page holds.
func (f *File) dirEntries() int { return (f.mgr.PageSize() - dirHeaderSize) / 4 }

// Create allocates an empty heap on mgr for series of length n.
// Records must fit in one page: recHeaderSize bytes of header, 24 bytes
// per sample and the name.
func Create(mgr *storage.Manager, n int) (*File, error) {
	if recSize(n, 0) > mgr.PageSize() {
		return nil, fmt.Errorf("heapfile: series length %d does not fit a %d-byte page", n, mgr.PageSize())
	}
	head, err := mgr.Alloc()
	if err != nil {
		return nil, err
	}
	f := &File{mgr: mgr, n: n, dirPages: []storage.PageID{head}, dirFrom: dirClean, buf: make([]byte, mgr.PageSize())}
	if err := f.writeDirectory(0); err != nil {
		return nil, err
	}
	return f, nil
}

// Open loads an existing heap whose directory starts at dirHead.
func Open(mgr *storage.Manager, dirHead storage.PageID, n int) (*File, error) {
	f := &File{mgr: mgr, n: n, dirFrom: dirClean, buf: make([]byte, mgr.PageSize())}
	buf := f.buf
	id := dirHead
	perPage := f.dirEntries()
	seen := make(map[storage.PageID]bool)
	for id != storage.NilPage {
		if seen[id] {
			return nil, fmt.Errorf("heapfile: corrupt directory: page %d linked twice (cycle)", id)
		}
		seen[id] = true
		if err := mgr.Read(id, buf); err != nil {
			return nil, fmt.Errorf("heapfile: reading directory page %d: %w", id, err)
		}
		if [4]byte(buf[:4]) != dirMagic {
			return nil, fmt.Errorf("heapfile: bad directory magic on page %d", id)
		}
		f.dirPages = append(f.dirPages, id)
		count := int(binary.LittleEndian.Uint32(buf[4:]))
		if count > perPage {
			return nil, fmt.Errorf("heapfile: corrupt directory page %d: count %d", id, count)
		}
		next := storage.PageID(binary.LittleEndian.Uint32(buf[8:]))
		for i := 0; i < count; i++ {
			rec := storage.PageID(binary.LittleEndian.Uint32(buf[dirHeaderSize+4*i:]))
			if rec == storage.NilPage {
				return nil, fmt.Errorf("heapfile: corrupt directory page %d: entry %d is the nil page", id, i)
			}
			f.pages = append(f.pages, rec)
		}
		id = next
	}
	return f, nil
}

// DirHead returns the first directory page (needed to Open the heap).
func (f *File) DirHead() storage.PageID { return f.dirPages[0] }

// Len returns the number of stored records.
func (f *File) Len() int { return len(f.pages) }

// SeriesLength returns the series length.
func (f *File) SeriesLength() int { return f.n }

// Append stores a record and returns its record number.
func (f *File) Append(r *Rec) (int64, error) {
	if len(r.Raw) != f.n || len(r.Mags) != f.n || len(r.Phases) != f.n {
		return 0, fmt.Errorf("heapfile: record arrays %d/%d/%d, want %d", len(r.Raw), len(r.Mags), len(r.Phases), f.n)
	}
	if recSize(f.n, len(r.Name)) > f.mgr.PageSize() {
		return 0, fmt.Errorf("heapfile: record %q does not fit a page", r.Name)
	}
	id, err := f.mgr.Alloc()
	if err != nil {
		return 0, err
	}
	buf := f.buf
	clear(buf)
	buf[0] = 'R'
	binary.LittleEndian.PutUint16(buf[2:], uint16(len(r.Name)))
	binary.LittleEndian.PutUint32(buf[4:], uint32(f.n))
	binary.LittleEndian.PutUint64(buf[16:], math.Float64bits(r.Mean))
	binary.LittleEndian.PutUint64(buf[24:], math.Float64bits(r.Std))
	off := recHeaderSize
	for _, arr := range [3][]float64{r.Raw, r.Mags, r.Phases} {
		for _, v := range arr {
			binary.LittleEndian.PutUint64(buf[off:], math.Float64bits(v))
			off += 8
		}
	}
	copy(buf[off:], r.Name)
	binary.LittleEndian.PutUint32(buf[8:], crc32.ChecksumIEEE(buf))
	if err := f.mgr.Write(id, buf); err != nil {
		return 0, err
	}
	f.pages = append(f.pages, id)
	f.dirFrom = min(f.dirFrom, len(f.pages)-1)
	return int64(len(f.pages) - 1), nil
}

// Read fetches record rec. Each call costs one page access (plus none
// for the in-memory directory). A deleted record returns (nil, nil).
func (f *File) Read(rec int64) (*Rec, error) {
	return f.ReadCtx(nil, rec)
}

// ReadCtx is Read with per-query attribution: when ctx carries a
// storage.QueryIO, the record-page fetch is credited to it — the Eq. 18
// "retrieve" term becomes observable per query. A nil ctx behaves
// exactly like Read.
func (f *File) ReadCtx(ctx context.Context, rec int64) (*Rec, error) {
	if rec < 0 || rec >= int64(len(f.pages)) {
		return nil, fmt.Errorf("heapfile: record %d out of range [0, %d)", rec, len(f.pages))
	}
	buf := make([]byte, f.mgr.PageSize())
	if err := f.mgr.ReadCtx(ctx, f.pages[rec], buf); err != nil {
		return nil, fmt.Errorf("heapfile: reading record %d: %w", rec, err)
	}
	return f.decodeOwned(buf, rec)
}

// View is a record decoded in place by Visit. Its arrays belong to the
// fetch's Scratch and Name aliases the page image, so a View is valid
// only until the visit callback returns: copy what outlives it.
type View struct {
	Name      []byte
	Mean, Std float64
	Raw       []float64
	Mags      []float64
	Phases    []float64
}

// decode is the one record decoder: it checks the record page image in
// buf (magic, IEEE CRC, series length, overflow) and decodes it into v,
// reusing v's arrays when they have room. It reports false for a
// tombstone. On an error or a tombstone v's arrays are emptied, so a
// reused v never shows the previous record. The CRC field is zeroed for
// the checksum and restored afterwards, so the same image can be decoded
// more than once (duplicate ids in a batch).
func (f *File) decode(buf []byte, rec int64, v *View) (live bool, err error) {
	v.Name, v.Raw, v.Mags, v.Phases = nil, v.Raw[:0], v.Mags[:0], v.Phases[:0]
	if buf[0] == 'D' {
		return false, nil // tombstone
	}
	if buf[0] != 'R' {
		return false, fmt.Errorf("heapfile: page %d is not a record page", f.pages[rec])
	}
	stored := binary.LittleEndian.Uint32(buf[8:])
	binary.LittleEndian.PutUint32(buf[8:], 0)
	sum := crc32.ChecksumIEEE(buf)
	binary.LittleEndian.PutUint32(buf[8:], stored)
	if sum != stored {
		return false, fmt.Errorf("heapfile: record %d fails its checksum (page %d)", rec, f.pages[rec])
	}
	nameLen := int(binary.LittleEndian.Uint16(buf[2:]))
	n := int(binary.LittleEndian.Uint32(buf[4:]))
	if n != f.n {
		return false, fmt.Errorf("heapfile: record %d has length %d, heap expects %d", rec, n, f.n)
	}
	if recSize(n, nameLen) > len(buf) {
		return false, fmt.Errorf("heapfile: record %d overflows its page (name length %d)", rec, nameLen)
	}
	v.Mean = math.Float64frombits(binary.LittleEndian.Uint64(buf[16:]))
	v.Std = math.Float64frombits(binary.LittleEndian.Uint64(buf[24:]))
	v.Raw = decodeFloats(v.Raw, n, buf[recHeaderSize:])
	v.Mags = decodeFloats(v.Mags, n, buf[recHeaderSize+8*n:])
	v.Phases = decodeFloats(v.Phases, n, buf[recHeaderSize+16*n:])
	v.Name = buf[recHeaderSize+24*n:][:nameLen]
	return true, nil
}

// decodeFloats decodes n little-endian float64 values from src into dst,
// which is reused when it has room.
func decodeFloats(dst []float64, n int, src []byte) []float64 {
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
	}
	return dst
}

// decodeOwned decodes buf into a fresh Rec that owns its arrays and
// name; a tombstone is (nil, nil).
func (f *File) decodeOwned(buf []byte, rec int64) (*Rec, error) {
	var v View
	if live, err := f.decode(buf, rec, &v); err != nil || !live {
		return nil, err
	}
	return &Rec{Name: string(v.Name), Mean: v.Mean, Std: v.Std, Raw: v.Raw, Mags: v.Mags, Phases: v.Phases}, nil
}

// Scratch is the reusable state of a batch fetch: the run buffer, the
// page order of the ids and the decode slot Visit hands to its callback.
// The zero value is ready to use. A Scratch serves one fetch at a time.
type Scratch struct {
	run  []byte
	by   pageOrder
	slot View
}

// Bytes returns the memory the scratch holds on to, for callers that cap
// what they keep between fetches.
func (s *Scratch) Bytes() int {
	return cap(s.run) + 4*cap(s.by.order) + 8*(cap(s.slot.Raw)+cap(s.slot.Mags)+cap(s.slot.Phases))
}

// pageOrder sorts the positions of ids by record page, ties by position.
// It lives in the Scratch so that sort.Sort is handed a pointer that is
// on the heap already.
type pageOrder struct {
	f     *File
	ids   []int64
	order []int32
}

func (o *pageOrder) Len() int      { return len(o.order) }
func (o *pageOrder) Swap(a, b int) { o.order[a], o.order[b] = o.order[b], o.order[a] }
func (o *pageOrder) Less(a, b int) bool {
	pa, pb := o.f.pages[o.ids[o.order[a]]], o.f.pages[o.ids[o.order[b]]]
	if pa != pb {
		return pa < pb
	}
	return o.order[a] < o.order[b]
}

// fetch services the page I/O of a batch in ascending page order: the
// ids are sorted by record page, maximal runs of consecutive pages are
// read with one storage.ReadRunCtx call each (one backend access plus
// readahead on run-capable backends), and each page is fetched at most
// once per call even when ids repeat. page is called once per id, in
// page order, with the id's position in ids and its page image, which is
// valid until page returns. The run buffer and the order come from s.
func (f *File) fetch(ctx context.Context, ids []int64, s *Scratch, page func(i int, buf []byte) error) error {
	for _, rec := range ids {
		if rec < 0 || rec >= int64(len(f.pages)) {
			return fmt.Errorf("heapfile: record %d out of range [0, %d)", rec, len(f.pages))
		}
	}
	s.by.f, s.by.ids, s.by.order = f, ids, s.by.order[:0]
	for i := range ids {
		s.by.order = append(s.by.order, int32(i))
	}
	sort.Sort(&s.by)
	s.by.ids = nil // the caller's slice is not the scratch's to keep
	order := s.by.order
	ps := f.mgr.PageSize()
	for start := 0; start < len(order); {
		// Extend the run while page ids stay consecutive (or repeat).
		end, distinct := start+1, 1
		for end < len(order) {
			prev, cur := f.pages[ids[order[end-1]]], f.pages[ids[order[end]]]
			if cur == prev {
				end++
				continue
			}
			if cur == prev+1 {
				end++
				distinct++
				continue
			}
			break
		}
		first := f.pages[ids[order[start]]]
		if need := distinct * ps; cap(s.run) < need {
			s.run = make([]byte, max(need, 2*cap(s.run)))
		}
		buf := s.run[:distinct*ps]
		if err := f.mgr.ReadRunCtx(ctx, first, distinct, buf); err != nil {
			return fmt.Errorf("heapfile: batch-fetching records: %w", err)
		}
		for j := start; j < end; j++ {
			idx := int(order[j])
			off := int(f.pages[ids[idx]]-first) * ps
			if err := page(idx, buf[off:off+ps]); err != nil {
				return err
			}
		}
		start = end
	}
	return nil
}

// FetchBatch fetches the given records with the page-ordered, run-batched
// I/O of fetch. The result is parallel to ids — out[i] is the record for
// ids[i], nil if tombstoned — so callers keep their own candidate order
// while the underlying I/O happens in file order. Every record is owned
// by the caller: allocation per record is the decode itself (the Rec, its
// arrays and its name).
func (f *File) FetchBatch(ctx context.Context, ids []int64) ([]*Rec, error) {
	out := make([]*Rec, len(ids))
	err := f.fetch(ctx, ids, new(Scratch), func(i int, buf []byte) (err error) {
		out[i], err = f.decodeOwned(buf, ids[i])
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Visit is FetchBatch without ownership: the same I/O, but every record
// is decoded into the one slot of s and passed to visit with its
// position in ids — in page order, not in the order of ids — and nil for
// a tombstone. The View is valid until visit returns. With a warm s,
// Visit allocates nothing per page and nothing per record. A decode
// error stops the fetch before visit sees the failing record.
func (f *File) Visit(ctx context.Context, ids []int64, s *Scratch, visit func(i int, v *View) error) error {
	return f.fetch(ctx, ids, s, func(i int, buf []byte) error {
		live, err := f.decode(buf, ids[i], &s.slot)
		if err != nil {
			return err
		}
		if !live {
			return visit(i, nil)
		}
		return visit(i, &s.slot)
	})
}

// Delete tombstones record rec: subsequent reads return (nil, nil). The
// page stays allocated so record numbers remain stable.
func (f *File) Delete(rec int64) error {
	if rec < 0 || rec >= int64(len(f.pages)) {
		return fmt.Errorf("heapfile: record %d out of range [0, %d)", rec, len(f.pages))
	}
	buf := f.buf
	if err := f.mgr.Read(f.pages[rec], buf); err != nil {
		return err
	}
	buf[0] = 'D'
	return f.mgr.Write(f.pages[rec], buf)
}

// MemState is a snapshot of the heap's in-memory bookkeeping, taken
// before a mutation so a failed mutation can be unwound without
// touching the pages it may have written (see RestoreMemState).
type MemState struct {
	pages    int
	dirPages int
	dirFrom  int
}

// MemState snapshots the current bookkeeping.
func (f *File) MemState() MemState {
	return MemState{pages: len(f.pages), dirPages: len(f.dirPages), dirFrom: f.dirFrom}
}

// RestoreMemState rolls the in-memory bookkeeping back to a snapshot
// taken by MemState. It neither rewrites nor frees any page: callers
// pair it with a storage-level rollback (an aborted staged transaction)
// that discards the page writes and returns every page grown during the
// transaction — including the ones dropped here — to the allocator.
func (f *File) RestoreMemState(s MemState) {
	f.pages = f.pages[:s.pages]
	f.dirPages = f.dirPages[:s.dirPages]
	f.dirFrom = s.dirFrom
}

// Unappend removes record rec, which must be the most recent append,
// from the heap and returns its page to the allocator. It is the
// unwind path for a failed insert on an unstaged (in-memory) backend,
// where the appended page is already durable but nothing references it
// yet. The directory is left dirty so the next Sync drops the entry.
func (f *File) Unappend(rec int64) error {
	if rec != int64(len(f.pages))-1 {
		return fmt.Errorf("heapfile: unappend of record %d, last is %d", rec, len(f.pages)-1)
	}
	id := f.pages[rec]
	f.pages = f.pages[:rec]
	f.dirFrom = min(f.dirFrom, int(rec))
	f.mgr.Free(id)
	return nil
}

// Sync writes the page directory; call after appends when the heap must
// be reopenable. A directory page is rewritten only when an entry on it,
// its count or its link changed since the last Sync: the pages from the
// one holding the first changed entry on, and the page before it when
// that entry opens a page, because its link is what a grown chain sets.
func (f *File) Sync() error {
	if f.dirFrom == dirClean {
		return nil
	}
	if err := f.writeDirectory(max(f.dirFrom-1, 0) / f.dirEntries()); err != nil {
		return err
	}
	f.dirFrom = dirClean
	return nil
}

// writeDirectory rewrites the directory chain from f.pages, starting at
// its page first, extending the chain with fresh pages as it grows (the
// heap is append-only, so the chain never shrinks).
func (f *File) writeDirectory(first int) error {
	perPage := f.dirEntries()
	buf := f.buf
	remaining := f.pages[first*perPage:]
	for slot := first; ; slot++ {
		count := min(len(remaining), perPage)
		var next storage.PageID
		if count < len(remaining) {
			if slot+1 < len(f.dirPages) {
				next = f.dirPages[slot+1]
			} else {
				var err error
				next, err = f.mgr.Alloc()
				if err != nil {
					return err
				}
				f.dirPages = append(f.dirPages, next)
			}
		}
		clear(buf)
		copy(buf, dirMagic[:])
		binary.LittleEndian.PutUint32(buf[4:], uint32(count))
		binary.LittleEndian.PutUint32(buf[8:], uint32(next))
		for i := 0; i < count; i++ {
			binary.LittleEndian.PutUint32(buf[dirHeaderSize+4*i:], uint32(remaining[i]))
		}
		if err := f.mgr.Write(f.dirPages[slot], buf); err != nil {
			return err
		}
		remaining = remaining[count:]
		if next == storage.NilPage {
			return nil
		}
	}
}
