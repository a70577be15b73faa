// Package heapfile implements the paged record store that holds the full
// database records: name, statistics, raw series and the polar spectrum
// used by distance verification. It goes through the same storage
// manager (and optional buffer pool) as the index, so retrieving a
// candidate during query postprocessing — the "find and retrieve all
// candidate data items" term of the paper's Eq. 18 — is a counted page
// access.
//
// A record is stored in two parts. Its verify part is what distance
// verification reads: the mean, the standard deviation and the polar
// spectrum for f = 0..n/2, the half that the symmetric sums of
// transform.Verify take (32 + 16(n/2+1) bytes, 1 072 at n = 128). Its raw
// part is the series and the name, which only a full read (Read,
// FetchBatch, VisitRaw) takes. A bulk build (Pack) writes verify parts as
// many to a page as fit, grouped as the caller says — the index writes
// the records of one tree leaf side by side — and raw parts in id order;
// an Append writes both parts of one record on one fresh page, so an
// insert writes one heap page. A page of the split kinds carries one
// CRC32 over the page, checked once per fetch of the page.
//
// The file keeps a directory of record locations as a chain of directory
// pages, so a heap written to a file-backed manager can be reopened.
// Heaps written before the split (format 1: one page per whole record,
// a directory of one page id per record) open, answer and take writes:
// their record pages are read as pages holding both parts of one record,
// and an Append to them writes the same one-record page as everywhere.
package heapfile

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"sort"
	"strings"

	"tsq/internal/storage"
)

// Rec is one stored record as Append and Pack take it. Read and
// FetchBatch return its raw part only: Name and Raw.
type Rec struct {
	Name      string
	Mean, Std float64
	Raw       []float64
	Mags      []float64
	Phases    []float64
}

// File is a heap of records of one series length.
type File struct {
	mgr *storage.Manager
	n   int // series length
	// split is the format: verify and raw parts (format 2), or one
	// whole record per page (format 1).
	split    bool
	dirPages []storage.PageID // directory chain, head first
	// verify[i] is the page holding record i's verify part. The raw parts
	// of the first packed records lie rawPerPage to a page from page
	// rawFirst on, in record order (rawPage); every later record's lie
	// on its verify page, as do all of a format-1 heap's.
	verify     []storage.PageID
	packed     int
	rawFirst   storage.PageID
	rawPerPage int
	// dirFrom is the first directory entry changed since the last Sync,
	// dirClean when there is none: Sync rewrites the chain from there.
	dirFrom int
	// buf is the page every write is encoded in (writes are exclusive).
	buf []byte
}

const dirClean = math.MaxInt

// Page kinds, the first byte of every record page.
const (
	kindVerify = 'V' // verify parts of up to maxParts records
	kindSeries = 'S' // raw parts of up to maxParts records
	kindInsert = 'I' // the verify part, then the raw part, of one record
	kindRecord = 'R' // format 1: one whole record
	kindTomb   = 'D' // format 1: a deleted record
)

// Page layout of the split kinds (little endian):
//
//	offset 0: kind (1 byte)
//	offset 1: verify part count (1 byte)
//	offset 2: raw part count (1 byte)
//	offset 3: reserved (1 byte)
//	offset 4: series length n (uint32)
//	offset 8: CRC32 (IEEE) of the page with this field zeroed (uint32)
//	offset 12: reserved (uint32)
//	offset 16: the verify parts, then the raw parts
//
// Verify part, verifySize(n) bytes:
//
//	offset 0: record number (uint32)
//	offset 4: flags (uint32; bit 0 = deleted)
//	offset 8: mean, std (2 float64)
//	offset 24: reserved (8 bytes)
//	offset 32: mags[0..n/2], phases[0..n/2] (2(n/2+1) float64)
//
// Raw part, rawSize(n, name length) bytes:
//
//	offset 0: record number (uint32)
//	offset 4: name length (uint16)
//	offset 6: flags (uint16; bit 0 = deleted)
//	offset 8: raw[n] (n float64), then the name bytes
const (
	pageHeaderSize   = 16
	verifyHeaderSize = 32
	rawHeaderSize    = 8
	maxParts         = 255 // the part counts are one byte each
	flagDeleted      = 1
)

// Format-1 record page layout (little endian), read only:
//
//	offset 0: kind 'R' (1 byte; 'D' once deleted), reserved (1 byte)
//	offset 2: name length (uint16)
//	offset 4: series length n (uint32)
//	offset 8: CRC32 (IEEE) of the page with this field zeroed (uint32)
//	offset 12: reserved (uint32)
//	offset 16: mean, std (2 float64)
//	offset 32: raw[n], mags[n], phases[n] (3n float64)
//	then: name bytes
const recHeaderSize = 32

// recSize returns the size of a format-1 record page's contents.
func recSize(n, nameLen int) int { return recHeaderSize + 24*n + nameLen }

// half returns the number of spectrum coefficients a verify part holds.
func half(n int) int { return n/2 + 1 }

// verifySize returns the size of a verify part.
func verifySize(n int) int { return verifyHeaderSize + 16*half(n) }

// rawSize returns the size of a raw part.
func rawSize(n, nameLen int) int { return rawHeaderSize + 8*n + nameLen }

// insertSize returns the bytes an Append of a record writes to its page.
func insertSize(n, nameLen int) int { return pageHeaderSize + verifySize(n) + rawSize(n, nameLen) }

// MaxSeriesLength returns the longest series a record of the given name
// length can have and still be appended to a heap of pageSize pages.
func MaxSeriesLength(pageSize, nameLen int) int {
	n := (pageSize - nameLen) / 16
	for n > 0 && insertSize(n, nameLen) > pageSize {
		n--
	}
	return max(n, 0)
}

// Directory page layout:
//
//	offset 0: magic "HDR2" (format 2) or "HDIR" (format 1) (4 bytes)
//	offset 4: entry count in this page (uint32)
//	offset 8: next directory page (uint32, NilPage terminates)
//	offset 12: the page of each record's verify part (uint32 each);
//	           format 1: the record's one page
//
// The head page of a format-2 directory holds no entry (count 0) but,
// at offset 12, the raw pages of the packed records: their number, the
// first raw page and the raw parts per page (uint32 each). An entry is
// four bytes in both formats, so a directory page takes as many inserts
// in either, and the raw pages of the packed records cost three numbers,
// not one more per record.
var (
	dirMagic  = [4]byte{'H', 'D', 'R', '2'}
	dir1Magic = [4]byte{'H', 'D', 'I', 'R'}
)

const dirHeaderSize = 12

// dirEntries returns the number of entries directory page slot holds.
func (f *File) dirEntries(slot int) int {
	if f.split && slot == 0 {
		return 0
	}
	return (f.mgr.PageSize() - dirHeaderSize) / 4
}

// dirSlot returns the directory page that holds entry i.
func (f *File) dirSlot(i int) int {
	if f.split {
		return 1 + i/f.dirEntries(1)
	}
	return i / f.dirEntries(0)
}

// rawPage returns the page of record rec's raw part.
func (f *File) rawPage(rec int64) storage.PageID {
	if rec < int64(f.packed) {
		return f.rawFirst + storage.PageID(rec/int64(f.rawPerPage))
	}
	return f.verify[rec]
}

// ErrChecksum is the error of a record page whose contents fail their
// CRC: the page and the records on it are named in the error wrapping it.
var ErrChecksum = errors.New("checksum mismatch")

// Create allocates an empty heap on mgr for series of length n, in the
// split format. A record must fit a page together with its verify part:
// insertSize bytes with its name.
func Create(mgr *storage.Manager, n int) (*File, error) {
	if n <= 0 || insertSize(n, 0) > mgr.PageSize() {
		return nil, fmt.Errorf("heapfile: series length %d does not fit a %d-byte page", n, mgr.PageSize())
	}
	head, err := mgr.Alloc()
	if err != nil {
		return nil, err
	}
	f := &File{mgr: mgr, n: n, split: true, dirPages: []storage.PageID{head}, dirFrom: dirClean, buf: make([]byte, mgr.PageSize())}
	if err := f.writeDirectory(0); err != nil {
		return nil, err
	}
	return f, nil
}

// Open loads an existing heap whose directory starts at dirHead; the
// directory's magic says which format it is in (Split).
func Open(mgr *storage.Manager, dirHead storage.PageID, n int) (*File, error) {
	f := &File{mgr: mgr, n: n, dirFrom: dirClean, buf: make([]byte, mgr.PageSize())}
	buf := f.buf
	id := dirHead
	seen := make(map[storage.PageID]bool)
	for id != storage.NilPage {
		if seen[id] {
			return nil, fmt.Errorf("heapfile: corrupt directory: page %d linked twice (cycle)", id)
		}
		seen[id] = true
		if err := mgr.Read(id, buf); err != nil {
			return nil, fmt.Errorf("heapfile: reading directory page %d: %w", id, err)
		}
		switch magic := [4]byte(buf[:4]); {
		case len(f.dirPages) == 0 && (magic == dirMagic || magic == dir1Magic):
			f.split = magic == dirMagic
		case magic != dirMagic && magic != dir1Magic:
			return nil, fmt.Errorf("heapfile: bad directory magic on page %d", id)
		case (magic == dirMagic) != f.split:
			return nil, fmt.Errorf("heapfile: corrupt directory: page %d is in the other format", id)
		}
		slot := len(f.dirPages)
		f.dirPages = append(f.dirPages, id)
		count := int(binary.LittleEndian.Uint32(buf[4:]))
		if count > f.dirEntries(slot) {
			return nil, fmt.Errorf("heapfile: corrupt directory page %d: count %d", id, count)
		}
		if f.split && slot == 0 {
			f.packed = int(binary.LittleEndian.Uint32(buf[12:]))
			f.rawFirst = storage.PageID(binary.LittleEndian.Uint32(buf[16:]))
			f.rawPerPage = int(binary.LittleEndian.Uint32(buf[20:]))
			if f.packed > 0 && (f.rawFirst == storage.NilPage || f.rawPerPage < 1 || f.rawPerPage > maxParts) {
				return nil, fmt.Errorf("heapfile: corrupt directory page %d: raw parts from page %d, %d to a page", id, f.rawFirst, f.rawPerPage)
			}
		}
		next := storage.PageID(binary.LittleEndian.Uint32(buf[8:]))
		for i := 0; i < count; i++ {
			v := storage.PageID(binary.LittleEndian.Uint32(buf[dirHeaderSize+4*i:]))
			if v == storage.NilPage {
				return nil, fmt.Errorf("heapfile: corrupt directory page %d: entry %d is the nil page", id, i)
			}
			f.verify = append(f.verify, v)
		}
		id = next
	}
	if f.packed > len(f.verify) {
		return nil, fmt.Errorf("heapfile: corrupt directory: %d packed records of %d", f.packed, len(f.verify))
	}
	return f, nil
}

// DirHead returns the first directory page (needed to Open the heap).
func (f *File) DirHead() storage.PageID { return f.dirPages[0] }

// Split reports whether the heap's directory is in the split format
// (format 2); a heap written before the split reports false.
func (f *File) Split() bool { return f.split }

// Len returns the number of stored records.
func (f *File) Len() int { return len(f.verify) }

// SeriesLength returns the series length.
func (f *File) SeriesLength() int { return f.n }

// VerifyPerPage returns how many verify parts Pack puts on one page.
func (f *File) VerifyPerPage() int {
	return min((f.mgr.PageSize()-pageHeaderSize)/verifySize(f.n), maxParts)
}

// checkRec validates the arrays of a record to be written.
func (f *File) checkRec(r *Rec) error {
	if len(r.Raw) != f.n || len(r.Mags) != f.n || len(r.Phases) != f.n {
		return fmt.Errorf("heapfile: record arrays %d/%d/%d, want %d", len(r.Raw), len(r.Mags), len(r.Phases), f.n)
	}
	if len(r.Name) > math.MaxUint16 || pageHeaderSize+rawSize(f.n, len(r.Name)) > f.mgr.PageSize() {
		return fmt.Errorf("heapfile: record %q does not fit a page", r.Name)
	}
	return nil
}

// putHeader starts the page image in buf.
func (f *File) putHeader(buf []byte, kind byte, nv, nr int) {
	clear(buf)
	buf[0], buf[1], buf[2] = kind, byte(nv), byte(nr)
	binary.LittleEndian.PutUint32(buf[4:], uint32(f.n))
}

// putVerify encodes the verify part of record rec at dst.
func (f *File) putVerify(dst []byte, rec int64, r *Rec) {
	binary.LittleEndian.PutUint32(dst, uint32(rec))
	binary.LittleEndian.PutUint64(dst[8:], math.Float64bits(r.Mean))
	binary.LittleEndian.PutUint64(dst[16:], math.Float64bits(r.Std))
	h := half(f.n)
	putFloats(dst[verifyHeaderSize:], r.Mags[:h])
	putFloats(dst[verifyHeaderSize+8*h:], r.Phases[:h])
}

// putRaw encodes the raw part of record rec at dst and returns its size.
func (f *File) putRaw(dst []byte, rec int64, r *Rec) int {
	binary.LittleEndian.PutUint32(dst, uint32(rec))
	binary.LittleEndian.PutUint16(dst[4:], uint16(len(r.Name)))
	putFloats(dst[rawHeaderSize:], r.Raw)
	copy(dst[rawHeaderSize+8*f.n:], r.Name)
	return rawSize(f.n, len(r.Name))
}

func putFloats(dst []byte, src []float64) {
	for i, v := range src {
		binary.LittleEndian.PutUint64(dst[8*i:], math.Float64bits(v))
	}
}

// writePage seals the page image in buf with its CRC and writes it to a
// fresh page.
func (f *File) writePage(buf []byte) (storage.PageID, error) {
	binary.LittleEndian.PutUint32(buf[8:], crc32.ChecksumIEEE(buf))
	id, err := f.mgr.Alloc()
	if err != nil {
		return 0, err
	}
	return id, f.mgr.Write(id, buf)
}

// Append stores a record and returns its record number: both parts on
// one fresh page, whichever format the heap is in.
func (f *File) Append(r *Rec) (int64, error) {
	if err := f.checkRec(r); err != nil {
		return 0, err
	}
	if insertSize(f.n, len(r.Name)) > f.mgr.PageSize() {
		return 0, fmt.Errorf("heapfile: record %q does not fit a page", r.Name)
	}
	rec := int64(len(f.verify))
	buf := f.buf
	f.putHeader(buf, kindInsert, 1, 1)
	f.putVerify(buf[pageHeaderSize:], rec, r)
	f.putRaw(buf[pageHeaderSize+verifySize(f.n):], rec, r)
	id, err := f.writePage(buf)
	if err != nil {
		return 0, err
	}
	f.verify = append(f.verify, id)
	f.dirFrom = min(f.dirFrom, int(rec))
	return rec, nil
}

// Pack stores recs as the records of an empty split heap, recs[i] as
// record i, with their verify parts grouped onto pages as pages says:
// each group names the records whose verify parts share one page, in
// page order, every record exactly once, at most VerifyPerPage to a
// group. The raw parts follow in record order, as many to a page as the
// longest name lets fit on every page. Call Sync to make the records
// reopenable.
func (f *File) Pack(recs []*Rec, pages [][]int) error {
	if !f.split || len(f.verify) > 0 {
		return errors.New("heapfile: Pack into a heap that is not an empty split one")
	}
	seen := make([]bool, len(recs))
	for _, g := range pages {
		if len(g) == 0 || len(g) > f.VerifyPerPage() {
			return fmt.Errorf("heapfile: a verify page of %d records (at most %d)", len(g), f.VerifyPerPage())
		}
		for _, i := range g {
			if i < 0 || i >= len(recs) || seen[i] {
				return fmt.Errorf("heapfile: verify page groups name record %d twice or out of range", i)
			}
			seen[i] = true
		}
	}
	longest := 0
	for i, r := range recs {
		if !seen[i] {
			return fmt.Errorf("heapfile: record %d is in no verify page group", i)
		}
		if err := f.checkRec(r); err != nil {
			return err
		}
		longest = max(longest, len(r.Name))
	}
	verify := make([]storage.PageID, len(recs))
	buf, vs := f.buf, verifySize(f.n)
	for _, g := range pages {
		f.putHeader(buf, kindVerify, len(g), 0)
		for j, i := range g {
			f.putVerify(buf[pageHeaderSize+j*vs:], int64(i), recs[i])
		}
		id, err := f.writePage(buf)
		if err != nil {
			return err
		}
		for _, i := range g {
			verify[i] = id
		}
	}
	perPage := min((len(buf)-pageHeaderSize)/rawSize(f.n, longest), maxParts)
	for lo := 0; lo < len(recs); lo += perPage {
		hi, off := min(lo+perPage, len(recs)), pageHeaderSize
		f.putHeader(buf, kindSeries, 0, hi-lo)
		for i := lo; i < hi; i++ {
			off += f.putRaw(buf[off:], int64(i), recs[i])
		}
		id, err := f.writePage(buf)
		if err != nil {
			return err
		}
		if lo == 0 {
			f.rawFirst = id
		} else if id != f.rawFirst+storage.PageID(lo/perPage) {
			return fmt.Errorf("heapfile: raw page %d allocated out of sequence", id)
		}
	}
	f.verify, f.packed, f.rawPerPage = verify, len(recs), perPage
	f.dirFrom = 0
	return nil
}

// checkPage validates a record page image: its kind, series length and
// CRC, and that its parts lie inside it. The CRC field is zeroed for the
// checksum and restored afterwards, so an image may be checked more than
// once. A format-1 tombstone has nothing to check.
func (f *File) checkPage(buf []byte) error {
	kind := buf[0]
	switch kind {
	case kindTomb:
		return nil
	case kindRecord, kindVerify, kindSeries, kindInsert:
	default:
		return fmt.Errorf("not a record page (kind %q)", kind)
	}
	stored := binary.LittleEndian.Uint32(buf[8:])
	binary.LittleEndian.PutUint32(buf[8:], 0)
	sum := crc32.ChecksumIEEE(buf)
	binary.LittleEndian.PutUint32(buf[8:], stored)
	if sum != stored {
		return ErrChecksum
	}
	if n := int(binary.LittleEndian.Uint32(buf[4:])); n != f.n {
		return fmt.Errorf("series length %d, heap expects %d", n, f.n)
	}
	if kind == kindRecord {
		if nameLen := int(binary.LittleEndian.Uint16(buf[2:])); recSize(f.n, nameLen) > len(buf) {
			return fmt.Errorf("record overflows its page (name length %d)", nameLen)
		}
		return nil
	}
	nv, nr := int(buf[1]), int(buf[2])
	if kind == kindVerify && (nv == 0 || nr != 0) || kind == kindSeries && (nv != 0 || nr == 0) || kind == kindInsert && (nv != 1 || nr != 1) {
		return fmt.Errorf("%d verify and %d raw parts on a page of kind %q", nv, nr, kind)
	}
	off := pageHeaderSize + nv*verifySize(f.n)
	for i := 0; i < nr && off <= len(buf); i++ {
		if off+rawHeaderSize > len(buf) {
			off = len(buf) + 1
			break
		}
		off += rawSize(f.n, int(binary.LittleEndian.Uint16(buf[off+4:])))
	}
	if off > len(buf) {
		return errors.New("parts overflow the page")
	}
	return nil
}

// verifyAt returns the offset of record rec's verify part in the checked
// page image buf and whether it is live. A format-1 page holds its one
// record's parts at fixed places, and its id is the directory's.
func (f *File) verifyAt(buf []byte, rec int64) (off int, live bool, err error) {
	switch buf[0] {
	case kindTomb:
		return 0, false, nil
	case kindRecord:
		return 0, true, nil
	}
	vs := verifySize(f.n)
	for i := 0; i < int(buf[1]); i++ {
		off := pageHeaderSize + i*vs
		if int64(binary.LittleEndian.Uint32(buf[off:])) == rec {
			return off, binary.LittleEndian.Uint32(buf[off+4:])&flagDeleted == 0, nil
		}
	}
	return 0, false, fmt.Errorf("no verify part of record %d", rec)
}

// rawAt returns the offset of record rec's raw part in the checked page
// image buf, its name length and whether it is live.
func (f *File) rawAt(buf []byte, rec int64) (off, nameLen int, live bool, err error) {
	switch buf[0] {
	case kindTomb:
		return 0, 0, false, nil
	case kindRecord:
		return 0, int(binary.LittleEndian.Uint16(buf[2:])), true, nil
	}
	off = pageHeaderSize + int(buf[1])*verifySize(f.n)
	for i := 0; i < int(buf[2]); i++ {
		nameLen = int(binary.LittleEndian.Uint16(buf[off+4:]))
		if int64(binary.LittleEndian.Uint32(buf[off:])) == rec {
			return off, nameLen, binary.LittleEndian.Uint16(buf[off+6:])&flagDeleted == 0, nil
		}
		off += rawSize(f.n, nameLen)
	}
	return 0, 0, false, fmt.Errorf("no raw part of record %d", rec)
}

// View is a record's verify part decoded in place by Visit: the mean, the
// standard deviation and the polar spectrum. Mags and Phases are n long
// and hold f = 0..n/2; the upper half is NaN, because it is not stored
// (transform.Verify's symmetric sums never read it). The arrays belong
// to the fetch's Scratch and must not be written, and a View is valid
// only until the visit callback returns: copy what outlives it.
type View struct {
	Mean, Std float64
	Mags      []float64
	Phases    []float64
}

// RawView is a record's raw part decoded in place by VisitRaw: the
// series and the name, which aliases the page image. It is valid only
// until the visit callback returns.
type RawView struct {
	Name []byte
	Raw  []float64
}

// decodeVerify decodes record rec's verify part from the checked page
// image buf into v, reusing v's arrays. It reports false for a deleted
// record; on an error or a deletion v's arrays are emptied, so a reused
// v never shows the previous record.
func (f *File) decodeVerify(buf []byte, rec int64, v *View) (live bool, err error) {
	*v = View{Mags: v.Mags[:0], Phases: v.Phases[:0]}
	off, live, err := f.verifyAt(buf, rec)
	if err != nil || !live {
		return false, err
	}
	n, h := f.n, half(f.n)
	stats, mags, phases := off+8, off+verifyHeaderSize, off+verifyHeaderSize+8*h
	if buf[0] == kindRecord {
		stats, mags, phases = 16, recHeaderSize+8*n, recHeaderSize+16*n
	}
	v.Mean = math.Float64frombits(binary.LittleEndian.Uint64(buf[stats:]))
	v.Std = math.Float64frombits(binary.LittleEndian.Uint64(buf[stats+8:]))
	v.Mags = decodeHalf(v.Mags, n, buf[mags:])
	v.Phases = decodeHalf(v.Phases, n, buf[phases:])
	return true, nil
}

// decodeRaw decodes record rec's raw part from the checked page image
// buf into v, reusing v.Raw, with the same contract as decodeVerify.
func (f *File) decodeRaw(buf []byte, rec int64, v *RawView) (live bool, err error) {
	v.Name, v.Raw = nil, v.Raw[:0]
	off, nameLen, live, err := f.rawAt(buf, rec)
	if err != nil || !live {
		return false, err
	}
	if buf[0] == kindRecord {
		v.Raw = decodeFloats(v.Raw, f.n, buf[recHeaderSize:])
		v.Name = buf[recSize(f.n, 0):][:nameLen]
		return true, nil
	}
	v.Raw = decodeFloats(v.Raw, f.n, buf[off+rawHeaderSize:])
	v.Name = buf[off+rawSize(f.n, 0):][:nameLen]
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

// decodeHalf decodes the n/2+1 stored coefficients from src into an
// n-long dst whose upper half is NaN. A dst with room is one this
// function made, so its upper half is NaN already.
func decodeHalf(dst []float64, n int, src []byte) []float64 {
	if cap(dst) < n {
		dst = make([]float64, n)
		for i := half(n); i < n; i++ {
			dst[i] = math.NaN()
		}
	}
	dst = dst[:n]
	for i := range half(n) {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
	}
	return dst
}

// pageErr names the page and the records on it in a failure to read or
// decode it: "records 3, 7, 9", at most sixteen listed.
func (f *File) pageErr(id storage.PageID, err error) error {
	recs := f.RecordsOn(id)
	var names []string
	for _, rec := range recs[:min(len(recs), 16)] {
		names = append(names, fmt.Sprint(rec))
	}
	what := "no records"
	switch {
	case len(recs) > 16:
		what = fmt.Sprintf("records %s and %d more", strings.Join(names, ", "), len(recs)-16)
	case len(recs) > 1:
		what = "records " + strings.Join(names, ", ")
	case len(recs) == 1:
		what = "record " + names[0]
	}
	return fmt.Errorf("heapfile: page %d (%s): %w", id, what, err)
}

// RecordsOn returns the records with a part on page id, in record order.
func (f *File) RecordsOn(id storage.PageID) []int64 {
	var recs []int64
	for rec := range int64(len(f.verify)) {
		if f.verify[rec] == id || f.rawPage(rec) == id {
			recs = append(recs, rec)
		}
	}
	return recs
}

// Read fetches the raw part of record rec, one page access: its name and
// series. A deleted record returns (nil, nil).
func (f *File) Read(rec int64) (*Rec, error) {
	return f.ReadCtx(nil, rec)
}

// ReadCtx is Read with per-query attribution: when ctx carries a
// storage.QueryIO, the page fetch is credited to it — the Eq. 18
// "retrieve" term becomes observable per query. A nil ctx behaves
// exactly like Read.
func (f *File) ReadCtx(ctx context.Context, rec int64) (*Rec, error) {
	out, err := f.FetchBatch(ctx, []int64{rec})
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

func (f *File) inRange(rec int64) error {
	if rec < 0 || rec >= int64(len(f.verify)) {
		return fmt.Errorf("heapfile: record %d out of range [0, %d)", rec, len(f.verify))
	}
	return nil
}

// Scratch is the reusable state of a batch fetch: the run buffer, the
// page order of the ids and the decode slots Visit and VisitRaw hand to
// their callbacks. The zero value is ready to use. A Scratch serves one
// fetch at a time; its run buffer never grows past maxRun pages.
type Scratch struct {
	run  []byte
	by   pageOrder
	slot View
	raw  RawView
}

// Bytes returns the memory the scratch holds on to, for callers that cap
// what they keep between fetches.
func (s *Scratch) Bytes() int {
	return cap(s.run) + 4*cap(s.by.order) + 8*(cap(s.slot.Mags)+cap(s.slot.Phases)+cap(s.raw.Raw))
}

// pageOrder sorts the positions of ids by the page of the part a fetch
// reads, ties by position. It lives in the Scratch so that sort.Sort is
// handed a pointer that is on the heap already.
type pageOrder struct {
	f     *File
	raw   bool
	ids   []int64
	order []int32
}

// page returns the page of the part of the record at position i.
func (o *pageOrder) page(i int32) storage.PageID {
	if o.raw {
		return o.f.rawPage(o.ids[i])
	}
	return o.f.verify[o.ids[i]]
}

func (o *pageOrder) Len() int      { return len(o.order) }
func (o *pageOrder) Swap(a, b int) { o.order[a], o.order[b] = o.order[b], o.order[a] }
func (o *pageOrder) Less(a, b int) bool {
	pa, pb := o.page(o.order[a]), o.page(o.order[b])
	if pa != pb {
		return pa < pb
	}
	return o.order[a] < o.order[b]
}

// maxRun is the most pages fetch reads with one call, which bounds the
// run buffer a Scratch keeps: the verify parts of a bulk build lie in
// tree-leaf order, so a probe's candidates fall on long runs of pages.
const maxRun = 16

// fetch services the page I/O of a batch in ascending page order, of
// the records' raw parts or their verify parts: the ids are sorted by
// page, maximal runs of consecutive pages are read with one
// storage.ReadRunCtx call each (one backend access plus readahead on
// run-capable backends), and each page is fetched and checked once per
// call, however many of the ids it holds. part is called once per id, in
// page order, with the id's position in ids and its checked page image,
// valid until part returns. The run buffer and the order come from s.
func (f *File) fetch(ctx context.Context, ids []int64, raw bool, s *Scratch, part func(i int, buf []byte) error) error {
	for _, rec := range ids {
		if err := f.inRange(rec); err != nil {
			return err
		}
	}
	by := &s.by
	by.f, by.raw, by.ids, by.order = f, raw, ids, by.order[:0]
	for i := range ids {
		by.order = append(by.order, int32(i))
	}
	sort.Sort(by)
	defer func() { by.f, by.ids = nil, nil }() // not the scratch's to keep
	order := by.order
	ps := f.mgr.PageSize()
	for start := 0; start < len(order); {
		// Extend the run while page ids stay consecutive (or repeat), up
		// to maxRun pages.
		end, distinct := start+1, 1
		for end < len(order) {
			prev, cur := by.page(order[end-1]), by.page(order[end])
			if cur == prev {
				end++
				continue
			}
			if cur == prev+1 && distinct < maxRun {
				end++
				distinct++
				continue
			}
			break
		}
		first := by.page(order[start])
		if need := distinct * ps; cap(s.run) < need {
			s.run = make([]byte, min(max(need, 2*cap(s.run)), maxRun*ps))
		}
		buf := s.run[:distinct*ps]
		if err := f.mgr.ReadRunCtx(ctx, first, distinct, buf); err != nil {
			var ce *storage.ChecksumError
			if errors.As(err, &ce) {
				return f.pageErr(ce.Page, err)
			}
			return fmt.Errorf("heapfile: batch-fetching records: %w", err)
		}
		for j := start; j < end; j++ {
			idx := int(order[j])
			id := by.page(order[j])
			page := buf[int(id-first)*ps:][:ps]
			if j == start || id != by.page(order[j-1]) {
				if err := f.checkPage(page); err != nil {
					return f.pageErr(id, err)
				}
			}
			if err := part(idx, page); err != nil {
				return err
			}
		}
		start = end
	}
	return nil
}

// Visit fetches the verify parts of the given records with the
// page-ordered, run-batched I/O of fetch — a page that holds several of
// them is read once — decodes each into the one slot of s and passes it
// to visit with its position in ids, in page order, not in the order of
// ids, and nil for a deleted record. The View is valid until visit
// returns. With a warm s, Visit allocates nothing per page and nothing
// per record. A page that fails its check stops the fetch before visit
// sees any record on it.
func (f *File) Visit(ctx context.Context, ids []int64, s *Scratch, visit func(i int, v *View) error) error {
	return f.fetch(ctx, ids, false, s, func(i int, buf []byte) error {
		live, err := f.decodeVerify(buf, ids[i], &s.slot)
		if err != nil {
			return f.pageErr(f.verify[ids[i]], err)
		}
		if !live {
			return visit(i, nil)
		}
		return visit(i, &s.slot)
	})
}

// VisitRaw is Visit over the records' raw parts: their series and names.
func (f *File) VisitRaw(ctx context.Context, ids []int64, s *Scratch, visit func(i int, v *RawView) error) error {
	return f.fetch(ctx, ids, true, s, func(i int, buf []byte) error {
		live, err := f.decodeRaw(buf, ids[i], &s.raw)
		if err != nil {
			return f.pageErr(f.rawPage(ids[i]), err)
		}
		if !live {
			return visit(i, nil)
		}
		return visit(i, &s.raw)
	})
}

// FetchBatch fetches the raw parts of the given records with the I/O of
// VisitRaw. The result is parallel to ids — out[i] is the record for
// ids[i], its name and series, nil if deleted — so callers keep their
// own order while the underlying I/O happens in file order. Every record
// is owned by the caller.
func (f *File) FetchBatch(ctx context.Context, ids []int64) ([]*Rec, error) {
	out := make([]*Rec, len(ids))
	err := f.VisitRaw(ctx, ids, new(Scratch), func(i int, v *RawView) error {
		if v != nil {
			out[i] = &Rec{Name: string(v.Name), Raw: append([]float64(nil), v.Raw...)}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Delete marks record rec deleted: subsequent reads return (nil, nil).
// Both of its parts are marked, so a verify fetch and a raw one agree;
// the pages stay allocated so record numbers remain stable.
func (f *File) Delete(rec int64) error {
	if err := f.inRange(rec); err != nil {
		return err
	}
	if err := f.tombstone(f.verify[rec], rec); err != nil {
		return err
	}
	if raw := f.rawPage(rec); raw != f.verify[rec] {
		return f.tombstone(raw, rec)
	}
	return nil
}

// tombstone marks every part of rec on page id deleted and rewrites the
// page. A format-1 page becomes a tombstone page.
func (f *File) tombstone(id storage.PageID, rec int64) error {
	buf := f.buf
	if err := f.mgr.Read(id, buf); err != nil {
		return f.pageErr(id, err)
	}
	if err := f.checkPage(buf); err != nil {
		return f.pageErr(id, err)
	}
	switch buf[0] {
	case kindTomb:
		return nil
	case kindRecord:
		buf[0] = kindTomb
		return f.mgr.Write(id, buf)
	}
	marked := false
	if off, _, err := f.verifyAt(buf, rec); err == nil {
		binary.LittleEndian.PutUint32(buf[off+4:], binary.LittleEndian.Uint32(buf[off+4:])|flagDeleted)
		marked = true
	}
	if off, _, _, err := f.rawAt(buf, rec); err == nil {
		binary.LittleEndian.PutUint16(buf[off+6:], binary.LittleEndian.Uint16(buf[off+6:])|flagDeleted)
		marked = true
	}
	if !marked {
		return f.pageErr(id, fmt.Errorf("no part of record %d", rec))
	}
	binary.LittleEndian.PutUint32(buf[8:], 0)
	binary.LittleEndian.PutUint32(buf[8:], crc32.ChecksumIEEE(buf))
	return f.mgr.Write(id, buf)
}

// MemState is a snapshot of the heap's in-memory bookkeeping, taken
// before a mutation so a failed mutation can be unwound without
// touching the pages it may have written (see RestoreMemState).
type MemState struct {
	records  int
	dirPages int
	dirFrom  int
}

// MemState snapshots the current bookkeeping.
func (f *File) MemState() MemState {
	return MemState{records: len(f.verify), dirPages: len(f.dirPages), dirFrom: f.dirFrom}
}

// RestoreMemState rolls the in-memory bookkeeping back to a snapshot
// taken by MemState. It neither rewrites nor frees any page: callers
// pair it with a storage-level rollback (an aborted staged transaction)
// that discards the page writes and returns every page grown during the
// transaction — including the ones dropped here — to the allocator.
func (f *File) RestoreMemState(s MemState) {
	f.verify = f.verify[:s.records]
	f.dirPages = f.dirPages[:s.dirPages]
	f.dirFrom = s.dirFrom
}

// Unappend removes record rec, which must be the most recent append,
// from the heap and returns its page to the allocator. It is the
// unwind path for a failed insert on an unstaged (in-memory) backend,
// where the appended page is already durable but nothing references it
// yet. The directory is left dirty so the next Sync drops the entry.
func (f *File) Unappend(rec int64) error {
	last := int64(len(f.verify)) - 1
	if rec != last || rec < int64(f.packed) {
		return fmt.Errorf("heapfile: unappend of record %d, last appended is %d", rec, last)
	}
	id := f.verify[rec]
	f.verify = f.verify[:rec]
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
	first := 0 // a change of entry 0 also links the page it opens
	if f.dirFrom > 0 {
		first = f.dirSlot(f.dirFrom - 1)
	}
	if err := f.writeDirectory(first); err != nil {
		return err
	}
	f.dirFrom = dirClean
	return nil
}

// writeDirectory rewrites the directory chain from the record locations,
// starting at its page first, extending the chain with fresh pages as it
// grows (the heap is append-only, so the chain never shrinks).
func (f *File) writeDirectory(first int) error {
	magic := dir1Magic
	if f.split {
		magic = dirMagic
	}
	buf := f.buf
	from := 0
	for slot := range first {
		from += f.dirEntries(slot)
	}
	for slot := first; ; slot++ {
		count := min(len(f.verify)-from, f.dirEntries(slot))
		var next storage.PageID
		if from+count < len(f.verify) {
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
		copy(buf, magic[:])
		binary.LittleEndian.PutUint32(buf[4:], uint32(count))
		binary.LittleEndian.PutUint32(buf[8:], uint32(next))
		if f.split && slot == 0 {
			binary.LittleEndian.PutUint32(buf[12:], uint32(f.packed))
			binary.LittleEndian.PutUint32(buf[16:], uint32(f.rawFirst))
			binary.LittleEndian.PutUint32(buf[20:], uint32(f.rawPerPage))
		}
		for i := 0; i < count; i++ {
			binary.LittleEndian.PutUint32(buf[dirHeaderSize+4*i:], uint32(f.verify[from+i]))
		}
		if err := f.mgr.Write(f.dirPages[slot], buf); err != nil {
			return err
		}
		from += count
		if next == storage.NilPage {
			return nil
		}
	}
}
