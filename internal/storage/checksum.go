package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sync"
)

// ChecksumTrailerSize is the number of bytes ChecksumBackend reserves at
// the physical end of every page for its trailer.
const ChecksumTrailerSize = 8

// checksumMarker tags a page trailer as written by ChecksumBackend. It
// distinguishes "checksum mismatch" (bit rot, torn write) from "no
// checksum was ever written here" (a page from before the format gained
// trailers, or a never-written page) in error reports.
var checksumMarker = [4]byte{'T', 'S', 'Q', 'C'}

// castagnoli is the CRC32C polynomial table. CRC32C has hardware support
// on amd64/arm64, so the per-page cost is a few ns.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ChecksumError reports a page whose contents failed checksum
// verification on read. It unwraps to nothing: a checksum failure is a
// terminal diagnosis, not a transport error.
type ChecksumError struct {
	Page PageID
	// Missing is true when the trailer marker is absent entirely — the
	// page was never written through a ChecksumBackend — as opposed to
	// present but mismatched (corruption of a once-valid page).
	Missing bool
}

func (e *ChecksumError) Error() string {
	if e.Missing {
		return fmt.Sprintf("storage: page %d has no checksum trailer (torn or never-written page)", e.Page)
	}
	return fmt.Sprintf("storage: page %d failed checksum verification", e.Page)
}

// ChecksumBackend wraps a Backend, storing a CRC32C trailer in the last
// ChecksumTrailerSize bytes of every physical page and verifying it on
// every read. Callers see a logical page that is trailer-sized smaller
// than the physical page: LogicalPageSize() = physical − 8. The checksum
// covers the logical payload plus the page id, so a structurally valid
// page read back from the wrong offset (a misdirected write) also fails
// verification.
//
// Trailer layout (little endian): marker "TSQC" at offset L, CRC32C at
// offset L+4, where L is the logical page size.
type ChecksumBackend struct {
	inner    Backend
	physSize int
	logSize  int
	// scratch holds *[]byte of at least physSize, reused across reads and
	// writes. A run read grows the buffer it draws; a buffer grown past
	// maxScratchPages pages is not put back.
	scratch sync.Pool
}

// maxScratchPages caps the scratch buffer a run read leaves in the pool.
const maxScratchPages = 256

// NewChecksumBackend wraps inner, whose pages are physPageSize bytes.
// The wrapper exposes pages of physPageSize − ChecksumTrailerSize bytes.
func NewChecksumBackend(inner Backend, physPageSize int) *ChecksumBackend {
	b := &ChecksumBackend{
		inner:    inner,
		physSize: physPageSize,
		logSize:  physPageSize - ChecksumTrailerSize,
	}
	b.scratch.New = func() any {
		s := make([]byte, physPageSize)
		return &s
	}
	return b
}

// LogicalPageSize returns the page size callers of this backend see.
func (b *ChecksumBackend) LogicalPageSize() int { return b.logSize }

// pageCRC computes the trailer checksum for page id with payload data:
// the CRC32C of data followed by the little-endian id. The four id bytes
// are folded through the table here, one step of the byte-wise CRC each
// (crc32.Update would take them as a slice that escapes to the heap),
// which yields exactly crc32.Update(crc32.Checksum(data, castagnoli),
// castagnoli, idBytes).
func pageCRC(id PageID, data []byte) uint32 {
	crc := ^crc32.Checksum(data, castagnoli)
	for shift := 0; shift < 32; shift += 8 {
		crc = castagnoli[byte(crc)^byte(uint32(id)>>shift)] ^ (crc >> 8)
	}
	return ^crc
}

// verify checks the trailer of the physical page image phys for page id.
func (b *ChecksumBackend) verify(id PageID, phys []byte) error {
	trailer := phys[b.logSize:b.physSize]
	if [4]byte(trailer[:4]) != checksumMarker {
		return &ChecksumError{Page: id, Missing: true}
	}
	if binary.LittleEndian.Uint32(trailer[4:]) != pageCRC(id, phys[:b.logSize]) {
		return &ChecksumError{Page: id}
	}
	return nil
}

// ReadPage implements Backend: the physical page is read, its trailer
// verified, and the logical payload copied into buf.
func (b *ChecksumBackend) ReadPage(id PageID, buf []byte) error {
	sp := b.scratch.Get().(*[]byte)
	phys := (*sp)[:b.physSize]
	defer b.scratch.Put(sp)
	if err := b.inner.ReadPage(id, phys); err != nil {
		return err
	}
	if err := b.verify(id, phys); err != nil {
		return err
	}
	copy(buf[:b.logSize], phys)
	return nil
}

// ReadRun implements RunReader when the inner backend does: one inner
// run read, then per-page verification and payload extraction. When the
// inner backend lacks RunReader the manager never calls this (the
// interface assertion on the manager side sees through to this wrapper,
// so ReadRun falls back to page-at-a-time inner reads).
func (b *ChecksumBackend) ReadRun(first PageID, n int, buf []byte) error {
	rr, ok := b.inner.(RunReader)
	if !ok {
		for i := 0; i < n; i++ {
			if err := b.ReadPage(first+PageID(i), buf[i*b.logSize:(i+1)*b.logSize]); err != nil {
				return err
			}
		}
		return nil
	}
	sp := b.scratch.Get().(*[]byte)
	need := n * b.physSize
	if cap(*sp) < need {
		*sp = make([]byte, max(need, 2*cap(*sp)))
	}
	if cap(*sp) <= maxScratchPages*b.physSize {
		defer b.scratch.Put(sp)
	}
	phys := (*sp)[:need]
	if err := rr.ReadRun(first, n, phys); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		page := phys[i*b.physSize : (i+1)*b.physSize]
		if err := b.verify(first+PageID(i), page); err != nil {
			return err
		}
		copy(buf[i*b.logSize:(i+1)*b.logSize], page)
	}
	return nil
}

// WritePage implements Backend: the logical payload is framed with its
// trailer and written as one physical page.
func (b *ChecksumBackend) WritePage(id PageID, buf []byte) error {
	sp := b.scratch.Get().(*[]byte)
	phys := (*sp)[:b.physSize]
	defer b.scratch.Put(sp)
	copy(phys, buf[:b.logSize])
	copy(phys[b.logSize:], checksumMarker[:])
	binary.LittleEndian.PutUint32(phys[b.logSize+4:], pageCRC(id, phys[:b.logSize]))
	return b.inner.WritePage(id, phys)
}

// Grow implements Backend.
func (b *ChecksumBackend) Grow(id PageID) error { return b.inner.Grow(id) }

// Sync implements Syncer by delegating when the inner backend supports it.
func (b *ChecksumBackend) Sync() error {
	if s, ok := b.inner.(Syncer); ok {
		return s.Sync()
	}
	return nil
}

// Close implements Backend.
func (b *ChecksumBackend) Close() error { return b.inner.Close() }
