package storage

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
)

// StagedPage is one page buffered by a StagedBackend transaction: the
// logical page id and its full after-image.
type StagedPage struct {
	ID   PageID
	Data []byte
}

// StagedBackend interposes between the Manager and the durable page
// stack and buffers every page write of an open transaction in memory
// instead of letting it reach the file. It is the mechanism behind the
// WAL's write-ahead ordering: the index applies a whole Insert/Delete
// against the overlay, hands the set of after-images to the log, and
// only after the log record is durable flushes the overlay below
// (Commit). Until then the file is untouched, so an abort (Abort) or a
// crash before the log fsync leaves no trace of the operation on disk,
// and a crash after it is healed by replaying the logged images.
//
// Reads during a transaction see the overlay first, so the index
// observes its own uncommitted writes (required: an insert reads the
// tree nodes it just split). Writes outside a transaction pass straight
// through, preserving the bulk-load/create path unchanged.
//
// The backend itself is safe for concurrent use, but a transaction is
// single-writer by construction: callers serialise Begin..Commit/Abort
// externally (the DB facade holds its write lock across the whole
// operation).
type StagedBackend struct {
	mu      sync.RWMutex
	inner   Backend
	overlay map[PageID][]byte
	// view is the overlay in ascending page order, what Staged returns and
	// Commit flushes; it is emptied when a page joins the overlay and
	// rebuilt on demand.
	view []StagedPage
	// idle holds the frames of finished transactions for the next ones,
	// at most maxIdleFrames of them.
	idle   [][]byte
	grown  []PageID
	active bool
}

// maxIdleFrames bounds the page buffers a StagedBackend keeps between
// transactions (256 KiB at 4 KiB pages). An insert stages about seven
// pages; a transaction that staged more hands the rest to the collector.
const maxIdleFrames = 64

// NewStagedBackend wraps inner.
func NewStagedBackend(inner Backend) *StagedBackend {
	return &StagedBackend{inner: inner, overlay: make(map[PageID][]byte)}
}

// Begin opens a transaction: subsequent writes are buffered until
// Commit or Abort. Begin with a transaction already open panics — it
// would silently merge two operations' images.
func (b *StagedBackend) Begin() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.active {
		panic("storage: StagedBackend.Begin with a transaction already open")
	}
	b.active = true
}

// end closes the transaction: the overlay's frames go idle and the map
// and the lists are emptied in place.
func (b *StagedBackend) end() {
	for _, data := range b.overlay {
		if len(b.idle) < maxIdleFrames {
			b.idle = append(b.idle, data)
		}
	}
	clear(b.overlay)
	b.view = b.view[:0]
	b.grown = b.grown[:0]
	b.active = false
}

// sorted returns the overlay in ascending page order. Callers hold mu.
func (b *StagedBackend) sorted() []StagedPage {
	if len(b.view) == 0 {
		for id, data := range b.overlay {
			b.view = append(b.view, StagedPage{ID: id, Data: data})
		}
		slices.SortFunc(b.view, func(x, y StagedPage) int { return cmp.Compare(x.ID, y.ID) })
	}
	return b.view
}

// Active reports whether a transaction is open.
func (b *StagedBackend) Active() bool {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.active
}

// Staged returns the transaction's page after-images in ascending page
// order. The slice and the data alias the backend's own buffers and are
// valid until the next write, Commit or Abort.
func (b *StagedBackend) Staged() []StagedPage {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sorted()
}

// Commit flushes the overlay to the inner backend in ascending page
// order and closes the transaction. On error the transaction is still
// closed and the flush may be torn mid-page-set; the caller is expected
// to have made the operation durable in the WAL first, so recovery
// rewrites every image on the next open.
func (b *StagedBackend) Commit() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.active {
		return fmt.Errorf("storage: StagedBackend.Commit without a transaction")
	}
	var firstErr error
	for _, p := range b.sorted() {
		if err := b.inner.WritePage(p.ID, p.Data); err != nil {
			firstErr = err
			break
		}
	}
	b.end()
	return firstErr
}

// Abort discards the overlay without touching the inner backend and
// returns the staged page ids plus the pages grown during the
// transaction, so the caller can evict stale buffer-pool entries and
// return grown pages to the allocator.
func (b *StagedBackend) Abort() (staged, grown []PageID) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.active {
		return nil, nil
	}
	for _, p := range b.sorted() {
		staged = append(staged, p.ID)
	}
	grown = slices.Clone(b.grown)
	b.end()
	return staged, grown
}

// ReadPage implements Backend: overlay first, then the inner backend.
func (b *StagedBackend) ReadPage(id PageID, buf []byte) error {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.readLocked(id, buf)
}

func (b *StagedBackend) readLocked(id PageID, buf []byte) error {
	if b.active {
		if data, ok := b.overlay[id]; ok {
			copy(buf, data)
			return nil
		}
	}
	return b.inner.ReadPage(id, buf)
}

// WritePage implements Backend: buffered while a transaction is open,
// pass-through otherwise.
func (b *StagedBackend) WritePage(id PageID, buf []byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.active {
		return b.inner.WritePage(id, buf)
	}
	data, ok := b.overlay[id]
	if !ok || len(data) != len(buf) {
		if n := len(b.idle); n > 0 && len(b.idle[n-1]) == len(buf) {
			data, b.idle = b.idle[n-1], b.idle[:n-1]
		} else {
			data = make([]byte, len(buf))
		}
		b.overlay[id] = data
		b.view = b.view[:0]
	}
	copy(data, buf)
	return nil
}

// Grow implements Backend. Growth always reaches the inner backend —
// extending the file early is harmless (a crash leaves unreferenced
// tail pages, which recovery overwrites or the scrubber reports as
// tail bytes) and it keeps backends that demand Grow-before-write
// working under the overlay. Pages grown inside a transaction are
// recorded for Abort.
func (b *StagedBackend) Grow(id PageID) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if err := b.inner.Grow(id); err != nil {
		return err
	}
	if b.active {
		b.grown = append(b.grown, id)
	}
	return nil
}

// ReadRun implements RunReader. A run overlapping the overlay is served
// page by page so staged images win; otherwise it delegates to the
// inner backend's run read (or a page loop when it has none).
func (b *StagedBackend) ReadRun(first PageID, n int, buf []byte) error {
	if n <= 0 {
		return nil
	}
	ps := len(buf) / n
	b.mu.RLock()
	defer b.mu.RUnlock()
	overlap := false
	if b.active {
		for i := 0; i < n; i++ {
			if _, ok := b.overlay[first+PageID(i)]; ok {
				overlap = true
				break
			}
		}
	}
	if !overlap {
		if rr, ok := b.inner.(RunReader); ok {
			return rr.ReadRun(first, n, buf)
		}
	}
	for i := 0; i < n; i++ {
		if err := b.readLocked(first+PageID(i), buf[i*ps:(i+1)*ps]); err != nil {
			return err
		}
	}
	return nil
}

// Sync implements Syncer when the inner backend does.
func (b *StagedBackend) Sync() error {
	if s, ok := b.inner.(Syncer); ok {
		return s.Sync()
	}
	return nil
}

// Close implements Backend. Closing with a transaction open discards
// the overlay (the operation was never acknowledged unless its WAL
// record is durable, in which case recovery re-applies it).
func (b *StagedBackend) Close() error {
	b.mu.Lock()
	b.end()
	b.mu.Unlock()
	return b.inner.Close()
}
