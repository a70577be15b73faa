// Package storage implements the paged storage manager underneath the
// R*-tree: fixed-size pages allocated from a memory- or file-backed page
// file, a pin-counted LRU buffer pool, and the disk-access counters the
// paper's evaluation reports. One index node occupies exactly one page, so
// "number of disk accesses" in the experiments is the number of page
// fetches that miss the buffer (with the default zero-capacity pool, every
// fetch — the convention the paper's numbers use).
package storage

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
)

// PageID identifies a page within a page file. The zero value is never a
// valid page, so it can be used as a nil reference.
type PageID uint32

// NilPage is the invalid page id.
const NilPage PageID = 0

// DefaultPageSize is the page size used when none is specified.
const DefaultPageSize = 4096

// Stats counts the physical operations performed by a Manager.
type Stats struct {
	Reads      int64 // page reads that reached the backend
	Writes     int64 // page writes that reached the backend
	Allocs     int64 // pages allocated
	Frees      int64 // pages freed
	Hits       int64 // buffer pool hits (reads served without backend access)
	Prefetched int64 // pages delivered by the tail of a batched run read

	// IOErrors counts backend page operations that failed; the error is
	// always surfaced to the caller, never hidden. ChecksumFailures is
	// the subset of those rejected by the per-page checksum.
	IOErrors         int64
	ChecksumFailures int64
}

// Backend is the raw page store under the manager.
type Backend interface {
	// ReadPage fills buf with the contents of page id.
	ReadPage(id PageID, buf []byte) error
	// WritePage stores buf as the contents of page id.
	WritePage(id PageID, buf []byte) error
	// Grow ensures the backend can hold page id.
	Grow(id PageID) error
	// Close releases backend resources.
	Close() error
}

// Syncer is an optional Backend capability: flushing buffered writes to
// stable storage. Backends without it (MemBackend) have nothing to sync.
type Syncer interface {
	// Sync flushes all completed writes to durable storage.
	Sync() error
}

// RunReader is an optional Backend capability: fetching a run of n
// consecutive pages with one call. On a file this is a single
// sequential pread — one seek plus streaming — which is why the
// manager counts a run as one Read plus n-1 Prefetched rather than n
// random Reads. Backends without it are served page-at-a-time.
type RunReader interface {
	// ReadRun fills buf (at least n pages long) with the contents of
	// pages first..first+n-1.
	ReadRun(first PageID, n int, buf []byte) error
}

// MemBackend keeps pages in memory. It is the default backend; it gives
// the experiments a deterministic, I/O-noise-free substrate while the
// manager still counts every page access. Reads share an RWMutex so any
// number of readers proceed in parallel; writes and growth are exclusive.
type MemBackend struct {
	mu       sync.RWMutex
	pageSize int
	pages    map[PageID][]byte
}

// NewMemBackend returns an empty in-memory backend.
func NewMemBackend(pageSize int) *MemBackend {
	return &MemBackend{pageSize: pageSize, pages: make(map[PageID][]byte)}
}

// ReadPage implements Backend.
func (m *MemBackend) ReadPage(id PageID, buf []byte) error {
	m.mu.RLock()
	defer m.mu.RUnlock()
	p, ok := m.pages[id]
	if !ok {
		return fmt.Errorf("storage: read of unallocated page %d", id)
	}
	copy(buf, p)
	return nil
}

// WritePage implements Backend.
func (m *MemBackend) WritePage(id PageID, buf []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	p, ok := m.pages[id]
	if !ok {
		return fmt.Errorf("storage: write to unallocated page %d", id)
	}
	copy(p, buf)
	return nil
}

// ReadRun implements RunReader: the whole run is copied under one
// shared-lock acquisition.
func (m *MemBackend) ReadRun(first PageID, n int, buf []byte) error {
	m.mu.RLock()
	defer m.mu.RUnlock()
	for i := 0; i < n; i++ {
		p, ok := m.pages[first+PageID(i)]
		if !ok {
			return fmt.Errorf("storage: read of unallocated page %d", first+PageID(i))
		}
		copy(buf[i*m.pageSize:(i+1)*m.pageSize], p)
	}
	return nil
}

// Grow implements Backend.
func (m *MemBackend) Grow(id PageID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.pages[id]; !ok {
		m.pages[id] = make([]byte, m.pageSize)
	}
	return nil
}

// Close implements Backend.
func (m *MemBackend) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.pages = nil
	return nil
}

// FileBackend stores pages in an operating-system file, page i at offset
// i*pageSize.
type FileBackend struct {
	pageSize int
	f        *os.File
}

// NewFileBackend opens (creating if needed) the page file at path.
func NewFileBackend(path string, pageSize int) (*FileBackend, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: open page file: %w", err)
	}
	return &FileBackend{pageSize: pageSize, f: f}, nil
}

// ReadPage implements Backend. A read past the end of the file — or one
// that returns fewer than pageSize bytes — is an error, not a zero page:
// a truncated or torn file must surface as corruption, never as silently
// zero-filled data.
func (b *FileBackend) ReadPage(id PageID, buf []byte) error {
	n, err := b.f.ReadAt(buf[:b.pageSize], int64(id)*int64(b.pageSize))
	if n == b.pageSize {
		return nil
	}
	if err == nil || errors.Is(err, io.EOF) {
		err = io.ErrUnexpectedEOF
	}
	return fmt.Errorf("storage: read page %d: got %d of %d bytes: %w", id, n, b.pageSize, err)
}

// ReadRun implements RunReader: one positional read covering the whole
// run, so consecutive pages cost one system call and one disk seek. Like
// ReadPage, the run must be complete: a short read is an error.
func (b *FileBackend) ReadRun(first PageID, n int, buf []byte) error {
	want := n * b.pageSize
	got, err := b.f.ReadAt(buf[:want], int64(first)*int64(b.pageSize))
	if got == want {
		return nil
	}
	if err == nil || errors.Is(err, io.EOF) {
		err = io.ErrUnexpectedEOF
	}
	return fmt.Errorf("storage: read run of pages [%d,%d): got %d of %d bytes: %w",
		first, first+PageID(n), got, want, err)
}

// WritePage implements Backend.
func (b *FileBackend) WritePage(id PageID, buf []byte) error {
	if _, err := b.f.WriteAt(buf[:b.pageSize], int64(id)*int64(b.pageSize)); err != nil {
		return fmt.Errorf("storage: write page %d: %w", id, err)
	}
	return nil
}

// Grow implements Backend. It only ever extends the file: id may be a
// page recycled from the free list, with live pages behind it.
func (b *FileBackend) Grow(id PageID) error {
	st, err := b.f.Stat()
	if err != nil {
		return fmt.Errorf("storage: grow to page %d: %w", id, err)
	}
	if end := (int64(id) + 1) * int64(b.pageSize); end > st.Size() {
		if err := b.f.Truncate(end); err != nil {
			return fmt.Errorf("storage: grow to page %d: %w", id, err)
		}
	}
	return nil
}

// Sync implements Syncer: it flushes completed writes to stable storage.
func (b *FileBackend) Sync() error {
	if err := b.f.Sync(); err != nil {
		return fmt.Errorf("storage: sync page file: %w", err)
	}
	return nil
}

// Close implements Backend. Buffered writes are flushed to stable
// storage first, so a database closed cleanly survives a crash that
// follows immediately.
func (b *FileBackend) Close() error {
	syncErr := b.Sync()
	if err := b.f.Close(); err != nil {
		return fmt.Errorf("storage: close page file: %w", err)
	}
	return syncErr
}

// Manager allocates pages and mediates reads and writes through an
// optional buffer pool, counting every backend access.
//
// A Manager is safe for concurrent use: Read and Write touch only a
// lock-striped pool shard, an atomic counter, and the backend (MemBackend
// reads take a shared lock; FileBackend reads are positional pread calls),
// so parallel readers of distinct pages do not serialize. Alloc and Free
// share one allocator mutex. The counters tally exactly the backend
// operations performed — under a serial workload they are deterministic
// and identical to the former single-mutex implementation.
type Manager struct {
	mu       sync.Mutex // allocator state (next, freeList) only
	backend  Backend
	pageSize int
	next     PageID
	freeList []PageID
	// held are the pages freed since HoldFrees, holding whether Free sets
	// pages aside at all.
	held    []PageID
	holding bool
	pool    *shardedPool
	stats   managerStats
}

// managerStats is the Manager's live counter block; Stats() snapshots it.
type managerStats struct {
	reads            atomic.Int64
	writes           atomic.Int64
	allocs           atomic.Int64
	frees            atomic.Int64
	hits             atomic.Int64
	prefetched       atomic.Int64
	ioErrors         atomic.Int64
	checksumFailures atomic.Int64
}

// global tallies the same operations across every Manager in the
// process. Unlike per-manager stats it is never reset by ResetStats, so
// it stays monotonic — the property registry samplers need to derive
// windowed rates (QPS of page reads, buffer hit ratio) without holding
// a reference to each open manager. The cost is one extra atomic add
// per already-atomic counter bump.
var global managerStats

// GlobalStats snapshots the process-wide counters.
func GlobalStats() Stats {
	return Stats{
		Reads:            global.reads.Load(),
		Writes:           global.writes.Load(),
		Allocs:           global.allocs.Load(),
		Frees:            global.frees.Load(),
		Hits:             global.hits.Load(),
		Prefetched:       global.prefetched.Load(),
		IOErrors:         global.ioErrors.Load(),
		ChecksumFailures: global.checksumFailures.Load(),
	}
}

// Options configures a Manager.
type Options struct {
	// PageSize is the page size in bytes; DefaultPageSize if zero.
	PageSize int
	// BufferPages is the buffer pool capacity in pages. Zero disables
	// buffering: every fetch is counted as (and performed by) a backend
	// read, which is the convention the paper's disk-access counts use.
	BufferPages int
	// Backend overrides the default in-memory backend.
	Backend Backend
	// FirstUnallocated sets the next page id the allocator hands out.
	// Required when attaching to an existing page file, or freshly
	// allocated ids would collide with (and overwrite) live pages.
	// Zero means a fresh file (allocation starts at page 1).
	FirstUnallocated PageID
}

// NewManager returns a manager with the given options.
func NewManager(opts Options) *Manager {
	if opts.PageSize == 0 {
		opts.PageSize = DefaultPageSize
	}
	if opts.Backend == nil {
		opts.Backend = NewMemBackend(opts.PageSize)
	}
	m := &Manager{
		backend:  opts.Backend,
		pageSize: opts.PageSize,
		next:     1, // page 0 is NilPage
	}
	if opts.FirstUnallocated > m.next {
		m.next = opts.FirstUnallocated
	}
	if opts.BufferPages > 0 {
		m.pool = newShardedPool(opts.BufferPages, opts.PageSize)
	}
	return m
}

// PageSize returns the page size in bytes.
func (m *Manager) PageSize() int { return m.pageSize }

// Alloc returns a fresh (or recycled) page id.
func (m *Manager) Alloc() (PageID, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var id PageID
	if n := len(m.freeList); n > 0 {
		id = m.freeList[n-1]
		m.freeList = m.freeList[:n-1]
	} else {
		id = m.next
		m.next++
	}
	if err := m.backend.Grow(id); err != nil {
		return NilPage, err
	}
	m.stats.allocs.Add(1)
	global.allocs.Add(1)
	return id, nil
}

// Free returns a page to the allocator. The page's contents become
// undefined. The caller must guarantee no concurrent reader still uses
// the page (the index holds no reference to a page before freeing it).
// Freeing NilPage is a no-op: page 0 is never a valid allocation, and
// putting it on the free list would make a later Alloc hand out NilPage
// as a live page.
func (m *Manager) Free(id PageID) {
	if id == NilPage {
		return
	}
	if m.pool != nil {
		m.pool.evict(id)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.holding {
		m.held = append(m.held, id)
		return
	}
	m.freeList = append(m.freeList, id)
	m.stats.frees.Add(1)
	global.frees.Add(1)
}

// HoldFrees starts setting freed pages aside instead of handing them to
// the allocator. A mutation that can still be rolled back (an open staged
// transaction) runs under it: what it frees is live in the state a
// rollback returns to, so no Alloc may reuse it before the mutation is
// durable.
func (m *Manager) HoldFrees() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.holding = true
}

// ReleaseFrees ends HoldFrees: the pages set aside become allocatable
// when the mutation committed and stay allocated when it did not.
func (m *Manager) ReleaseFrees(commit bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if commit {
		m.freeList = append(m.freeList, m.held...)
		m.stats.frees.Add(int64(len(m.held)))
		global.frees.Add(int64(len(m.held)))
	}
	m.held, m.holding = m.held[:0], false
}

// Evict drops page id from the buffer pool, if one is configured,
// without freeing the page. Callers use it when the backing store was
// rolled back underneath the manager (an aborted staged transaction)
// and a cached copy would otherwise serve the discarded contents.
func (m *Manager) Evict(id PageID) {
	if m.pool != nil {
		m.pool.evict(id)
	}
}

// QueryIO attributes page traffic to one logical query. A pointer is
// carried in a context.Context (WithQueryIO) past the R*-tree and heap
// file down to the manager, which adds every read it serves for that
// context to the struct as well as to its global counters. Counters are
// atomic so one QueryIO may be shared by the parallel probes of a
// single query.
type QueryIO struct {
	Reads      atomic.Int64 // page reads that reached the backend
	Hits       atomic.Int64 // reads served by the buffer pool
	Prefetched atomic.Int64 // pages delivered by the tail of a run read
}

// Total returns all page fetches attributed so far
// (reads + hits + prefetched).
func (q *QueryIO) Total() int64 { return q.Reads.Load() + q.Hits.Load() + q.Prefetched.Load() }

type queryIOKey struct{}

// WithQueryIO attaches qio to ctx for per-query read attribution.
func WithQueryIO(ctx context.Context, qio *QueryIO) context.Context {
	return context.WithValue(ctx, queryIOKey{}, qio)
}

// QueryIOFrom returns the QueryIO in ctx, or nil. A nil ctx is allowed
// (hot paths with attribution disabled pass nil rather than building a
// context).
func QueryIOFrom(ctx context.Context) *QueryIO {
	if ctx == nil {
		return nil
	}
	qio, _ := ctx.Value(queryIOKey{}).(*QueryIO)
	return qio
}

// Read copies the contents of page id into buf (which must be at least one
// page long), going through the buffer pool when one is configured.
func (m *Manager) Read(id PageID, buf []byte) error {
	return m.ReadCtx(nil, id, buf)
}

// ReadCtx is Read with per-query attribution: when ctx carries a
// QueryIO, the fetch is counted there as well as in the global stats.
// The lookup is one context value access per page read and allocates
// nothing, so the path is identical to Read when attribution is off.
func (m *Manager) ReadCtx(ctx context.Context, id PageID, buf []byte) error {
	if id == NilPage {
		return errors.New("storage: read of nil page")
	}
	qio := QueryIOFrom(ctx)
	if m.pool != nil {
		if m.pool.get(id, buf[:m.pageSize]) {
			m.stats.hits.Add(1)
			global.hits.Add(1)
			if qio != nil {
				qio.Hits.Add(1)
			}
			return nil
		}
	}
	if err := m.backend.ReadPage(id, buf[:m.pageSize]); err != nil {
		return m.countIOError(err)
	}
	m.stats.reads.Add(1)
	global.reads.Add(1)
	if qio != nil {
		qio.Reads.Add(1)
	}
	if m.pool != nil {
		m.pool.put(id, buf[:m.pageSize])
	}
	return nil
}

// ReadRunCtx copies pages first..first+n-1 into buf (which must be at
// least n pages long), servicing the run with as few backend calls as
// possible: pages resident in the buffer pool are copied out as hits,
// and each maximal segment of consecutive misses goes to the backend in
// one RunReader call when the backend supports it. A segment of k pages
// fetched in one call is counted as one Read plus k-1 Prefetched — the
// first page pays the seek, the rest stream behind it — in the
// manager's stats, the process-wide stats, and any QueryIO carried by
// ctx. Backends without RunReader are read page-at-a-time (k Reads).
func (m *Manager) ReadRunCtx(ctx context.Context, first PageID, n int, buf []byte) error {
	if first == NilPage {
		return errors.New("storage: read of nil page")
	}
	if n <= 0 {
		return nil
	}
	qio := QueryIOFrom(ctx)
	ps := m.pageSize

	// Pull what the pool already holds; remember the misses.
	missFrom := -1 // start of the current miss segment, -1 when none open
	flush := func(end int) error {
		if missFrom < 0 {
			return nil
		}
		segFirst, segN := first+PageID(missFrom), end-missFrom
		segBuf := buf[missFrom*ps : end*ps]
		rr, ok := m.backend.(RunReader)
		if ok && segN > 1 {
			if err := rr.ReadRun(segFirst, segN, segBuf); err != nil {
				return m.countIOError(err)
			}
			m.stats.reads.Add(1)
			global.reads.Add(1)
			m.stats.prefetched.Add(int64(segN - 1))
			global.prefetched.Add(int64(segN - 1))
			if qio != nil {
				qio.Reads.Add(1)
				qio.Prefetched.Add(int64(segN - 1))
			}
		} else {
			for i := 0; i < segN; i++ {
				if err := m.backend.ReadPage(segFirst+PageID(i), segBuf[i*ps:(i+1)*ps]); err != nil {
					return m.countIOError(err)
				}
			}
			m.stats.reads.Add(int64(segN))
			global.reads.Add(int64(segN))
			if qio != nil {
				qio.Reads.Add(int64(segN))
			}
		}
		if m.pool != nil {
			for i := 0; i < segN; i++ {
				m.pool.put(segFirst+PageID(i), segBuf[i*ps:(i+1)*ps])
			}
		}
		missFrom = -1
		return nil
	}
	for i := 0; i < n; i++ {
		if m.pool != nil && m.pool.get(first+PageID(i), buf[i*ps:(i+1)*ps]) {
			if err := flush(i); err != nil {
				return err
			}
			m.stats.hits.Add(1)
			global.hits.Add(1)
			if qio != nil {
				qio.Hits.Add(1)
			}
			continue
		}
		if missFrom < 0 {
			missFrom = i
		}
	}
	return flush(n)
}

// countIOError tallies a failed backend operation in the error counters
// (classifying checksum rejections separately) and returns err unchanged
// so callers can use it inline on error-return paths.
func (m *Manager) countIOError(err error) error {
	m.stats.ioErrors.Add(1)
	global.ioErrors.Add(1)
	var ce *ChecksumError
	if errors.As(err, &ce) {
		m.stats.checksumFailures.Add(1)
		global.checksumFailures.Add(1)
	}
	return err
}

// Write stores buf as the contents of page id (write-through).
func (m *Manager) Write(id PageID, buf []byte) error {
	if id == NilPage {
		return errors.New("storage: write to nil page")
	}
	if err := m.backend.WritePage(id, buf[:m.pageSize]); err != nil {
		return m.countIOError(err)
	}
	m.stats.writes.Add(1)
	global.writes.Add(1)
	if m.pool != nil {
		m.pool.put(id, buf[:m.pageSize])
	}
	return nil
}

// Stats returns a snapshot of the counters.
func (m *Manager) Stats() Stats {
	return Stats{
		Reads:            m.stats.reads.Load(),
		Writes:           m.stats.writes.Load(),
		Allocs:           m.stats.allocs.Load(),
		Frees:            m.stats.frees.Load(),
		Hits:             m.stats.hits.Load(),
		Prefetched:       m.stats.prefetched.Load(),
		IOErrors:         m.stats.ioErrors.Load(),
		ChecksumFailures: m.stats.checksumFailures.Load(),
	}
}

// ResetStats zeroes the counters (buffer contents are kept).
func (m *Manager) ResetStats() {
	m.stats.reads.Store(0)
	m.stats.writes.Store(0)
	m.stats.allocs.Store(0)
	m.stats.frees.Store(0)
	m.stats.hits.Store(0)
	m.stats.prefetched.Store(0)
	m.stats.ioErrors.Store(0)
	m.stats.checksumFailures.Store(0)
}

// DropBuffer empties the buffer pool so subsequent reads are cold.
func (m *Manager) DropBuffer() {
	if m.pool != nil {
		m.pool.reset()
	}
}

// Sync flushes the backend's completed writes to stable storage when the
// backend supports it (a no-op otherwise).
func (m *Manager) Sync() error {
	if s, ok := m.backend.(Syncer); ok {
		return s.Sync()
	}
	return nil
}

// Close releases the backend.
func (m *Manager) Close() error { return m.backend.Close() }

// NumPages returns the number of pages ever allocated (including freed).
func (m *Manager) NumPages() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return int(m.next - 1)
}
