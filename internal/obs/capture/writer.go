package capture

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"

	"tsq/internal/framelog"
	"tsq/internal/transform"
)

// Frame kinds.
const (
	frameTransformSet = 1
	frameQuery        = 2
)

// Options configures a Writer. Zero values pick defaults.
type Options struct {
	// SampleEvery journals every Nth query (default 1 — every query).
	// Sampled-out queries cost one atomic increment and no digest.
	SampleEvery int
	// MaxBytes rotates the file when it grows past this size (default
	// 256 MiB; negative disables rotation).
	MaxBytes int64
	// MaxFiles is how many rotated segments are kept as path.1 (newest)
	// through path.N (default 2).
	MaxFiles int
	// BufferBytes sizes the write buffer (default 64 KiB). Records are
	// flushed when it fills, on rotation, Sync and Close, not per append:
	// the journal is an observability artifact, and a crash loses at most
	// a buffer (the torn tail truncates cleanly on the next open).
	BufferBytes int
}

func (o Options) withDefaults() Options {
	if o.SampleEvery <= 0 {
		o.SampleEvery = 1
	}
	if o.MaxBytes == 0 {
		o.MaxBytes = 256 << 20
	}
	if o.MaxFiles <= 0 {
		o.MaxFiles = 2
	}
	if o.BufferBytes <= 0 {
		o.BufferBytes = 64 << 10
	}
	return o
}

// Stats reports what a Writer did. The invariant the support bundle
// audits: Seen == Written + SampledOut + Dropped.
type Stats struct {
	Seen          int64  `json:"seen"`           // queries offered to Admit
	Written       int64  `json:"written"`        // query records journaled
	SampledOut    int64  `json:"sampled_out"`    // skipped by SampleEvery
	Dropped       int64  `json:"dropped"`        // lost to write errors
	TransformSets int64  `json:"transform_sets"` // set definition frames written
	Bytes         int64  `json:"bytes"`          // bytes in the current segment
	Rotations     int64  `json:"rotations"`      // completed segment rotations
	TruncatedTail int64  `json:"truncated_tail"` // torn bytes dropped on open
	LastError     string `json:"last_error,omitempty"`
}

// setCacheEntry caches a transformation set's content hash keyed by
// slice identity (first-element pointer + length), so steady-state
// workloads reusing one set slice hash it once, not per query.
type setCacheEntry struct {
	ptr  *transform.Transform
	n    int
	hash uint64
}

// Writer appends query records to a rotating, CRC-framed capture file.
// Admit is lock-free; Append serializes on an internal mutex. Write
// errors are counted (Stats.Dropped), never surfaced to the query
// path.
type Writer struct {
	path string
	opts Options

	seen       atomic.Int64
	sampledOut atomic.Int64

	// openDev opens a segment's device; the fault sweep substitutes it.
	openDev func(path string) (framelog.Device, error)

	mu        sync.Mutex
	dev       framelog.Device // nil once closed, or when a rotation could not reopen
	buf       []byte          // frames not yet written, appended at flushed
	flushed   int64           // device offset of buf[0]
	written   int64
	dropped   int64
	sets      int64
	rotations int64
	truncated int64
	lastErr   string
	knownSets map[uint64]bool
	setCache  [4]setCacheEntry
}

// NewWriter opens (or creates) a capture file for append. An existing
// file is scanned first: its transformation-set definitions are
// re-learned (so appended queries need not redefine them) and a torn
// tail — an incomplete or checksum-failing final write — is truncated
// away. A file with a foreign header is refused, never overwritten.
func NewWriter(path string, opts Options) (*Writer, error) {
	return newWriter(path, opts, framelog.OpenDevice)
}

func newWriter(path string, opts Options, openDev func(string) (framelog.Device, error)) (*Writer, error) {
	w := &Writer{path: path, opts: opts.withDefaults(), knownSets: make(map[uint64]bool), openDev: openDev}
	if err := w.open(); err != nil {
		return nil, err
	}
	return w, nil
}

// open opens w.path for append. The journal's stop policy is the WAL's:
// whatever follows the last intact frame is the tail of a crashed append
// and is truncated away. Caller holds mu (or is the constructor).
func (w *Writer) open() error {
	dev, err := w.openDev(w.path)
	if err != nil {
		return err
	}
	accept := func(found [framelog.MagicSize]byte) error {
		if v, ok := magicVersion(found); !ok {
			return fmt.Errorf("%s is not a capture file (magic %q)", w.path, found[:])
		} else if v != SchemaVersion {
			// Its digests are of another epoch than the ones this
			// writer would append; a reader tells them apart by file.
			return fmt.Errorf("%s is a schema-%d journal and this writer appends schema %d: move it aside (it stays replayable)",
				w.path, v, SchemaVersion)
		}
		return nil
	}
	// Re-learn the sets the segment already defines. A definition that does
	// not decode teaches nothing; the reader is the one to call it corrupt.
	learn := func(kind uint8, payload []byte) error {
		if kind == frameTransformSet {
			if hash, _, err := decodeSetPayload(payload, SchemaVersion); err == nil {
				w.knownSets[hash] = true
			}
		}
		return nil
	}
	end, torn, err := framelog.OpenAppend(dev, fileMagic, accept, maxFramePayload, learn)
	if err != nil {
		_ = dev.Close()
		return fmt.Errorf("capture: %w", err)
	}
	w.dev, w.flushed, w.buf = dev, end, w.buf[:0]
	w.truncated += torn
	return nil
}

// Admit reports whether this query should be journaled, consuming one
// sampling slot. Lock-free; the caller skips digest and record
// assembly entirely on false.
func (w *Writer) Admit() bool {
	n := w.seen.Add(1)
	if w.opts.SampleEvery > 1 && n%int64(w.opts.SampleEvery) != 0 {
		w.sampledOut.Add(1)
		return false
	}
	return true
}

// Append journals one admitted query record. ts is the query's
// transformation set (nil for subsequence searches); the writer
// interns it per segment and stamps rec.SetHash. Write failures are
// counted, not returned — capture must never fail a query.
func (w *Writer) Append(rec *Record, ts []transform.Transform) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.dev == nil {
		w.dropped++
		return
	}
	mark := len(w.buf)
	rec.SetHash = 0
	newSet := false
	if len(ts) > 0 {
		rec.SetHash = w.setHashLocked(ts)
		if newSet = !w.knownSets[rec.SetHash]; newSet {
			w.buf = appendSetPayload(framelog.Begin(w.buf, frameTransformSet), rec.SetHash, ts)
			w.buf = framelog.Finish(w.buf, mark)
		}
	}
	start := len(w.buf)
	w.buf = framelog.Finish(appendQueryPayload(framelog.Begin(w.buf, frameQuery), rec), start)
	if len(w.buf) >= w.opts.BufferBytes {
		if err := w.flushLocked(); err != nil {
			// The record is dropped; what was buffered before it stays
			// for the next flush, which rewrites from the same offset.
			w.buf = w.buf[:mark]
			w.dropped++
			return
		}
	}
	if newSet {
		w.knownSets[rec.SetHash] = true
		w.sets++
	}
	w.written++
	if w.opts.MaxBytes > 0 && w.sizeLocked() > w.opts.MaxBytes {
		if err := w.rotateLocked(); err != nil {
			// The segment failed to rotate but the record was written;
			// record the error and keep appending to the old segment.
			w.lastErr = err.Error()
		}
	}
}

// sizeLocked is the segment's size, buffered frames included.
func (w *Writer) sizeLocked() int64 { return w.flushed + int64(len(w.buf)) }

// flushLocked writes the buffered frames behind what the device holds. A
// failed write leaves the buffer as it was: writing the same bytes at the
// same offset again is what repairs a torn one.
func (w *Writer) flushLocked() error {
	if len(w.buf) == 0 {
		return nil
	}
	if _, err := w.dev.WriteAt(w.buf, w.flushed); err != nil {
		w.lastErr = err.Error()
		return err
	}
	w.flushed += int64(len(w.buf))
	w.buf = w.buf[:0]
	return nil
}

// setHashLocked resolves the content hash of ts through the identity
// cache.
func (w *Writer) setHashLocked(ts []transform.Transform) uint64 {
	ptr, n := &ts[0], len(ts)
	for i := range w.setCache {
		if w.setCache[i].ptr == ptr && w.setCache[i].n == n {
			return w.setCache[i].hash
		}
	}
	hash := HashTransformSet(ts)
	copy(w.setCache[1:], w.setCache[:len(w.setCache)-1])
	w.setCache[0] = setCacheEntry{ptr: ptr, n: n, hash: hash}
	return hash
}

// rotateLocked closes the current segment, shifts path.i → path.i+1
// (dropping the oldest), renames the segment to path.1 and starts a
// fresh one. The set memory clears with the segment so every segment
// is self-contained.
func (w *Writer) rotateLocked() error {
	if err := w.syncLocked(); err != nil {
		return err
	}
	if err := w.dev.Close(); err != nil {
		return err
	}
	w.dev = nil
	_ = os.Remove(fmt.Sprintf("%s.%d", w.path, w.opts.MaxFiles))
	for i := w.opts.MaxFiles - 1; i >= 1; i-- {
		from := fmt.Sprintf("%s.%d", w.path, i)
		if _, err := os.Stat(from); err == nil {
			_ = os.Rename(from, fmt.Sprintf("%s.%d", w.path, i+1))
		}
	}
	if err := os.Rename(w.path, w.path+".1"); err != nil {
		return err
	}
	w.rotations++
	clear(w.knownSets)
	return w.open()
}

// syncLocked flushes the buffer and syncs the device.
func (w *Writer) syncLocked() error {
	err := w.flushLocked()
	if err == nil {
		if err = w.dev.Sync(); err != nil {
			w.lastErr = err.Error()
		}
	}
	return err
}

// Sync flushes buffered records to the file and syncs it — for tests
// and operators who want the journal durable at a point in time.
func (w *Writer) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.dev == nil {
		return nil
	}
	return w.syncLocked()
}

// Close flushes, syncs and closes the capture file. Nil-receiver safe.
func (w *Writer) Close() error {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.dev == nil {
		return nil
	}
	err := w.syncLocked()
	if cerr := w.dev.Close(); err == nil {
		err = cerr
	}
	w.dev = nil
	return err
}

// Stats snapshots the writer's counters. Nil-receiver safe (the zero
// stats), matching the facade's disabled-path convention.
func (w *Writer) Stats() Stats {
	if w == nil {
		return Stats{}
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return Stats{
		Seen:          w.seen.Load(),
		Written:       w.written,
		SampledOut:    w.sampledOut.Load(),
		Dropped:       w.dropped,
		TransformSets: w.sets,
		Bytes:         w.sizeLocked(),
		Rotations:     w.rotations,
		TruncatedTail: w.truncated,
		LastError:     w.lastErr,
	}
}
