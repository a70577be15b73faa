package capture

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"sync/atomic"

	"tsq/internal/transform"
)

// castagnoli is the CRC32C table — the same polynomial as the storage
// layer's page trailers, hardware-accelerated on amd64/arm64.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Frame kinds.
const (
	frameTransformSet = 1
	frameQuery        = 2
)

// frameHeaderSize is kind (1) + payload length (4).
const frameHeaderSize = 5

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
	// flushed on rotation and Close, not per append: the journal is an
	// observability artifact, and a crash loses at most a buffer (the
	// torn tail truncates cleanly on the next open).
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

	mu        sync.Mutex
	f         *os.File
	w         *bufio.Writer
	size      int64
	written   int64
	dropped   int64
	sets      int64
	rotations int64
	truncated int64
	lastErr   string
	knownSets map[uint64]bool
	setCache  [4]setCacheEntry
	scratch   []byte
	closed    bool
}

// NewWriter opens (or creates) a capture file for append. An existing
// file is scanned first: its transformation-set definitions are
// re-learned (so appended queries need not redefine them) and a torn
// tail — an incomplete or checksum-failing final write — is truncated
// away. A file with a foreign header is refused, never overwritten.
func NewWriter(path string, opts Options) (*Writer, error) {
	w := &Writer{path: path, opts: opts.withDefaults(), knownSets: make(map[uint64]bool)}
	if err := w.open(); err != nil {
		return nil, err
	}
	return w, nil
}

// open opens w.path for append, handling the fresh, existing and torn
// cases. Caller holds mu (or is the constructor).
func (w *Writer) open() error {
	f, err := os.OpenFile(w.path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	st, err := f.Stat()
	if err != nil {
		_ = f.Close()
		return err
	}
	switch {
	case st.Size() < int64(len(fileMagic)):
		// Fresh (or a header torn mid-create): start over.
		if err := f.Truncate(0); err != nil {
			_ = f.Close()
			return err
		}
		if _, err := f.WriteAt(fileMagic[:], 0); err != nil {
			_ = f.Close()
			return err
		}
		w.size = int64(len(fileMagic))
	default:
		var magic [8]byte
		if _, err := f.ReadAt(magic[:], 0); err != nil {
			_ = f.Close()
			return err
		}
		if v, ok := magicVersion(magic); !ok {
			_ = f.Close()
			return fmt.Errorf("capture: %s is not a capture file (magic %q)", w.path, magic[:])
		} else if v != SchemaVersion {
			// Its digests are of another epoch than the ones this
			// writer would append; a reader tells them apart by file.
			_ = f.Close()
			return fmt.Errorf("capture: %s is a schema-%d journal and this writer appends schema %d: move it aside (it stays replayable)",
				w.path, v, SchemaVersion)
		}
		end, sets, err := scanFrames(f, st.Size())
		if err != nil {
			_ = f.Close()
			return err
		}
		if end < st.Size() {
			if err := f.Truncate(end); err != nil {
				_ = f.Close()
				return err
			}
			w.truncated += st.Size() - end
		}
		w.size = end
		for h := range sets {
			w.knownSets[h] = true
		}
	}
	if _, err := f.Seek(w.size, io.SeekStart); err != nil {
		_ = f.Close()
		return err
	}
	w.f = f
	if w.w == nil {
		w.w = bufio.NewWriterSize(f, w.opts.BufferBytes)
	} else {
		w.w.Reset(f)
	}
	return nil
}

// scanFrames walks the frames of f (which starts with a valid magic)
// and returns the offset of the first incomplete or checksum-failing
// frame — the truncation point — plus the set hashes defined before
// it. Scanning never misparses: a frame is only accepted when its
// whole extent and CRC check out.
func scanFrames(f *os.File, size int64) (end int64, sets map[uint64]bool, err error) {
	sets = make(map[uint64]bool)
	r := bufio.NewReaderSize(io.NewSectionReader(f, int64(len(fileMagic)), size-int64(len(fileMagic))), 256<<10)
	end = int64(len(fileMagic))
	var header [frameHeaderSize]byte
	payload := make([]byte, 0, 4096)
	for {
		if _, err := io.ReadFull(r, header[:]); err != nil {
			return end, sets, nil // clean EOF or torn header: truncate here
		}
		n := binary.LittleEndian.Uint32(header[1:])
		if n > maxFramePayload {
			return end, sets, nil // garbage length: torn tail
		}
		if cap(payload) < int(n)+4 {
			payload = make([]byte, 0, int(n)+4)
		}
		body := payload[:int(n)+4]
		if _, err := io.ReadFull(r, body); err != nil {
			return end, sets, nil // torn payload
		}
		crc := crc32.Update(crc32.Checksum(header[:], castagnoli), castagnoli, body[:n])
		if crc != binary.LittleEndian.Uint32(body[n:]) {
			return end, sets, nil // checksum failure: truncate
		}
		if header[0] == frameTransformSet {
			if hash, _, err := decodeSetPayload(body[:n], SchemaVersion); err == nil {
				sets[hash] = true
			}
		}
		end += int64(frameHeaderSize) + int64(n) + 4
	}
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
	if w.closed {
		w.dropped++
		return
	}
	rec.SetHash = 0
	if len(ts) > 0 {
		hash := w.setHashLocked(ts)
		if !w.knownSets[hash] {
			if err := w.writeFrameLocked(frameTransformSet, appendSetPayload(w.scratch[:0], hash, ts)); err != nil {
				w.fail(err)
				return
			}
			w.knownSets[hash] = true
			w.sets++
		}
		rec.SetHash = hash
	}
	if err := w.writeFrameLocked(frameQuery, appendQueryPayload(w.scratch[:0], rec)); err != nil {
		w.fail(err)
		return
	}
	w.written++
	if w.opts.MaxBytes > 0 && w.size > w.opts.MaxBytes {
		if err := w.rotateLocked(); err != nil {
			// The segment failed to rotate but the record was written;
			// record the error and keep appending to the old segment.
			w.lastErr = err.Error()
		}
	}
}

// fail books a dropped record.
func (w *Writer) fail(err error) {
	w.dropped++
	w.lastErr = err.Error()
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

// writeFrameLocked frames and writes one payload. w.scratch is the
// payload's backing array; it is retained for reuse.
func (w *Writer) writeFrameLocked(kind uint8, payload []byte) error {
	w.scratch = payload[:0]
	var header [frameHeaderSize]byte
	header[0] = kind
	binary.LittleEndian.PutUint32(header[1:], uint32(len(payload)))
	crc := crc32.Update(crc32.Checksum(header[:], castagnoli), castagnoli, payload)
	if _, err := w.w.Write(header[:]); err != nil {
		return err
	}
	if _, err := w.w.Write(payload); err != nil {
		return err
	}
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], crc)
	if _, err := w.w.Write(tail[:]); err != nil {
		return err
	}
	w.size += int64(frameHeaderSize) + int64(len(payload)) + 4
	return nil
}

// rotateLocked closes the current segment, shifts path.i → path.i+1
// (dropping the oldest), renames the segment to path.1 and starts a
// fresh one. The set memory clears with the segment so every segment
// is self-contained.
func (w *Writer) rotateLocked() error {
	if err := w.w.Flush(); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	if err := w.f.Close(); err != nil {
		return err
	}
	w.f = nil
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

// Sync flushes buffered records to the file and syncs it — for tests
// and operators who want the journal durable at a point in time.
func (w *Writer) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed || w.f == nil {
		return nil
	}
	if err := w.w.Flush(); err != nil {
		w.lastErr = err.Error()
		return err
	}
	if err := w.f.Sync(); err != nil {
		w.lastErr = err.Error()
		return err
	}
	return nil
}

// Close flushes, syncs and closes the capture file. Nil-receiver safe.
func (w *Writer) Close() error {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	if w.f == nil {
		return nil
	}
	var firstErr error
	if err := w.w.Flush(); err != nil {
		firstErr = err
	}
	if err := w.f.Sync(); err != nil && firstErr == nil {
		firstErr = err
	}
	if err := w.f.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	w.f = nil
	return firstErr
}

// Path returns the capture file path.
func (w *Writer) Path() string {
	if w == nil {
		return ""
	}
	return w.path
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
		Bytes:         w.size,
		Rotations:     w.rotations,
		TruncatedTail: w.truncated,
		LastError:     w.lastErr,
	}
}
