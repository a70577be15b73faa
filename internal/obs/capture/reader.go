package capture

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"tsq/internal/transform"
)

// ErrCorrupt wraps every mid-stream integrity failure a Reader
// reports: a checksum-failing complete frame, an impossible length
// field followed by more data, or a query referencing an undefined
// transformation set. A torn tail — an incomplete final frame — is
// NOT corruption: the reader stops cleanly and flags it (Truncated).
var ErrCorrupt = errors.New("capture: corrupt frame")

// Reader iterates the query records of one capture segment, resolving
// each record's transformation-set reference against the definitions
// read so far.
type Reader struct {
	f         *os.File
	r         *bufio.Reader
	version   int
	sets      map[uint64][]transform.Transform
	setOrder  []uint64
	truncated bool
	done      bool
	records   int64
	header    [frameHeaderSize]byte
	payload   []byte
}

// OpenFile opens a capture file of either schema version for reading
// and validates its magic.
func OpenFile(path string) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	var magic [8]byte
	if _, err := io.ReadFull(f, magic[:]); err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("capture: %s: missing file header: %w", path, err)
	}
	version, ok := magicVersion(magic)
	if !ok {
		_ = f.Close()
		return nil, fmt.Errorf("capture: %s is not a capture file (magic %q)", path, magic[:])
	}
	return &Reader{
		f:       f,
		r:       bufio.NewReaderSize(f, 256<<10),
		version: version,
		sets:    make(map[uint64][]transform.Transform),
	}, nil
}

// Version returns the schema version the file was written with. The
// transformations of a version-1 file are returned unclassified: see the
// package comment.
func (r *Reader) Version() int { return r.version }

// Next returns the next query record and its resolved transformation
// set (nil for subsequence records). io.EOF signals a clean end —
// check Truncated to learn whether the file ended in a torn tail.
// Any other error means corruption; iteration cannot continue.
func (r *Reader) Next() (*Record, []transform.Transform, error) {
	for {
		if r.done {
			return nil, nil, io.EOF
		}
		kind, payload, err := r.nextFrame()
		if err != nil {
			return nil, nil, err
		}
		switch kind {
		case frameTransformSet:
			hash, ts, err := decodeSetPayload(payload, r.version)
			if err != nil {
				return nil, nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
			}
			if _, seen := r.sets[hash]; !seen {
				r.setOrder = append(r.setOrder, hash)
			}
			r.sets[hash] = ts
		case frameQuery:
			rec, err := decodeQueryPayload(payload, r.version)
			if err != nil {
				return nil, nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
			}
			var ts []transform.Transform
			if rec.SetHash != 0 {
				var ok bool
				if ts, ok = r.sets[rec.SetHash]; !ok {
					return nil, nil, fmt.Errorf("%w: query %d references undefined transform set %#x",
						ErrCorrupt, rec.QueryID, rec.SetHash)
				}
			}
			r.records++
			return rec, ts, nil
		default:
			return nil, nil, fmt.Errorf("%w: unknown frame kind %d", ErrCorrupt, kind)
		}
	}
}

// nextFrame reads and checksums one frame. An incomplete frame at the
// end of the file marks the reader truncated and returns io.EOF.
func (r *Reader) nextFrame() (uint8, []byte, error) {
	if _, err := io.ReadFull(r.r, r.header[:]); err != nil {
		r.done = true
		if err == io.EOF {
			return 0, nil, io.EOF // clean end
		}
		r.truncated = true // torn header
		return 0, nil, io.EOF
	}
	n := binary.LittleEndian.Uint32(r.header[1:])
	if n > maxFramePayload {
		// A garbage length field: if nothing (or only a partial frame)
		// follows it is a torn tail, but distinguishing that from
		// mid-file corruption would require trusting the garbage. Treat
		// it as corruption; the writer's reopen path truncates it away.
		r.done = true
		return 0, nil, fmt.Errorf("%w: frame claims %d-byte payload", ErrCorrupt, n)
	}
	if cap(r.payload) < int(n)+4 {
		r.payload = make([]byte, int(n)+4)
	}
	body := r.payload[:int(n)+4]
	if _, err := io.ReadFull(r.r, body); err != nil {
		r.done = true
		r.truncated = true // torn payload
		return 0, nil, io.EOF
	}
	crc := crc32.Update(crc32.Checksum(r.header[:], castagnoli), castagnoli, body[:n])
	if crc != binary.LittleEndian.Uint32(body[n:]) {
		r.done = true
		return 0, nil, fmt.Errorf("%w: frame checksum mismatch", ErrCorrupt)
	}
	return r.header[0], body[:n], nil
}

// Truncated reports whether the file ended in a torn tail (only
// meaningful once Next has returned io.EOF).
func (r *Reader) Truncated() bool { return r.truncated }

// Records returns how many query records Next has yielded.
func (r *Reader) Records() int64 { return r.records }

// Sets returns the transformation sets defined so far, in definition
// order — for tools that inspect a capture without replaying it.
func (r *Reader) Sets() map[uint64][]transform.Transform { return r.sets }

// Close closes the underlying file.
func (r *Reader) Close() error { return r.f.Close() }
