package capture

import (
	"errors"
	"fmt"
	"io"
	"os"

	"tsq/internal/framelog"
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
	f       *os.File
	sc      *framelog.Scanner
	version int
	sets    map[uint64][]transform.Transform
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
		sc:      framelog.NewScanner(f, maxFramePayload),
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
			return rec, ts, nil
		default:
			return nil, nil, fmt.Errorf("%w: unknown frame kind %d", ErrCorrupt, kind)
		}
	}
}

// nextFrame returns the next intact frame, or the reader's reading of why
// there is none: the input ending inside a frame is a torn tail, flagged
// and otherwise a clean end; a complete frame with a bad checksum is
// corruption, and so is a length beyond the bound, because telling a torn
// length field from mid-file damage would mean trusting the garbage (the
// writer's reopen truncates either away).
func (r *Reader) nextFrame() (uint8, []byte, error) {
	kind, payload, ok := r.sc.Next()
	if ok {
		return kind, payload, nil
	}
	if err := r.sc.Err(); err != nil {
		return 0, nil, err
	}
	switch stop := r.sc.Stop(); stop {
	case framelog.CleanEnd, framelog.TornHeader, framelog.TornPayload:
		return 0, nil, io.EOF
	default:
		return 0, nil, fmt.Errorf("%w: %v at offset %d", ErrCorrupt, stop, r.sc.End())
	}
}

// Truncated reports whether the file ended in a torn tail (only
// meaningful once Next has returned io.EOF).
func (r *Reader) Truncated() bool {
	stop := r.sc.Stop()
	return stop == framelog.TornHeader || stop == framelog.TornPayload
}

// Sets returns the transformation sets defined so far, for tools that
// inspect a capture without replaying it.
func (r *Reader) Sets() map[uint64][]transform.Transform { return r.sets }

// Close closes the underlying file.
func (r *Reader) Close() error { return r.f.Close() }
