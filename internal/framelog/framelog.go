// Package framelog is the one place that knows how this repository frames
// a log on disk. A log file is an 8-byte magic followed by frames of
//
//	kind   u8
//	length u32le  payload length in bytes
//	payload
//	crc    u32le  CRC32C (Castagnoli) over kind, length and payload
//
// The CRC covers the header too, so a frame whose length field was torn
// mid-write can never misparse as a shorter valid frame. The write-ahead
// log (internal/wal) and the capture journal (internal/obs/capture) are
// record codecs over this package: each owns its magic, its frame kinds,
// its payload encoding, its bound on a payload's length, and a policy for
// the reasons a scan can stop. A new log is a codec over framelog; it
// never encodes, checksums or scans a frame itself.
//
// The package has four parts: the in-place encoder (Begin/Finish), the
// Scanner, OpenAppend (initialise or recover a log for appending), and the
// Device a log is written through, with its file adapter and the
// fault-injecting wrapper the crash sweeps arm (device.go).
package framelog

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// MagicSize is the length of the magic every log file opens with.
const MagicSize = 8

// headerSize is kind (1) + payload length (4); a frame is its header, its
// payload and a 4-byte CRC.
const (
	headerSize = 5
	crcSize    = 4
)

// castagnoli is the CRC32C table, the polynomial of the storage layer's
// page trailers, hardware-accelerated on amd64 and arm64.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Begin appends the header of a frame of the given kind to buf and returns
// the extended buffer. The caller appends the payload behind it and calls
// Finish with the offset buf had before Begin; between the two calls the
// length field is zero. The frame is built where it will be written from,
// so a caller that reuses buf appends without allocating.
func Begin(buf []byte, kind uint8) []byte {
	return append(buf, kind, 0, 0, 0, 0)
}

// Finish completes the frame Begin opened at buf[start]: it writes the
// payload length into the header and appends the CRC.
func Finish(buf []byte, start int) []byte {
	payload := buf[start+headerSize:]
	binary.LittleEndian.PutUint32(buf[start+1:], uint32(len(payload)))
	crc := crc32.Update(crc32.Checksum(buf[start:start+headerSize], castagnoli), castagnoli, payload)
	return binary.LittleEndian.AppendUint32(buf, crc)
}

// Stop says why a Scanner yielded no further frame. Only CleanEnd means
// every byte of the input belonged to an intact frame; after any other
// reason the bytes from End() on are not part of the log.
type Stop uint8

const (
	// CleanEnd: the input ended on a frame boundary.
	CleanEnd Stop = iota
	// TornHeader: the input ended inside a frame header.
	TornHeader
	// TornPayload: the input ended inside a payload or its CRC.
	TornPayload
	// Oversized: a header claims a payload beyond the caller's bound. Whether
	// that is the garbage of a torn write or damage to a durable frame cannot
	// be told without trusting the length, so the caller's policy decides.
	Oversized
	// BadCRC: a complete frame whose checksum does not match.
	BadCRC
)

func (s Stop) String() string {
	return [...]string{"clean end", "torn header", "torn payload", "oversized length", "checksum mismatch"}[s]
}

// Scanner reads the frames that follow a log's magic, one per Next, and
// accepts a frame only when its whole extent and CRC check out, so it never
// misparses a torn write.
type Scanner struct {
	r    *bufio.Reader
	max  uint32
	end  int64
	stop Stop
	done bool
	err  error
	head [headerSize]byte
	body []byte
}

// NewScanner scans r, which must be positioned just behind the magic.
// maxPayload is the caller's bound on a payload: a larger claim stops the
// scan (Oversized) instead of driving an allocation.
func NewScanner(r io.Reader, maxPayload uint32) *Scanner {
	return &Scanner{r: bufio.NewReaderSize(r, 64<<10), max: maxPayload, end: MagicSize}
}

// Next returns the next intact frame; payload aliases the scanner's buffer
// and is valid until the following call. ok is false once the scan has
// stopped, for the reason Stop reports.
func (s *Scanner) Next() (kind uint8, payload []byte, ok bool) {
	if s.done {
		return 0, nil, false
	}
	if _, err := io.ReadFull(s.r, s.head[:]); err != nil {
		if err == io.EOF {
			return s.halt(CleanEnd, nil)
		}
		return s.halt(TornHeader, err)
	}
	n := binary.LittleEndian.Uint32(s.head[1:])
	if n > s.max {
		return s.halt(Oversized, nil)
	}
	if cap(s.body) < int(n)+crcSize {
		s.body = make([]byte, int(n)+crcSize)
	}
	body := s.body[:int(n)+crcSize]
	if _, err := io.ReadFull(s.r, body); err != nil {
		return s.halt(TornPayload, err)
	}
	crc := crc32.Update(crc32.Checksum(s.head[:], castagnoli), castagnoli, body[:n])
	if crc != binary.LittleEndian.Uint32(body[n:]) {
		return s.halt(BadCRC, nil)
	}
	s.end += int64(headerSize) + int64(n) + crcSize
	return s.head[0], body[:n], true
}

// halt ends the scan. A read that failed for any reason but the end of the
// input is kept for Err: the frame behind it may well be intact.
func (s *Scanner) halt(why Stop, err error) (uint8, []byte, bool) {
	s.done, s.stop = true, why
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		s.err = err
	}
	return 0, nil, false
}

// Each hands every remaining intact frame to visit and returns the first
// error, visit's (with the offset of the frame it refused) or the read's.
func (s *Scanner) Each(visit func(kind uint8, payload []byte) error) error {
	for {
		at := s.end
		kind, payload, ok := s.Next()
		if !ok {
			return s.err
		}
		if err := visit(kind, payload); err != nil {
			return fmt.Errorf("frame at offset %d: %w", at, err)
		}
	}
}

// End returns the file offset just behind the last intact frame (MagicSize
// before the first): where the log ends, and where a recovery truncates.
func (s *Scanner) End() int64 { return s.end }

// Stop reports why Next returned ok == false.
func (s *Scanner) Stop() Stop { return s.stop }

// Err returns the read error that stopped the scan, or nil when it stopped
// at the end of the input or on the input's content. No policy may treat a
// scan that ended in an error as a torn tail.
func (s *Scanner) Err() error { return s.err }

// OpenAppend makes dev ready for appending and returns the offset to
// append at. A device shorter than a magic is fresh, or was torn while
// being created, and nothing acknowledged can be inside: it is emptied,
// given magic, and synced. Otherwise accept judges the magic found (each
// codec keeps its own rule for versions and foreign files), every intact
// frame goes to visit, and whatever follows the last one, for any Stop but
// CleanEnd, is the tail of a crashed append: it is truncated away and the
// device synced, and torn is its length. An error from accept or visit
// leaves the device as it was.
func OpenAppend(dev Device, magic [MagicSize]byte, accept func(found [MagicSize]byte) error,
	maxPayload uint32, visit func(kind uint8, payload []byte) error) (end, torn int64, err error) {
	size, err := dev.Size()
	if err != nil {
		return 0, 0, fmt.Errorf("sizing log: %w", err)
	}
	if size < MagicSize {
		err := dev.Truncate(0)
		if err == nil {
			_, err = dev.WriteAt(magic[:], 0)
		}
		if err == nil {
			err = dev.Sync()
		}
		if err != nil {
			return 0, 0, fmt.Errorf("initializing log: %w", err)
		}
		return MagicSize, 0, nil
	}
	var found [MagicSize]byte
	if _, err := dev.ReadAt(found[:], 0); err != nil {
		return 0, 0, fmt.Errorf("reading log magic: %w", err)
	}
	if err := accept(found); err != nil {
		return 0, 0, err
	}
	sc := NewScanner(io.NewSectionReader(dev, MagicSize, size-MagicSize), maxPayload)
	if err := sc.Each(visit); err != nil {
		return 0, 0, err
	}
	end = sc.End()
	if end < size {
		err := dev.Truncate(end)
		if err == nil {
			err = dev.Sync()
		}
		if err != nil {
			return 0, 0, fmt.Errorf("truncating torn tail: %w", err)
		}
	}
	return end, size - end, nil
}
