// Package wal implements the write-ahead log that makes Insert/Delete
// crash-consistent: every mutation is recorded — as a logical operation
// plus the full after-images of every page it modifies — and fsynced
// before any page of the tree or heap is touched in place. A crash at
// any point therefore leaves either (a) no trace of an unacknowledged
// write, or (b) a durable WAL record from which reopen reconstructs the
// acknowledged state exactly, healing torn pages by rewriting their
// logged images (physical redo, which a logical-only log could not do:
// a tree split or heap-directory rewrite overwrites live pages, and a
// torn directory page destroys state no operation record can rebuild).
//
// The package is a record codec over internal/framelog, which owns the
// frame layout, the scanner and the device: a WAL file is the magic
// "TSQWAL01" followed by frames of kind frameRecord whose payload
// appendRecord writes and decodeRecord reads. Its stop policy: whatever
// follows the last intact frame, for any reason, is the tail of a crashed
// append, truncated away on open and reported (not touched) by
// ReadPending; a frame that checks out but does not decode is corruption
// of a durable record and an error. Replay is idempotent (rewriting a
// page image it already holds is a no-op in effect), so recovery can
// itself crash and re-run.
//
// Checkpointing folds the log into the main file: the caller syncs the
// page file first, then Checkpoint truncates the WAL back to its magic.
// Group commit: concurrent appenders share fsyncs — an append whose
// bytes were covered by another appender's in-flight fsync returns
// without issuing its own.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"tsq/internal/framelog"
	"tsq/internal/storage"
)

// Magic identifies a WAL segment file.
var Magic = [8]byte{'T', 'S', 'Q', 'W', 'A', 'L', '0', '1'}

// frameRecord is the only frame kind so far; the byte exists so the
// format can grow (e.g. checkpoint markers) without a magic bump.
const frameRecord = 1

// maxFramePayload bounds a frame so a torn length field cannot drive a
// multi-gigabyte allocation during the open scan.
const maxFramePayload = 1 << 28

// Op is the logical operation a record describes.
type Op uint8

const (
	// OpInsert appends one series to the index.
	OpInsert Op = 1
	// OpDelete tombstones one series.
	OpDelete Op = 2
)

func (o Op) String() string {
	switch o {
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// PageImage is the full logical after-image of one page an operation
// modified: a record lists the pages the operation changed and no others.
// Replay rewrites these through the normal write path (so checksum
// trailers are recomputed), healing any torn in-place write. It is the
// staging overlay's page type, so a staged transaction is logged as it
// stands.
type PageImage = storage.StagedPage

// Record is one logged operation: what happened logically (for
// diagnostics and scrubbing) and which pages it produced physically
// (for redo).
type Record struct {
	LSN    uint64
	Op     Op
	ID     int64     // record id, shard-local
	Name   string    // OpInsert only
	Series []float64 // OpInsert only
	Pages  []PageImage
}

// Stats snapshots what a Log has done this session plus what its file
// holds now.
type Stats struct {
	Records      int64  `json:"records"`       // records appended this session
	Pending      int64  `json:"pending"`       // records in the file awaiting checkpoint
	Bytes        int64  `json:"bytes"`         // current segment size
	Fsyncs       int64  `json:"fsyncs"`        // fsyncs issued
	GroupCommits int64  `json:"group_commits"` // appends that rode another append's fsync
	Checkpoints  int64  `json:"checkpoints"`   // truncations after a fold
	TornBytes    int64  `json:"torn_bytes"`    // torn tail dropped at open
	LastLSN      uint64 `json:"last_lsn"`
}

// globalCounters tallies WAL activity across every Log in the process,
// monotonic, for the metrics registry (the same pattern as the storage
// layer's process-global counters).
var globalCounters struct {
	records      atomic.Int64
	replayed     atomic.Int64
	fsyncs       atomic.Int64
	groupCommits atomic.Int64
	checkpoints  atomic.Int64
	fsyncNanos   atomic.Int64
}

// GlobalStats returns the process-wide monotonic WAL counters.
// Replayed is reported via GlobalReplayed.
func GlobalStats() Stats {
	return Stats{
		Records:      globalCounters.records.Load(),
		Fsyncs:       globalCounters.fsyncs.Load(),
		GroupCommits: globalCounters.groupCommits.Load(),
		Checkpoints:  globalCounters.checkpoints.Load(),
	}
}

// GlobalReplayed returns how many WAL records recovery has re-applied
// process-wide.
func GlobalReplayed() int64 { return globalCounters.replayed.Load() }

// GlobalFsyncNanos returns the cumulative time spent in WAL fsyncs.
func GlobalFsyncNanos() int64 { return globalCounters.fsyncNanos.Load() }

// NoteReplayed books n replayed records (called by the recovery path in
// the persistence layer, which is where replay actually runs).
func NoteReplayed(n int64) { globalCounters.replayed.Add(n) }

// Log is an open write-ahead log. Append is safe for concurrent use;
// Checkpoint and Close serialize against appenders.
type Log struct {
	mu      sync.Mutex // ordering state: end offset, LSN, scratch
	dev     framelog.Device
	end     int64
	lastLSN uint64
	pending int64
	closed  bool
	scratch []byte

	syncMu       sync.Mutex // group-commit state
	synced       int64      // bytes known durable
	fsyncs       int64
	groupCommits int64

	records     int64
	checkpoints int64
	tornBytes   int64

	// OnFsync, when set (before the first Append), observes each fsync's
	// latency — the facade feeds it into the metrics histogram.
	OnFsync func(time.Duration)
}

var errClosed = errors.New("wal: log is closed")

// Open attaches to the WAL on dev: a fresh (or sub-magic) device is
// initialized and synced; an existing one is scanned, its torn tail
// truncated away, and every intact record returned for replay. The
// caller folds the returned records into the main file and then calls
// Checkpoint.
func Open(dev framelog.Device) (*Log, []Record, error) {
	var recs []Record
	end, torn, err := framelog.OpenAppend(dev, Magic, checkMagic, maxFramePayload, collect(&recs))
	if err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	l := &Log{dev: dev, end: end, synced: end, tornBytes: torn, pending: int64(len(recs))}
	for i := range recs {
		l.lastLSN = max(l.lastLSN, recs[i].LSN)
	}
	return l, recs, nil
}

// OpenFile is Open over the file at path.
func OpenFile(path string) (*Log, []Record, error) {
	dev, err := framelog.OpenDevice(path)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: open %s: %w", path, err)
	}
	l, recs, err := Open(dev)
	if err != nil {
		_ = dev.Close()
		return nil, nil, err
	}
	return l, recs, nil
}

func checkMagic(found [framelog.MagicSize]byte) error {
	if found != Magic {
		return fmt.Errorf("not a WAL segment (magic %q)", found[:])
	}
	return nil
}

// collect returns the frame visitor of both scans: it decodes record
// frames onto recs. The CRC of a frame it sees has passed, so a payload
// that does not decode is corruption of a durable record, not a torn tail.
func collect(recs *[]Record) func(kind uint8, payload []byte) error {
	return func(kind uint8, payload []byte) error {
		if kind != frameRecord {
			return nil
		}
		rec, err := decodeRecord(payload)
		if err != nil {
			return fmt.Errorf("corrupt record: %w", err)
		}
		*recs = append(*recs, rec)
		return nil
	}
}

// Append logs one record and returns once it is durable (fsynced). The
// LSN is assigned here, continuing the sequence found at open. This is
// the acknowledgement point of the write path: after Append returns
// nil, the operation survives any crash.
func (l *Log) Append(rec *Record) error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return errClosed
	}
	rec.LSN = l.lastLSN + 1
	l.scratch = appendFrame(l.scratch[:0], rec)
	if _, err := l.dev.WriteAt(l.scratch, l.end); err != nil {
		// Nothing is acknowledged; whatever bytes landed sit past l.end
		// where the next open's scan truncates them.
		l.mu.Unlock()
		return fmt.Errorf("wal: appending %s record %d: %w", rec.Op, rec.ID, err)
	}
	l.lastLSN = rec.LSN
	l.end += int64(len(l.scratch))
	l.pending++
	l.records++
	target := l.end
	l.mu.Unlock()

	if err := l.syncTo(target); err != nil {
		return fmt.Errorf("wal: fsync of %s record %d: %w", rec.Op, rec.ID, err)
	}
	globalCounters.records.Add(1)
	return nil
}

// syncTo makes everything up to target durable, sharing fsyncs between
// concurrent appenders: whoever holds syncMu syncs up to the log's
// current end, and any appender whose target that covered returns
// without a syscall of its own (a group commit).
func (l *Log) syncTo(target int64) error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	if l.synced >= target {
		l.groupCommits++
		globalCounters.groupCommits.Add(1)
		return nil
	}
	l.mu.Lock()
	end := l.end
	l.mu.Unlock()
	start := time.Now()
	err := l.dev.Sync()
	d := time.Since(start)
	l.fsyncs++
	globalCounters.fsyncs.Add(1)
	globalCounters.fsyncNanos.Add(int64(d))
	if l.OnFsync != nil {
		l.OnFsync(d)
	}
	if err != nil {
		return err
	}
	l.synced = end
	return nil
}

// Checkpoint truncates the log back to its magic. The caller must have
// made the logged operations durable in the main file (mgr.Sync) first
// — that ordering is the whole protocol. LSNs keep counting up in
// memory, so records appended after a checkpoint never reuse a
// sequence number within the session.
func (l *Log) Checkpoint() error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errClosed
	}
	if err := l.dev.Truncate(framelog.MagicSize); err != nil {
		return fmt.Errorf("wal: checkpoint truncate: %w", err)
	}
	if err := l.dev.Sync(); err != nil {
		return fmt.Errorf("wal: checkpoint sync: %w", err)
	}
	l.end = framelog.MagicSize
	l.synced = l.end
	l.pending = 0
	l.checkpoints++
	globalCounters.checkpoints.Add(1)
	return nil
}

// Size returns the current segment size in bytes.
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.end
}

// Stats snapshots the log's counters. Nil-receiver safe (the zero
// stats), matching the facade convention for disabled subsystems.
func (l *Log) Stats() Stats {
	if l == nil {
		return Stats{}
	}
	l.syncMu.Lock()
	fsyncs, groups := l.fsyncs, l.groupCommits
	l.syncMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	return Stats{
		Records:      l.records,
		Pending:      l.pending,
		Bytes:        l.end,
		Fsyncs:       fsyncs,
		GroupCommits: groups,
		Checkpoints:  l.checkpoints,
		TornBytes:    l.tornBytes,
		LastLSN:      l.lastLSN,
	}
}

// Close syncs and closes the device. Nil-receiver safe.
func (l *Log) Close() error {
	if l == nil {
		return nil
	}
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	var firstErr error
	if err := l.dev.Sync(); err != nil {
		firstErr = err
	}
	if err := l.dev.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// ScanInfo is what a read-only scan of a WAL file found — the
// scrubber's view.
type ScanInfo struct {
	Present   bool  // the file exists
	Records   int   // intact records awaiting fold
	Bytes     int64 // file size
	TornBytes int64 // torn tail a recovery would discard (expected after a crash)
}

// ReadPending scans the WAL at path without modifying it, returning the
// pending records and what the scan saw. A missing file is a valid
// empty WAL (Present false); a present file with a foreign magic or an
// undecodable durable record is an error — that is corruption, not a
// crash artifact.
func ReadPending(path string) ([]Record, ScanInfo, error) {
	var info ScanInfo
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, info, nil
		}
		return nil, info, fmt.Errorf("wal: open %s: %w", path, err)
	}
	defer f.Close()
	info.Present = true
	st, err := f.Stat()
	if err != nil {
		return nil, info, fmt.Errorf("wal: stat %s: %w", path, err)
	}
	info.Bytes = st.Size()
	if st.Size() < framelog.MagicSize {
		// Torn mid-create: nothing acknowledged can be inside.
		info.TornBytes = st.Size()
		return nil, info, nil
	}
	var magic [framelog.MagicSize]byte
	if _, err := f.ReadAt(magic[:], 0); err != nil {
		return nil, info, fmt.Errorf("wal: reading magic of %s: %w", path, err)
	}
	if err := checkMagic(magic); err != nil {
		return nil, info, fmt.Errorf("wal: %s: %w", path, err)
	}
	var recs []Record
	sc := framelog.NewScanner(io.NewSectionReader(f, framelog.MagicSize, st.Size()-framelog.MagicSize), maxFramePayload)
	if err := sc.Each(collect(&recs)); err != nil {
		return nil, info, fmt.Errorf("wal: %s: %w", path, err)
	}
	end := sc.End()
	info.Records = len(recs)
	info.TornBytes = st.Size() - end
	return recs, info, nil
}

// Record payload layout (little endian):
//
//	offset 0:  LSN (uint64)
//	offset 8:  op (uint8)
//	offset 9:  record id (int64)
//	offset 17: name length (uint16), name bytes
//	then: series length (uint32), series samples (float64 each)
//	then: page count (uint32); per page: id (uint32), data length
//	      (uint32), data bytes
func appendFrame(buf []byte, rec *Record) []byte {
	start := len(buf)
	buf = framelog.Begin(buf, frameRecord)
	buf = binary.LittleEndian.AppendUint64(buf, rec.LSN)
	buf = append(buf, byte(rec.Op))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(rec.ID))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(rec.Name)))
	buf = append(buf, rec.Name...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(rec.Series)))
	for _, v := range rec.Series {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(rec.Pages)))
	for _, p := range rec.Pages {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(p.ID))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(p.Data)))
		buf = append(buf, p.Data...)
	}
	return framelog.Finish(buf, start)
}

// decodeRecord parses one frame payload. Every length is validated
// against the remaining bytes so a corrupt-but-CRC-passing payload
// (which only a software bug could produce) fails cleanly.
func decodeRecord(p []byte) (Record, error) {
	var rec Record
	need := func(n int) error {
		if len(p) < n {
			return fmt.Errorf("wal: record payload truncated (need %d bytes, have %d)", n, len(p))
		}
		return nil
	}
	if err := need(19); err != nil {
		return rec, err
	}
	rec.LSN = binary.LittleEndian.Uint64(p)
	rec.Op = Op(p[8])
	rec.ID = int64(binary.LittleEndian.Uint64(p[9:]))
	nameLen := int(binary.LittleEndian.Uint16(p[17:]))
	p = p[19:]
	if rec.Op != OpInsert && rec.Op != OpDelete {
		return rec, fmt.Errorf("wal: unknown op %d", uint8(rec.Op))
	}
	if err := need(nameLen); err != nil {
		return rec, err
	}
	rec.Name = string(p[:nameLen])
	p = p[nameLen:]
	if err := need(4); err != nil {
		return rec, err
	}
	seriesLen := int(binary.LittleEndian.Uint32(p))
	p = p[4:]
	if err := need(8 * seriesLen); err != nil {
		return rec, err
	}
	if seriesLen > 0 {
		rec.Series = make([]float64, seriesLen)
		for i := range rec.Series {
			rec.Series[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[8*i:]))
		}
		p = p[8*seriesLen:]
	}
	if err := need(4); err != nil {
		return rec, err
	}
	npages := int(binary.LittleEndian.Uint32(p))
	p = p[4:]
	// Every page image is at least its 8-byte header, so a count the
	// remaining bytes cannot hold is corrupt: say so before allocating.
	if npages > len(p)/8 {
		return rec, fmt.Errorf("wal: record claims %d page images in %d bytes", npages, len(p))
	}
	rec.Pages = make([]PageImage, 0, npages)
	for i := 0; i < npages; i++ {
		if err := need(8); err != nil {
			return rec, err
		}
		id := storage.PageID(binary.LittleEndian.Uint32(p))
		dataLen := int(binary.LittleEndian.Uint32(p[4:]))
		p = p[8:]
		if err := need(dataLen); err != nil {
			return rec, err
		}
		data := make([]byte, dataLen)
		copy(data, p[:dataLen])
		p = p[dataLen:]
		if id == storage.NilPage {
			return rec, errors.New("wal: page image for the nil page")
		}
		rec.Pages = append(rec.Pages, PageImage{ID: id, Data: data})
	}
	if len(p) != 0 {
		return rec, fmt.Errorf("wal: %d trailing bytes after record", len(p))
	}
	return rec, nil
}
