package capture

import (
	"encoding/binary"
	"fmt"
	"math"

	"tsq/internal/transform"
)

// Binary payload encoding: fixed-width little-endian fields, strings
// and float vectors length-prefixed with u32 counts. Hand-rolled so
// the decoder can bounds-check every read (the fuzz target feeds it
// arbitrary bytes) and so the format is stable across Go versions —
// gob's type negotiation would make segment self-containment depend on
// stream position.

// Sanity caps for the decoder: a claimed count beyond these is
// corruption, not allocation advice.
const (
	maxFramePayload = 64 << 20 // bytes per frame
	maxVecLen       = 1 << 24  // elements per float vector
	maxSetLen       = 1 << 16  // transformations per set
)

// enc is an append-only payload builder.
type enc struct{ b []byte }

func (e *enc) u8(v uint8)   { e.b = append(e.b, v) }
func (e *enc) u32(v uint32) { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *enc) u64(v uint64) { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *enc) i64(v int64)  { e.u64(uint64(v)) }
func (e *enc) f64(v float64) {
	e.u64(math.Float64bits(v))
}

func (e *enc) str(s string) {
	e.u32(uint32(len(s)))
	e.b = append(e.b, s...)
}

func (e *enc) floats(vs []float64) {
	e.u32(uint32(len(vs)))
	for _, v := range vs {
		e.f64(v)
	}
}

// dec is a bounds-checked payload reader; the first failed read sticks
// in err and zero-values every subsequent read.
type dec struct {
	b   []byte
	off int
	err error
}

func (d *dec) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("capture: truncated or corrupt payload reading %s at offset %d", what, d.off)
	}
}

func (d *dec) take(n int, what string) []byte {
	if d.err != nil || n < 0 || len(d.b)-d.off < n {
		d.fail(what)
		return nil
	}
	s := d.b[d.off : d.off+n]
	d.off += n
	return s
}

func (d *dec) u8(what string) uint8 {
	s := d.take(1, what)
	if s == nil {
		return 0
	}
	return s[0]
}

func (d *dec) u32(what string) uint32 {
	s := d.take(4, what)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(s)
}

func (d *dec) u64(what string) uint64 {
	s := d.take(8, what)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(s)
}

func (d *dec) i64(what string) int64   { return int64(d.u64(what)) }
func (d *dec) f64(what string) float64 { return math.Float64frombits(d.u64(what)) }

func (d *dec) str(what string) string {
	n := d.u32(what)
	if n > maxFramePayload {
		d.fail(what)
		return ""
	}
	return string(d.take(int(n), what))
}

func (d *dec) floats(what string) []float64 {
	n := d.u32(what)
	if d.err != nil || n == 0 {
		return nil
	}
	if n > maxVecLen || len(d.b)-d.off < int(n)*8 {
		d.fail(what)
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = d.f64(what)
	}
	return out
}

// remaining reports leftover bytes; a payload that decodes with bytes
// to spare was written by a future schema and is rejected.
func (d *dec) finish(what string) error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.b) {
		return fmt.Errorf("capture: %d trailing bytes after %s payload", len(d.b)-d.off, what)
	}
	return nil
}

// Option flag bits in the query payload.
const (
	flagClusterPartition = 1 << iota
	flagUseOrdering
	flagPaperQueryRect
	flagOneSided
	flagNaiveVerify
	// Reserved, read and ignored, never written: journals up to PR 22 set it
	// for QueryOptions.FlatLB, which chose how the lower bound was evaluated
	// and never changed an answer, so they replay with the same digests.
	_
	flagQueryTransform
	flagErr
)

func bit(on bool, flag uint16) uint16 {
	if on {
		return flag
	}
	return 0
}

// appendQueryPayload encodes rec into b.
func appendQueryPayload(b []byte, rec *Record) []byte {
	e := enc{b: b}
	e.u64(rec.QueryID)
	e.u8(uint8(rec.Kind))
	e.i64(rec.UnixNano)
	e.i64(rec.SeriesID)
	e.floats(rec.Query)
	e.u64(rec.QueryHash)
	e.u64(rec.SetHash)
	e.f64(rec.Eps)
	e.u32(uint32(rec.K))
	e.u32(uint32(rec.Window))

	flags := bit(rec.Opts.ClusterPartition, flagClusterPartition) |
		bit(rec.Opts.UseOrdering, flagUseOrdering) |
		bit(rec.Opts.PaperQueryRect, flagPaperQueryRect) |
		bit(rec.Opts.OneSided, flagOneSided) |
		bit(rec.Opts.NaiveVerify, flagNaiveVerify) |
		bit(rec.Opts.QueryTransform != nil, flagQueryTransform) |
		bit(rec.Err != "", flagErr)
	e.u32(uint32(flags))
	e.u8(rec.Opts.Algorithm)
	e.u32(uint32(rec.Opts.TransformsPerMBR))
	e.u32(uint32(rec.Opts.Workers))
	if rec.Opts.QueryTransform != nil {
		appendTransform(&e, rec.Opts.QueryTransform)
	}
	if rec.Err != "" {
		e.str(rec.Err)
	}

	e.u32(rec.Digest.Count)
	e.u64(rec.Digest.Sum)

	st := &rec.Stats
	e.i64(st.DurationNs)
	e.i64(st.Matches)
	e.i64(st.Candidates)
	e.i64(st.SkippedLB0)
	e.i64(st.SkippedLB1)
	e.i64(st.SkippedLB2)
	e.i64(st.Abandoned)
	e.i64(st.Comparisons)
	e.i64(st.PagesRead)
	e.i64(st.PagesPrefetched)
	e.i64(st.BufferHits)
	return e.b
}

// decodeQueryPayload parses a query frame payload.
func decodeQueryPayload(b []byte, version int) (*Record, error) {
	d := dec{b: b}
	rec := &Record{}
	rec.QueryID = d.u64("query_id")
	rec.Kind = Kind(d.u8("kind"))
	rec.UnixNano = d.i64("unix_nano")
	rec.SeriesID = d.i64("series_id")
	rec.Query = d.floats("query")
	rec.QueryHash = d.u64("query_hash")
	rec.SetHash = d.u64("set_hash")
	rec.Eps = d.f64("eps")
	rec.K = int32(d.u32("k"))
	rec.Window = int32(d.u32("window"))

	flags := uint16(d.u32("flags"))
	rec.Opts.Algorithm = d.u8("algorithm")
	rec.Opts.TransformsPerMBR = int32(d.u32("per_mbr"))
	rec.Opts.Workers = int32(d.u32("workers"))
	rec.Opts.ClusterPartition = flags&flagClusterPartition != 0
	rec.Opts.UseOrdering = flags&flagUseOrdering != 0
	rec.Opts.PaperQueryRect = flags&flagPaperQueryRect != 0
	rec.Opts.OneSided = flags&flagOneSided != 0
	rec.Opts.NaiveVerify = flags&flagNaiveVerify != 0
	if flags&flagQueryTransform != 0 {
		t := decodeTransform(&d, version)
		rec.Opts.QueryTransform = &t
	}
	if flags&flagErr != 0 {
		rec.Err = d.str("err")
	}

	rec.Digest.Count = d.u32("digest_count")
	rec.Digest.Sum = d.u64("digest_sum")

	st := &rec.Stats
	st.DurationNs = d.i64("duration_ns")
	st.Matches = d.i64("matches")
	st.Candidates = d.i64("candidates")
	st.SkippedLB0 = d.i64("skipped_lb0")
	st.SkippedLB1 = d.i64("skipped_lb1")
	st.SkippedLB2 = d.i64("skipped_lb2")
	st.Abandoned = d.i64("abandoned")
	st.Comparisons = d.i64("comparisons")
	st.PagesRead = d.i64("pages_read")
	st.PagesPrefetched = d.i64("pages_prefetched")
	st.BufferHits = d.i64("buffer_hits")
	if err := d.finish("query"); err != nil {
		return nil, err
	}
	if rec.Kind < KindRange || rec.Kind > KindSubseq {
		return nil, fmt.Errorf("capture: unknown query kind %d", rec.Kind)
	}
	return rec, nil
}

func appendTransform(e *enc, t *transform.Transform) {
	e.str(t.Name)
	e.floats(t.A)
	e.floats(t.B)
}

// decodeTransform reads one transformation of a journal of the given
// schema version. A schema-2 journal's are classified from their vectors
// (transform.New), like the ones the query ran under; a schema-1
// journal's stay unclassified, so that a replay sums them in the full
// order its digests were taken in.
func decodeTransform(d *dec, version int) transform.Transform {
	t := transform.Transform{
		Name: d.str("transform_name"),
		A:    d.floats("transform_a"),
		B:    d.floats("transform_b"),
	}
	if d.err == nil && (len(t.A) != len(t.B) || len(t.A) == 0 || len(t.A)%2 != 0) {
		d.fail("transform_shape")
	}
	if d.err != nil || version < 2 {
		return t
	}
	return transform.New(t.Name, t.A, t.B)
}

// appendSetPayload encodes a transformation-set definition frame.
func appendSetPayload(b []byte, hash uint64, ts []transform.Transform) []byte {
	e := enc{b: b}
	e.u64(hash)
	e.u32(uint32(len(ts)))
	for i := range ts {
		appendTransform(&e, &ts[i])
	}
	return e.b
}

// decodeSetPayload parses a set definition and verifies the embedded
// hash against the decoded content, so a set can never silently
// diverge from the queries referencing it.
func decodeSetPayload(b []byte, version int) (uint64, []transform.Transform, error) {
	d := dec{b: b}
	hash := d.u64("set_hash")
	n := d.u32("set_len")
	if n > maxSetLen {
		return 0, nil, fmt.Errorf("capture: transform set claims %d elements", n)
	}
	ts := make([]transform.Transform, 0, n)
	for i := uint32(0); i < n && d.err == nil; i++ {
		ts = append(ts, decodeTransform(&d, version))
	}
	if err := d.finish("transform_set"); err != nil {
		return 0, nil, err
	}
	if got := HashTransformSet(ts); got != hash {
		return 0, nil, fmt.Errorf("capture: transform set hash %#x does not match content hash %#x", hash, got)
	}
	return hash, ts, nil
}
