// Workload capture: the always-on query journal. EnableCapture installs
// a process-wide capture writer; every completed Range, NearestNeighbors,
// Batch request and SubsequenceIndex query then appends one
// self-contained record — the full query specification, its key effort
// counters, and an answer digest — to a rotating, CRC-framed binary log
// that cmd/tsreplay can re-run deterministically against a database.
// Like every diagnostics feature, the disabled path costs one atomic
// pointer load and zero allocations (pinned by test).

package tsq

import (
	"sync/atomic"
	"time"

	"tsq/internal/core"
	"tsq/internal/obs/capture"
	"tsq/internal/storage"
)

// CaptureOptions configures the workload journal; zero values pick
// defaults (journal every query, 256 MiB segments, 2 rotated segments
// kept, 64 KiB write buffer).
type CaptureOptions = capture.Options

// CaptureStats reports what the capture writer did; its invariant
// (Seen == Written + SampledOut + Dropped) is audited by the support
// bundle.
type CaptureStats = capture.Stats

// captureWriter is the process-wide journal; nil means disabled. One
// atomic load on the query path decides.
var captureWriter atomic.Pointer[capture.Writer]

// EnableCapture opens (or appends to) the capture file at path and
// installs it as the process-wide workload journal. An existing
// journal is closed and replaced. The file's torn tail, if any, is
// truncated on open; see the capture package for the format.
func EnableCapture(path string, opts CaptureOptions) (*capture.Writer, error) {
	w, err := capture.NewWriter(path, opts)
	if err != nil {
		return nil, err
	}
	if old := captureWriter.Swap(w); old != nil {
		_ = old.Close()
	}
	return w, nil
}

// DisableCapture removes and closes the process-wide journal,
// returning the close (flush+sync) error, if any. The query path
// reverts to a single nil-pointer check.
func DisableCapture() error {
	return captureWriter.Swap(nil).Close()
}

// CaptureSnapshot returns the journal's counters; the zero stats when
// capture is disabled.
func CaptureSnapshot() CaptureStats { return captureWriter.Load().Stats() }

// captureQueryOpts flattens QueryOptions into the journal's
// representation.
func captureQueryOpts(opts QueryOptions) capture.OptionsRecord {
	rec := capture.OptionsRecord{
		Algorithm:        uint8(opts.Algorithm),
		TransformsPerMBR: int32(opts.TransformsPerMBR),
		Workers:          int32(opts.Workers),
		ClusterPartition: opts.ClusterPartition,
		UseOrdering:      opts.UseOrdering,
		PaperQueryRect:   opts.PaperQueryRect,
		OneSided:         opts.OneSided,
		NaiveVerify:      opts.NaiveVerify,
	}
	if opts.QueryTransform != nil {
		t := *opts.QueryTransform
		rec.QueryTransform = &t
	}
	return rec
}

// captureQueryStats books a completed query's effort counters into the
// journal's representation. Page counters are the process-global
// deltas observed around the query (shared with the query log's
// convention: exact when serial, inclusive of neighbors under
// concurrency).
func captureQueryStats(st Stats, dur time.Duration, matches int, ioPre, ioPost storage.Stats) capture.StatsRecord {
	return capture.StatsRecord{
		DurationNs:      dur.Nanoseconds(),
		Matches:         int64(matches),
		Candidates:      int64(st.Candidates),
		SkippedLB0:      int64(st.SkippedLB0),
		SkippedLB1:      int64(st.SkippedLB1),
		SkippedLB2:      int64(st.SkippedLB2),
		Abandoned:       int64(st.Abandoned),
		Comparisons:     int64(st.Comparisons),
		PagesRead:       ioPost.Reads - ioPre.Reads,
		PagesPrefetched: ioPost.Prefetched - ioPre.Prefetched,
		BufferHits:      ioPost.Hits - ioPre.Hits,
	}
}

// captureQuery journals one completed range or nearest-neighbor query.
// Lives behind the cw != nil check in queryEvent.finish, so a disabled
// journal costs nothing here. A stored query point (RangeByID, a Batch
// request by id) is journaled by reference plus content hash; an ad-hoc
// query carries its raw vector inline.
func captureQuery(ev *queryEvent, dur time.Duration, ioPost storage.Stats) {
	if !ev.cw.Admit() {
		return
	}
	rec := capture.Record{
		QueryID:   ev.qid,
		Kind:      ev.kind,
		UnixNano:  time.Now().UnixNano(),
		SeriesID:  ev.qr.ID,
		QueryHash: capture.HashFloats(ev.qr.Raw),
		Eps:       ev.eps,
		K:         int32(ev.k),
		Opts:      captureQueryOpts(ev.opts),
		Stats:     captureQueryStats(ev.st, dur, len(ev.matches)+len(ev.nn), ev.ioPre, ioPost),
	}
	if ev.qr.ID < 0 {
		rec.Query = ev.qr.Raw
	}
	switch {
	case ev.err != nil:
		rec.Err = ev.err.Error()
	case ev.kind == capture.KindNN:
		rec.Digest = core.AnswerDigestNN(ev.nn)
	default:
		rec.Digest = core.AnswerDigestRange(ev.matches)
	}
	ev.cw.Append(&rec, ev.ts)
}

// captureSubseq journals one completed subsequence search: the pattern
// inline, the window length (replay rebuilds the trail index from the
// database's series at that window), and a digest over the
// (sequence, offset, distance) occurrence set.
func captureSubseq(cw *capture.Writer, qid uint64, pattern Series, eps float64, window int,
	m []SubseqMatch, st SubseqStats, dur time.Duration, qerr error, ioPre, ioPost storage.Stats) {
	if !cw.Admit() {
		return
	}
	rec := capture.Record{
		QueryID:   qid,
		Kind:      capture.KindSubseq,
		UnixNano:  time.Now().UnixNano(),
		SeriesID:  -1,
		Query:     pattern,
		QueryHash: capture.HashFloats(pattern),
		Eps:       eps,
		Window:    int32(window),
		Stats: capture.StatsRecord{
			DurationNs:      dur.Nanoseconds(),
			Matches:         int64(len(m)),
			Candidates:      int64(st.Candidates),
			Abandoned:       int64(st.Abandoned),
			PagesRead:       ioPost.Reads - ioPre.Reads,
			PagesPrefetched: ioPost.Prefetched - ioPre.Prefetched,
			BufferHits:      ioPost.Hits - ioPre.Hits,
		},
	}
	if qerr != nil {
		rec.Err = qerr.Error()
	} else {
		rec.Digest = SubseqDigest(m)
	}
	cw.Append(&rec, nil)
}

// SubseqDigest digests a subsequence answer set: (sequence, offset,
// distance) per occurrence, order-insensitively — the subsequence form
// of the range/NN answer digest.
func SubseqDigest(ms []SubseqMatch) capture.Digest {
	var d capture.Digest
	for i := range ms {
		d.Add(int64(ms[i].Seq), int64(ms[i].Offset), ms[i].Distance)
	}
	return d
}
