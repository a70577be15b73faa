// Deterministic workload replay: ReplayFile re-runs every query in a
// capture journal against a database and verifies each answer digest.
// Because the engine's answer sets are bit-identical across verification
// modes (NaiveVerify, Workers — the PR 4/6 contracts), a replay
// under overridden options must reproduce every digest exactly while the
// effort counters (pages, tier skips, abandons) move — which is what
// makes the report a regression diff: answers prove correctness,
// counter deltas localize the performance change.
//
// A journal of capture schema 1 was written when every distance was the
// full-order sum; its reader hands out the transformations unclassified,
// so the replay sums the same way and reproduces those digests bit for
// bit (its effort counters are then those of the full sum too). See the
// capture package comment.

package tsq

import (
	"context"
	"fmt"
	"io"
	"time"

	"tsq/internal/core"
	"tsq/internal/obs/capture"
	"tsq/internal/storage"
)

// ReplayOptions configures ReplayFile.
type ReplayOptions struct {
	// Override, when non-nil, mutates each replayed query's decoded
	// options before re-execution — the "-set naiveverify=true" mechanism.
	// Answer digests must still match: option overrides change effort,
	// never answers.
	Override func(*QueryOptions)
	// Limit stops after this many query records (0 replays everything).
	Limit int64
}

// ReplayTotals aggregates effort counters across replayed queries, one
// set for the capture-time run and one for the replay.
type ReplayTotals struct {
	DurationNs  int64 `json:"duration_ns"`
	Matches     int64 `json:"matches"`
	Candidates  int64 `json:"candidates"`
	SkippedLB0  int64 `json:"skipped_lb0"`
	SkippedLB1  int64 `json:"skipped_lb1"`
	SkippedLB2  int64 `json:"skipped_lb2"`
	Abandoned   int64 `json:"abandoned"`
	Comparisons int64 `json:"comparisons"`
	PagesRead   int64 `json:"pages_read"`
	BufferHits  int64 `json:"buffer_hits"`
}

func (t *ReplayTotals) add(st capture.StatsRecord) {
	t.DurationNs += st.DurationNs
	t.Matches += st.Matches
	t.Candidates += st.Candidates
	t.SkippedLB0 += st.SkippedLB0
	t.SkippedLB1 += st.SkippedLB1
	t.SkippedLB2 += st.SkippedLB2
	t.Abandoned += st.Abandoned
	t.Comparisons += st.Comparisons
	t.PagesRead += st.PagesRead
	t.BufferHits += st.BufferHits
}

// SkippedLB returns the total candidates dismissed by the lower bound.
func (t *ReplayTotals) SkippedLB() int64 { return t.SkippedLB0 + t.SkippedLB1 + t.SkippedLB2 }

// ReplayRow is the per-query outcome of a replay.
type ReplayRow struct {
	QueryID uint64 `json:"query_id"`
	Kind    string `json:"kind"`
	// Label summarizes the query spec for human-readable diffs.
	Label string `json:"label"`
	// Skipped names why the query was not replayed ("" = replayed).
	Skipped string `json:"skipped,omitempty"`
	// Err is a replay-time execution error.
	Err string `json:"err,omitempty"`
	// DigestOK reports whether the replayed answer digest equals the
	// captured one (false for skipped and errored rows).
	DigestOK bool            `json:"digest_ok"`
	Captured capture.Digest  `json:"captured_digest"`
	Replayed *capture.Digest `json:"replayed_digest,omitempty"`

	CapturedStats capture.StatsRecord `json:"captured_stats"`
	ReplayedStats capture.StatsRecord `json:"replayed_stats"`
}

// ReplayReport is the outcome of replaying one capture file: per-query
// rows plus aggregate effort totals for both runs.
type ReplayReport struct {
	CapturePath string `json:"capture_path"`
	// SchemaVersion is the capture schema the journal was written with.
	SchemaVersion int `json:"schema_version"`
	// Records counts query records read; Replayed + Skipped = Records.
	Records  int64 `json:"records"`
	Replayed int64 `json:"replayed"`
	Skipped  int64 `json:"skipped"`
	// Errors counts queries that failed at replay time; Mismatches
	// counts replayed queries whose answer digest diverged.
	Errors     int64 `json:"errors"`
	Mismatches int64 `json:"mismatches"`
	// Truncated reports that the capture ended in a torn tail (the
	// records before it replayed normally).
	Truncated bool `json:"truncated"`

	CapturedTotals ReplayTotals `json:"captured_totals"`
	ReplayedTotals ReplayTotals `json:"replayed_totals"`

	Rows []ReplayRow `json:"rows"`
}

// OK reports whether every record replayed with a matching digest.
func (r *ReplayReport) OK() bool { return r.Errors == 0 && r.Mismatches == 0 }

// ReplayFile replays the capture journal at path against db. Every
// query record is re-executed through the same public query path that
// produced it and its answer digest compared against the captured one;
// opts.Override re-runs the workload under alternative query options
// (answers must be identical by the engine's contracts — only effort
// may differ). Subsequence records rebuild a trail index over db's
// series per distinct window, so the database must hold the sequences
// the capture was recorded against. A corrupt frame stops the replay
// with an error wrapping capture.ErrCorrupt; the report accumulated so
// far is still returned. Note that replayed queries go through the
// normal dispatch path, so they are journaled again if capture is
// enabled in this process.
func ReplayFile(ctx context.Context, db *DB, path string, opts ReplayOptions) (*ReplayReport, error) {
	r, err := capture.OpenFile(path)
	if err != nil {
		return nil, err
	}
	defer func() { _ = r.Close() }()

	rep := &ReplayReport{CapturePath: path, SchemaVersion: r.Version()}
	subIdx := make(map[int32]*SubsequenceIndex)
	for opts.Limit <= 0 || rep.Records < opts.Limit {
		if err := ctx.Err(); err != nil {
			return rep, err
		}
		rec, ts, err := r.Next()
		if err == io.EOF {
			rep.Truncated = r.Truncated()
			break
		}
		if err != nil {
			return rep, err
		}
		rep.Records++
		row := db.replayOne(ctx, rec, ts, opts.Override, subIdx)
		switch {
		case row.Skipped != "":
			rep.Skipped++
		case row.Err != "":
			rep.Replayed++
			rep.Errors++
		default:
			rep.Replayed++
			if !row.DigestOK {
				rep.Mismatches++
			}
			rep.CapturedTotals.add(row.CapturedStats)
			rep.ReplayedTotals.add(row.ReplayedStats)
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep, nil
}

// replayQueryOptions reconstructs QueryOptions from the journal form.
func replayQueryOptions(o capture.OptionsRecord) QueryOptions {
	return QueryOptions{
		Algorithm:        Algorithm(o.Algorithm),
		TransformsPerMBR: int(o.TransformsPerMBR),
		Workers:          int(o.Workers),
		ClusterPartition: o.ClusterPartition,
		UseOrdering:      o.UseOrdering,
		PaperQueryRect:   o.PaperQueryRect,
		OneSided:         o.OneSided,
		NaiveVerify:      o.NaiveVerify,
		QueryTransform:   o.QueryTransform,
	}
}

// replayOne re-executes one captured query and scores its row.
func (db *DB) replayOne(ctx context.Context, rec *capture.Record, ts []Transform,
	override func(*QueryOptions), subIdx map[int32]*SubsequenceIndex) ReplayRow {
	row := ReplayRow{
		QueryID:       rec.QueryID,
		Kind:          rec.Kind.String(),
		Label:         replayLabel(rec),
		Captured:      rec.Digest,
		CapturedStats: rec.Stats,
	}
	if rec.Err != "" {
		row.Skipped = "captured query errored: " + rec.Err
		return row
	}
	qo := replayQueryOptions(rec.Opts)
	if override != nil {
		override(&qo)
	}

	// The trail index over db's series is built once per distinct window,
	// outside the measured span — the capture-time run paid for its index
	// build outside the query too.
	if rec.Kind == capture.KindSubseq {
		if _, ok := subIdx[rec.Window]; !ok {
			all := make([]Series, db.Len())
			for i := range all {
				all[i] = db.Get(int64(i))
			}
			ix, err := NewSubsequenceIndex(all, SubseqOptions{Window: int(rec.Window)})
			if err != nil {
				row.Err = err.Error()
				return row
			}
			subIdx[rec.Window] = ix
		}
	}

	var digest capture.Digest
	var matches int
	var st Stats
	var sst SubseqStats
	var err error
	ioPre := storage.GlobalStats()
	start := time.Now()
	// A stored query point (a query by id) is journaled by reference: it
	// replays only against the same content.
	byID := rec.Kind != capture.KindSubseq && rec.SeriesID >= 0
	if byID {
		s := db.Get(rec.SeriesID)
		if s == nil {
			row.Skipped = fmt.Sprintf("series %d not in this database", rec.SeriesID)
			return row
		}
		if h := capture.HashFloats(s); h != rec.QueryHash {
			row.Skipped = fmt.Sprintf("series %d content differs from capture (hash %#x vs %#x)",
				rec.SeriesID, h, rec.QueryHash)
			return row
		}
	}
	switch rec.Kind {
	case capture.KindRange:
		var m []Match
		if byID {
			m, st, err = db.RangeByIDCtx(ctx, rec.SeriesID, ts, Distance(rec.Eps), qo)
		} else {
			m, st, err = db.RangeCtx(ctx, rec.Query, ts, Distance(rec.Eps), qo)
		}
		matches = len(m)
		digest = core.AnswerDigestRange(m)
	case capture.KindNN:
		var m []NNMatch
		if byID { // only a batch asks for neighbors of a stored series
			res := db.Batch(ctx, []BatchRequest{{ID: rec.SeriesID, ByID: true, Transforms: ts, K: int(rec.K), Opts: qo}}, 1)[0]
			m, st, err = res.NN, res.Stats, res.Err
		} else {
			m, st, err = db.NearestNeighborsCtx(ctx, rec.Query, ts, int(rec.K), qo)
		}
		matches = len(m)
		digest = core.AnswerDigestNN(m)
	case capture.KindSubseq:
		var m []SubseqMatch
		m, sst, err = subIdx[rec.Window].Search(rec.Query, rec.Eps)
		matches = len(m)
		digest = SubseqDigest(m)
		st.Candidates = sst.Candidates
		st.Abandoned = sst.Abandoned
	default:
		row.Skipped = fmt.Sprintf("unknown query kind %d", rec.Kind)
		return row
	}
	dur := time.Since(start)
	if err != nil {
		row.Err = err.Error()
		return row
	}
	row.ReplayedStats = captureQueryStats(st, dur, matches, ioPre, storage.GlobalStats())
	row.Replayed = &digest
	row.DigestOK = digest == rec.Digest
	return row
}

// replayLabel summarizes a captured query for the text report.
func replayLabel(rec *capture.Record) string {
	switch rec.Kind {
	case capture.KindRange:
		src := fmt.Sprintf("id=%d", rec.SeriesID)
		if rec.SeriesID < 0 {
			src = fmt.Sprintf("adhoc[%d]", len(rec.Query))
		}
		return fmt.Sprintf("range %s %s eps=%.4g", src, Algorithm(rec.Opts.Algorithm), rec.Eps)
	case capture.KindNN:
		return fmt.Sprintf("nn k=%d %s", rec.K, Algorithm(rec.Opts.Algorithm))
	case capture.KindSubseq:
		return fmt.Sprintf("subseq w=%d eps=%.4g", rec.Window, rec.Eps)
	default:
		return rec.Kind.String()
	}
}

// WriteText renders the report for humans: the verdict, aggregate
// effort deltas, and one line per mismatched, errored or skipped query.
func (r *ReplayReport) WriteText(w io.Writer) {
	fmt.Fprintf(w, "replay of %s (schema %d): %d records, %d replayed, %d skipped, %d errors, %d digest mismatches\n",
		r.CapturePath, r.SchemaVersion, r.Records, r.Replayed, r.Skipped, r.Errors, r.Mismatches)
	if r.SchemaVersion < capture.SchemaVersion {
		fmt.Fprintf(w, "note: a schema-%d journal: replayed with every distance summed in full order, as it was written\n", r.SchemaVersion)
	}
	if r.Truncated {
		fmt.Fprintf(w, "note: capture ended in a torn tail (incomplete final frame ignored)\n")
	}
	if r.Replayed > 0 {
		fmt.Fprintf(w, "\n%-14s %14s %14s %9s\n", "aggregate", "captured", "replayed", "delta")
		row := func(name string, c, g int64) {
			fmt.Fprintf(w, "%-14s %14d %14d %9s\n", name, c, g, deltaPct(c, g))
		}
		fmt.Fprintf(w, "%-14s %14s %14s %9s\n", "latency",
			time.Duration(r.CapturedTotals.DurationNs).Round(time.Microsecond),
			time.Duration(r.ReplayedTotals.DurationNs).Round(time.Microsecond),
			deltaPct(r.CapturedTotals.DurationNs, r.ReplayedTotals.DurationNs))
		row("matches", r.CapturedTotals.Matches, r.ReplayedTotals.Matches)
		row("pages read", r.CapturedTotals.PagesRead, r.ReplayedTotals.PagesRead)
		row("buffer hits", r.CapturedTotals.BufferHits, r.ReplayedTotals.BufferHits)
		row("candidates", r.CapturedTotals.Candidates, r.ReplayedTotals.Candidates)
		row("lb skips", r.CapturedTotals.SkippedLB(), r.ReplayedTotals.SkippedLB())
		row("  tier 0", r.CapturedTotals.SkippedLB0, r.ReplayedTotals.SkippedLB0)
		row("  tier 1", r.CapturedTotals.SkippedLB1, r.ReplayedTotals.SkippedLB1)
		row("  tier 2", r.CapturedTotals.SkippedLB2, r.ReplayedTotals.SkippedLB2)
		row("abandoned", r.CapturedTotals.Abandoned, r.ReplayedTotals.Abandoned)
		row("comparisons", r.CapturedTotals.Comparisons, r.ReplayedTotals.Comparisons)
	}
	for _, q := range r.Rows {
		switch {
		case q.Skipped != "":
			fmt.Fprintf(w, "skipped:  qid %d %s %s: %s\n", q.QueryID, q.Kind, q.Label, q.Skipped)
		case q.Err != "":
			fmt.Fprintf(w, "error:    qid %d %s %s: %s\n", q.QueryID, q.Kind, q.Label, q.Err)
		case !q.DigestOK:
			fmt.Fprintf(w, "mismatch: qid %d %s %s: captured %d matches (digest %#x), replayed %d (digest %#x)\n",
				q.QueryID, q.Kind, q.Label, q.Captured.Count, q.Captured.Sum, q.Replayed.Count, q.Replayed.Sum)
		}
	}
	if r.OK() {
		fmt.Fprintf(w, "\nall %d replayed queries returned bit-identical answers\n", r.Replayed)
	}
}

// deltaPct renders the replayed-vs-captured change of one counter.
func deltaPct(captured, replayed int64) string {
	if captured == 0 {
		if replayed == 0 {
			return "0%"
		}
		return "+inf"
	}
	return fmt.Sprintf("%+.1f%%", 100*float64(replayed-captured)/float64(captured))
}
