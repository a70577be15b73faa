package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"tsq"
)

// span is one span of a traced operation, as the program's Trace
// marshals it, or the benchmark's own span around the facade call.
type span struct {
	ID       int32            `json:"id"`
	Parent   int32            `json:"parent"` // -1 for a root
	Kind     string           `json:"kind"`
	Duration int64            `json:"duration_ns"`
	Attrs    map[string]int64 `json:"attrs"`
}

// Kinds of the benchmark's own spans; the program's are obs.Kind names.
const (
	kindFacade = "facade" // around a query call: self time is the tsq layer
	kindInsert = "insert" // around an Insert call, which has no inner spans
)

// selfTimes books, per span kind, each span's duration minus the part
// its children cover. Children that carry a "shard" attribute ran
// concurrently, one goroutine per shard, so together they cover only
// what the slowest shard's spans sum to, and only that shard's subtree
// is on the blocking path: the faster shards' spans are left out. A
// child that outlasts its parent is clamped, which shows up as a layer
// sum short of the operation time.
func selfTimes(spans []span) map[string]int64 {
	children := make(map[int32][]span)
	var roots []span
	for _, s := range spans {
		if s.Parent < 0 {
			roots = append(roots, s)
		} else {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]int64)
	var walk func(s span)
	walk = func(s span) {
		var serial int64
		byShard := make(map[int64]int64)
		for _, c := range children[s.ID] {
			if sh, ok := c.Attrs["shard"]; ok {
				byShard[sh] += c.Duration
			} else {
				serial += c.Duration
				walk(c)
			}
		}
		slowest, slowestDur := int64(-1), int64(-1)
		for sh, d := range byShard {
			if d > slowestDur || (d == slowestDur && sh < slowest) {
				slowest, slowestDur = sh, d
			}
		}
		if slowest >= 0 {
			serial += slowestDur
			for _, c := range children[s.ID] {
				if sh, ok := c.Attrs["shard"]; ok && sh == slowest {
					walk(c)
				}
			}
		}
		if self := s.Duration - serial; self > 0 {
			out[s.Kind] += self
		}
	}
	for _, s := range roots {
		walk(s)
	}
	return out
}

// wrap puts the benchmark's own span of the given kind and duration
// around the spans the program recorded for one operation.
func wrap(kind string, dur time.Duration, inner []span) []span {
	id := int32(len(inner))
	out := make([]span, 0, len(inner)+1)
	for _, s := range inner {
		if s.Parent < 0 {
			s.Parent = id
		}
		out = append(out, s)
	}
	return append(out, span{ID: id, Parent: -1, Kind: kind, Duration: int64(dur)})
}

// traced is what the traced pass produced.
type traced struct {
	ops         int
	selfNs      map[string]int64 // summed over the traced ops, by span kind
	tracedNs    int64            // the same ops' wall time with tracing on
	untracedNs  int64            // and with tracing off
	candidates  int
	hitRecords  int // distinct records among the matches
	inserts     int
	walBytes    int64 // growth of the WAL file around the traced inserts
	failed      int
	spanRecords int
}

// traceChunk is how many operations run with tracing on before the same
// many run with it off: long enough that one side's cache state does not
// help the other, short enough that both see the same database.
const traceChunk = 20

// runTraced re-runs the head of the timed list twice, in alternating
// chunks: once under a trace with the benchmark's own span around each
// facade call, once untraced. The difference is the tracing overhead;
// the spans give each layer's self time. Inserts run on both sides, so
// both see a database growing at the same pace.
func (r *runner) runTraced(n int) (traced, error) {
	ops := r.in.timed[:n]
	tr := traced{ops: n, selfNs: make(map[string]int64)}
	traces := make([]*tsq.Trace, n)
	opNs := make([]time.Duration, n)
	walFile := r.w.path(r.dir) + ".wal"
	walSize := func() int64 {
		if !r.w.reopen {
			return 0
		}
		st, err := os.Stat(walFile)
		if err != nil {
			return 0
		}
		return st.Size()
	}
	seen := make(map[int64]struct{})
	for lo := 0; lo < n; lo += traceChunk {
		hi := min(lo+traceChunk, n)
		tracedFirst := (lo/traceChunk)%2 == 0
		for side := 0; side < 2; side++ {
			withTrace := (side == 0) == tracedFirst
			for i := lo; i < hi; i++ {
				o := ops[i]
				if !withTrace {
					t0 := time.Now()
					res := r.exec(nil, o, tsq.MTIndex)
					tr.untracedNs += int64(time.Since(t0))
					if res.err != nil {
						tr.failed++
					}
					continue
				}
				traces[i] = tsq.NewTrace()
				ctx := tsq.WithTrace(context.Background(), traces[i])
				before := walSize()
				t0 := time.Now()
				res := r.exec(ctx, o, tsq.MTIndex)
				opNs[i] = time.Since(t0)
				tr.tracedNs += int64(opNs[i])
				if res.err != nil {
					tr.failed++
					continue
				}
				if o.kind == opInsert {
					tr.inserts++
					if grew := walSize() - before; grew > 0 {
						tr.walBytes += grew
					}
					continue
				}
				tr.candidates += res.stats.Candidates
				clear(seen)
				for _, a := range res.answers() {
					seen[a.id] = struct{}{}
				}
				tr.hitRecords += len(seen)
			}
		}
	}
	// Spans stay in memory until the pass is over.
	for i, o := range ops {
		var inner []span
		raw, err := json.Marshal(traces[i])
		if err != nil {
			return tr, fmt.Errorf("trace of op %d: %w", i, err)
		}
		if err := json.Unmarshal(raw, &inner); err != nil {
			return tr, fmt.Errorf("trace of op %d: %w", i, err)
		}
		kind := kindFacade
		if o.kind == opInsert {
			kind = kindInsert
		}
		tr.spanRecords += len(inner) + 1
		for k, ns := range selfTimes(wrap(kind, opNs[i], inner)) {
			tr.selfNs[k] += ns
		}
	}
	return tr, nil
}

// audit checks that the layer self times add back up to the traced
// operation time: the ledger is only worth reading if they do.
func (tr traced) audit() error {
	var sum int64
	for _, ns := range tr.selfNs {
		sum += ns
	}
	if gap := ratio(float64(sum), float64(tr.tracedNs)) - 1; gap < -0.05 || gap > 0.05 {
		return fmt.Errorf("traced pass: layer self times sum to %d ns but the operations took %d ns (%+.1f%%)",
			sum, tr.tracedNs, 100*gap)
	}
	return nil
}
