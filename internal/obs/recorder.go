package obs

import (
	"encoding/json"
	"net/http"
	"sync"
	"time"
)

// RecorderOptions configures a Recorder. Zero values pick defaults.
type RecorderOptions struct {
	// SlowN is the ring capacity for slow queries (default 128).
	SlowN int
	// SampleN is the reservoir capacity for queries under the threshold
	// (default 64). Zero-capacity sampling is allowed with SampleN < 0.
	SampleN int
	// Threshold is the latency above which a query is recorded in the
	// slow ring (default 10ms).
	Threshold time.Duration
}

func (o RecorderOptions) withDefaults() RecorderOptions {
	if o.SlowN <= 0 {
		o.SlowN = 128
	}
	if o.SampleN == 0 {
		o.SampleN = 64
	}
	if o.SampleN < 0 {
		o.SampleN = 0
	}
	if o.Threshold <= 0 {
		o.Threshold = 10 * time.Millisecond
	}
	return o
}

// QueryRecord is one completed query as retained by the Recorder.
type QueryRecord struct {
	Seq uint64 `json:"seq"`
	// QueryID is the process-wide query id (see NextQueryID) linking
	// this record to histogram exemplars and query-log lines; 0 for
	// records from callers that don't mint ids.
	QueryID    uint64    `json:"query_id,omitempty"`
	Time       time.Time `json:"time"`
	Kind       string    `json:"kind"`
	Label      string    `json:"label,omitempty"`
	DurationNs int64     `json:"duration_ns"`
	Matches    int64     `json:"matches"`
	Candidates int64     `json:"candidates"`
	Transforms int64     `json:"transforms"`
	Err        string    `json:"error,omitempty"`
	Slow       bool      `json:"slow"`
	Trace      *Trace    `json:"trace,omitempty"`
}

// Recorder is a slow-query flight recorder: a fixed ring retaining the
// last SlowN completed queries whose latency exceeded Threshold, plus a
// reservoir sample (Algorithm R) of SampleN queries below it, so the
// drained snapshot shows both the pathological tail and a fair picture
// of normal traffic. Record takes one short mutex hold and at most one
// allocation; when no Recorder is installed the query path pays a single
// atomic pointer load (pinned by benchmark in the facade package).
type Recorder struct {
	mu      sync.Mutex
	opts    RecorderOptions
	seq     uint64
	slow    []QueryRecord // ring, len == cap once full
	slowPos int
	evicted uint64        // slow records overwritten by ring wrap
	sample  []QueryRecord // reservoir
	seen    uint64        // queries under threshold, for Algorithm R
	rng     uint64        // xorshift64 state; avoids the global rand lock
}

// NewRecorder returns a Recorder with the given options.
func NewRecorder(opts RecorderOptions) *Recorder {
	o := opts.withDefaults()
	return &Recorder{
		opts: o,
		slow: make([]QueryRecord, 0, o.SlowN),
		rng:  0x9e3779b97f4a7c15, // fixed non-zero seed; fairness, not crypto
	}
}

// nextRand returns the next xorshift64 value. Caller holds mu.
func (r *Recorder) nextRand() uint64 {
	x := r.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	r.rng = x
	return x
}

// Record retains one completed query. kind/label describe the query
// ("range", "nn", ...), dur its wall time; qid is the process-wide
// query id (0 when the caller has none); root is the query's root span,
// nil when it was not traced (attribute fields then stay zero). The
// record keeps the trace of root's subtree and sums its rollups over it,
// so queries that share one trace each keep their own spans and counts.
// Nil-receiver safe: a nil Recorder drops the record, so call sites can
// hold an atomic pointer that is nil when recording is disabled.
func (r *Recorder) Record(kind, label string, qid uint64, dur time.Duration, err error, root *Span) {
	if r == nil {
		return
	}
	rec := QueryRecord{
		QueryID:    qid,
		Time:       time.Now(),
		Kind:       kind,
		Label:      label,
		DurationNs: dur.Nanoseconds(),
	}
	if err != nil {
		rec.Err = err.Error()
	}
	if root != nil {
		tr := root.trace.subtree(root)
		rec.Matches = tr.Sum(KindVerify, AMatches)
		rec.Candidates = tr.Sum(KindFilter, ACandidates)
		rec.Transforms = tr.Sum(KindProbe, ATransforms)
		rec.Trace = tr
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	r.seq++
	rec.Seq = r.seq
	if dur >= r.opts.Threshold {
		rec.Slow = true
		if len(r.slow) < cap(r.slow) {
			r.slow = append(r.slow, rec)
		} else {
			r.slow[r.slowPos] = rec
			r.slowPos = (r.slowPos + 1) % cap(r.slow)
			r.evicted++
		}
		return
	}
	// Reservoir sample of normal traffic (Algorithm R): the k-th
	// under-threshold query replaces a random slot with probability
	// SampleN/k, giving every query an equal chance of surviving.
	r.seen++
	if len(r.sample) < r.opts.SampleN {
		r.sample = append(r.sample, rec)
		return
	}
	if r.opts.SampleN == 0 {
		return
	}
	if j := r.nextRand() % r.seen; j < uint64(r.opts.SampleN) {
		r.sample[j] = rec
	}
}

// RecorderSnapshot is the drained state of a Recorder.
type RecorderSnapshot struct {
	ThresholdNs int64  `json:"threshold_ns"`
	Total       uint64 `json:"total"`   // queries recorded since start
	Sampled     uint64 `json:"sampled"` // under-threshold queries seen
	// Evicted counts slow records overwritten by the ring buffer wrap:
	// nonzero means the Slow list is a suffix of the slow queries seen,
	// and an operator reading it should widen SlowN or scrape /queries
	// more often. Total-Sampled always equals Evicted+len(Slow).
	Evicted uint64        `json:"evicted"`
	Slow    []QueryRecord `json:"slow"`   // oldest first
	Sample  []QueryRecord `json:"sample"` // reservoir, unordered
}

// Snapshot copies the recorder's current contents. The slow ring is
// returned oldest-first.
func (r *Recorder) Snapshot() RecorderSnapshot {
	if r == nil {
		return RecorderSnapshot{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	snap := RecorderSnapshot{
		ThresholdNs: r.opts.Threshold.Nanoseconds(),
		Total:       r.seq,
		Sampled:     r.seen,
		Evicted:     r.evicted,
		Slow:        make([]QueryRecord, 0, len(r.slow)),
		Sample:      append([]QueryRecord(nil), r.sample...),
	}
	// Ring order: slowPos is the oldest slot once the ring has wrapped.
	for i := 0; i < len(r.slow); i++ {
		snap.Slow = append(snap.Slow, r.slow[(r.slowPos+i)%len(r.slow)])
	}
	return snap
}

// Handler serves the recorder snapshot as JSON.
func (r *Recorder) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(r.Snapshot())
	})
}
