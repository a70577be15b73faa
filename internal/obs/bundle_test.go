package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"
	"time"
)

// tracedQuery builds a trace whose rollups (matches, candidates,
// transforms) are internally consistent, the way the facade produces
// them: verify spans carry matches, filter spans candidates, probe
// spans transforms. It returns the query's root span.
func tracedQuery(matches, candidates, transforms int64) *Span {
	return tracedQueryIn(New(), matches, candidates, transforms)
}

// tracedQueryIn is tracedQuery adding the query to tr.
func tracedQueryIn(tr *Trace, matches, candidates, transforms int64) *Span {
	root := tr.Start(KindQuery, "range")
	probe := root.Child(KindProbe, "group")
	probe.Set(ATransforms, transforms)
	filter := probe.Child(KindFilter, "rtree")
	filter.Set(ACandidates, candidates)
	filter.End()
	verify := probe.Child(KindVerify, "")
	verify.Set(AMatches, matches)
	verify.End()
	probe.End()
	root.End()
	return root
}

// bundleFixture wires a registry, sampler, recorder and query logger
// through n queries so every bundle section is populated and mutually
// consistent.
func bundleFixture(t *testing.T, n int) (*Registry, *Sampler, *Recorder, *QueryLogger, BundleOptions) {
	t.Helper()
	reg := NewRegistry()
	qc := reg.Counter("q_total")
	lat := reg.Histogram("q_latency_ns", DurationBuckets())
	lat.EnableExemplars()
	rec := NewRecorder(RecorderOptions{Threshold: time.Nanosecond, SlowN: 16})
	ql := NewQueryLogger(&captureHandler{}, QueryLogOptions{SlowThreshold: -1})
	sampler := NewSampler(reg, SamplerOptions{})
	sampler.Sample() // baseline

	for i := 0; i < n; i++ {
		qid := NextQueryID()
		dur := time.Duration(i+1) * time.Millisecond
		root := tracedQuery(int64(i), int64(2*i), 16)
		qc.Inc()
		lat.ObserveDurationExemplar(dur, qid)
		rec.Record("range", "mt-index", qid, dur, nil, root)
		ql.Log(QueryLogRecord{QueryID: qid, Kind: "range", Duration: dur, Matches: int64(i)})
	}
	sampler.Sample()
	opts := BundleOptions{
		CounterHistogramPairs:  map[string]string{"q_total": "q_latency_ns"},
		ExpectCompleteRecorder: true,
	}
	return reg, sampler, rec, ql, opts
}

// TestBundleReconciles: a consistent system yields a bundle whose every
// check passes and whose JSON round-trips with all sections present.
func TestBundleReconciles(t *testing.T) {
	reg, sampler, rec, ql, opts := bundleFixture(t, 5)
	b := NewBundle(reg, sampler, rec, ql, nil, json.RawMessage(`{"series":150}`), opts, time.Minute)

	if !b.OK() {
		t.Fatalf("bundle failed reconciliation: %+v", b.FailedChecks())
	}
	if len(b.Reconciliation) < 3 {
		t.Errorf("only %d reconciliation checks ran", len(b.Reconciliation))
	}
	names := map[string]bool{}
	for _, c := range b.Reconciliation {
		names[c.Name] = true
	}
	for _, want := range []string{
		"histogram_buckets/q_latency_ns",
		"counter_histogram/q_total",
		"recorder_ring",
		"recorder_trace_rollups",
		"recorder_coverage",
	} {
		if !names[want] {
			t.Errorf("missing reconciliation check %q (have %v)", want, names)
		}
	}

	if b.SchemaVersion != BundleSchemaVersion {
		t.Errorf("schema version %d, want %d", b.SchemaVersion, BundleSchemaVersion)
	}
	if b.UptimeSeconds <= 0 || b.CreatedAt.IsZero() {
		t.Errorf("bundle missing envelope fields: uptime=%v created=%v", b.UptimeSeconds, b.CreatedAt)
	}
	if b.Build.GoVersion == "" || b.Runtime.NumCPU <= 0 {
		t.Errorf("bundle missing environment: build=%+v runtime=%+v", b.Build, b.Runtime)
	}
	if b.Queries == nil || b.Queries.Total != 5 || len(b.Queries.Slow) != 5 {
		t.Errorf("queries section: %+v", b.Queries)
	}
	if b.QueryLog == nil || b.QueryLog.Emitted != 5 {
		t.Errorf("query log section: %+v", b.QueryLog)
	}
	if b.Rates == nil || b.Rates.SchemaVersion != RatesSchemaVersion || len(b.Rates.Windows) != 1 {
		t.Errorf("rates section: %+v", b.Rates)
	}
	if string(b.Index) != `{"series":150}` {
		t.Errorf("index section: %s", b.Index)
	}

	// The bundle JSON round-trips through a generic decode with the
	// versioned envelope intact.
	var buf bytes.Buffer
	if err := b.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("bundle JSON invalid: %v", err)
	}
	if v, _ := decoded["schema_version"].(float64); int(v) != BundleSchemaVersion {
		t.Errorf("decoded schema_version = %v", decoded["schema_version"])
	}
	for _, key := range []string{"build", "runtime", "metrics", "rates", "queries", "query_log", "index", "reconciliation"} {
		if _, ok := decoded[key]; !ok {
			t.Errorf("bundle JSON missing %q section", key)
		}
	}
}

// TestBundleDetectsCounterDrift: a counter bumped without a matching
// histogram observation fails exactly the paired check — the bundle
// still writes, and FailedChecks names the drift.
func TestBundleDetectsCounterDrift(t *testing.T) {
	reg, sampler, rec, ql, opts := bundleFixture(t, 3)
	reg.Counter("q_total").Add(2) // drift: two phantom queries
	b := NewBundle(reg, sampler, rec, ql, nil, nil, opts)
	if b.OK() {
		t.Fatal("bundle passed despite counter drift")
	}
	failed := b.FailedChecks()
	foundPair, foundCoverage := false, false
	for _, c := range failed {
		switch c.Name {
		case "counter_histogram/q_total":
			foundPair = true
		case "recorder_coverage":
			foundCoverage = true
		case "histogram_buckets/q_latency_ns", "recorder_ring", "recorder_trace_rollups":
			t.Errorf("unrelated check failed: %+v", c)
		}
	}
	if !foundPair || !foundCoverage {
		t.Errorf("drift not attributed to pair+coverage checks: %+v", failed)
	}
	// A bundle with failing checks still serializes.
	var buf bytes.Buffer
	if err := b.WriteJSON(&buf); err != nil {
		t.Errorf("failed bundle does not serialize: %v", err)
	}
}

// TestBundleDetectsRollupDrift: a retained record whose headline counts
// disagree with its own trace fails recorder_trace_rollups.
func TestBundleDetectsRollupDrift(t *testing.T) {
	reg, sampler, rec, ql, opts := bundleFixture(t, 2)
	// A record whose trace says 1 match but was recorded against a
	// doctored trace claiming different rollups: build a trace, then
	// mutate its verify attribute after Record snapshots the rollups.
	root := tracedQuery(1, 2, 16)
	qid := NextQueryID()
	reg.Counter("q_total").Inc()
	reg.Histogram("q_latency_ns", nil).ObserveDurationExemplar(time.Millisecond, qid)
	rec.Record("range", "mt-index", qid, time.Millisecond, nil, root)
	for _, s := range root.trace.Spans() {
		if s.Kind() == KindVerify {
			s.Add(AMatches, 5) // rollup drift
		}
	}
	b := NewBundle(reg, sampler, rec, ql, nil, nil, opts)
	if b.OK() {
		t.Fatal("bundle passed despite rollup drift")
	}
	for _, c := range b.FailedChecks() {
		if c.Name == "recorder_trace_rollups" {
			return
		}
	}
	t.Errorf("rollup drift not detected: %+v", b.FailedChecks())
}

// TestBundleRingEvictionAccounting: an overflowing slow ring keeps the
// recorder_ring identity Total-Sampled == Evicted+len(Slow).
func TestBundleRingEvictionAccounting(t *testing.T) {
	reg := NewRegistry()
	rec := NewRecorder(RecorderOptions{Threshold: time.Nanosecond, SlowN: 4})
	for i := 0; i < 10; i++ {
		rec.Record("range", "seqscan", 0, time.Millisecond, nil, nil)
	}
	b := NewBundle(reg, nil, rec, nil, nil, nil, BundleOptions{})
	if b.Queries.Evicted != 6 || len(b.Queries.Slow) != 4 {
		t.Fatalf("evicted=%d slow=%d, want 6 and 4", b.Queries.Evicted, len(b.Queries.Slow))
	}
	for _, c := range b.Reconciliation {
		if c.Name == "recorder_ring" && !c.OK {
			t.Errorf("ring check failed under eviction: %+v", c)
		}
	}
	if !b.OK() {
		t.Errorf("bundle failed: %+v", b.FailedChecks())
	}
}

// TestBundleNilSections: nil sampler/recorder/qlog omit their sections
// and skip their checks; the bundle still reconciles.
func TestBundleNilSections(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("x_total").Add(3)
	b := NewBundle(reg, nil, nil, nil, nil, nil, BundleOptions{})
	if b.Queries != nil || b.QueryLog != nil || b.Rates != nil || b.Index != nil {
		t.Errorf("nil sources produced sections: %+v", b)
	}
	if !b.OK() {
		t.Errorf("minimal bundle failed: %+v", b.FailedChecks())
	}
	var buf bytes.Buffer
	if err := b.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"rates", "queries", "query_log", "index", "profiles"} {
		if _, ok := decoded[key]; ok {
			t.Errorf("omitted section %q present in JSON", key)
		}
	}
}

// TestBundleHeapProfile: the flag-gated heap profile lands in the
// bundle as a non-empty pprof blob.
func TestBundleHeapProfile(t *testing.T) {
	b := NewBundle(NewRegistry(), nil, nil, nil, nil, nil, BundleOptions{HeapProfile: true})
	if b.ProfileError != "" {
		t.Fatalf("profile error: %s", b.ProfileError)
	}
	if len(b.Profiles["heap"]) == 0 {
		t.Fatal("heap profile empty")
	}
	// CPU profile with a tiny duration also collects.
	b = NewBundle(NewRegistry(), nil, nil, nil, nil, nil, BundleOptions{CPUProfile: 10 * time.Millisecond})
	if b.ProfileError != "" {
		t.Fatalf("cpu profile error: %s", b.ProfileError)
	}
	if len(b.Profiles["cpu"]) == 0 {
		t.Fatal("cpu profile empty")
	}
}

// TestBundleErrRecords: errored queries flow through to the recorder
// section without tripping any check.
func TestBundleErrRecords(t *testing.T) {
	reg, sampler, rec, ql, opts := bundleFixture(t, 2)
	qid := NextQueryID()
	reg.Counter("q_total").Inc()
	reg.Histogram("q_latency_ns", nil).ObserveDurationExemplar(time.Millisecond, qid)
	rec.Record("range", "mt-index", qid, time.Millisecond, errors.New("checksum mismatch"), nil)
	b := NewBundle(reg, sampler, rec, ql, nil, nil, opts)
	if !b.OK() {
		t.Fatalf("bundle with errored query failed: %+v", b.FailedChecks())
	}
	last := b.Queries.Slow[len(b.Queries.Slow)-1]
	if last.Err != "checksum mismatch" {
		t.Errorf("errored record: %+v", last)
	}
}
