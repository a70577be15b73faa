package tsq

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"tsq/internal/datagen"
	"tsq/internal/obs"
)

// openPagedTestDB builds a file-backed DB so queries fetch records
// through the buffer pool and the storage counters move.
func openPagedTestDB(t testing.TB, seed int64, count, n int) *DB {
	t.Helper()
	path := filepath.Join(t.TempDir(), "observe.tsq")
	db, err := CreateFile(path, datagen.RandomWalks(seed, count, n), nil, Options{PageSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// TestTracedNNFacadeCrossCheck runs a traced nearest-neighbor query
// through the public facade and reconciles the span tree's attributes
// against the storage counters exactly: every page fetch the manager
// counted must be attributed to a probe span, and the node-visit count
// must equal the disk-access statistic.
func TestTracedNNFacadeCrossCheck(t *testing.T) {
	db := openPagedTestDB(t, 5, 150, 32)
	ts := MovingAverages(32, 2, 6)
	q := db.Get(3)

	want, wantSt, err := db.NearestNeighbors(q, ts, 5, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}

	tr := NewTrace()
	ctx := WithTrace(context.Background(), tr)
	before := db.DiskStats()
	got, st, err := db.NearestNeighborsCtx(ctx, q, ts, 5, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	after := db.DiskStats()

	if len(got) != len(want) || st != wantSt {
		t.Errorf("traced NN diverged: %d results (want %d), stats %+v (want %+v)",
			len(got), len(want), st, wantSt)
	}
	wantIO := (after.Reads - before.Reads) + (after.Hits - before.Hits)
	gotIO := tr.Sum(obs.KindProbe, obs.APagesRead) + tr.Sum(obs.KindProbe, obs.ABufferHits)
	if gotIO != wantIO {
		t.Errorf("trace attributes %d page fetches, storage counted %d", gotIO, wantIO)
	}
	if wantIO == 0 {
		t.Error("paged NN query performed no page fetches; cross-check is vacuous")
	}
	if nodes := tr.Sum(obs.KindProbe, obs.ANodes); nodes != int64(st.DAAll) {
		t.Errorf("trace nodes = %d, stats DAAll = %d", nodes, st.DAAll)
	}
	if m := tr.Sum(obs.KindQuery, obs.AMatches); m != int64(len(got)) {
		t.Errorf("root span matches = %d, want %d", m, len(got))
	}
}

// TestDisabledObservabilityAddsNoAllocs pins the hot-path contract:
// with no flight recorder installed the per-query hook is one atomic
// pointer load — zero allocations — and a facade query allocates
// exactly as much as it did before a recorder was ever enabled.
func TestDisabledObservabilityAddsNoAllocs(t *testing.T) {
	DisableFlightRecorder()
	StopSampler()

	// The hook exactly as rangeRecord / NearestNeighborsCtx run it.
	hook := testing.AllocsPerRun(100, func() {
		if rec := flightRecorder.Load(); rec != nil {
			rec.Record("range", MTIndex.String(), 0, time.Microsecond, nil, nil)
		}
	})
	if hook != 0 {
		t.Errorf("disabled recorder hook allocates %.0f/op, want 0", hook)
	}

	db := openTestDB(t, 2, 200, 64)
	ts := MovingAverages(64, 5, 20)
	thr := Correlation(0.95)
	run := func() {
		if _, _, err := db.RangeByID(10, ts, thr, QueryOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	base := testing.AllocsPerRun(20, run)

	// Enable, query, then disable: the cycle must leave no residue on
	// the disabled path.
	EnableFlightRecorder(RecorderOptions{Threshold: time.Nanosecond})
	StartSampler(SamplerOptions{Interval: time.Hour})
	run()
	DisableFlightRecorder()
	StopSampler()

	after := testing.AllocsPerRun(20, run)
	if after > base {
		t.Errorf("disabled path allocates %.0f/op after an enable cycle, %.0f/op before: recorder left %v allocs behind",
			after, base, after-base)
	}
}

// TestFlightRecorderCapturesFacadeQueries: enabled recorder retains
// range and NN queries with their trace-derived attribute counts.
func TestFlightRecorderCapturesFacadeQueries(t *testing.T) {
	db := openTestDB(t, 7, 150, 32)
	ts := MovingAverages(32, 2, 6)

	// Threshold 1ns: every query lands in the slow ring, deterministic.
	EnableFlightRecorder(RecorderOptions{SlowN: 8, Threshold: time.Nanosecond})
	defer DisableFlightRecorder()

	tr := NewTrace()
	ctx := WithTrace(context.Background(), tr)
	matches, _, err := db.RangeCtx(ctx, db.Get(0), ts, Correlation(0.9), QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.NearestNeighbors(db.Get(1), ts, 3, QueryOptions{}); err != nil {
		t.Fatal(err)
	}

	snap := FlightRecorderSnapshot()
	if snap.Total != 2 || len(snap.Slow) != 2 {
		t.Fatalf("snapshot total=%d slow=%d, want 2 and 2", snap.Total, len(snap.Slow))
	}
	rangeRec, nnRec := snap.Slow[0], snap.Slow[1]
	if rangeRec.Kind != "range" || nnRec.Kind != "nn" {
		t.Fatalf("kinds = %q, %q, want range, nn", rangeRec.Kind, nnRec.Kind)
	}
	if rangeRec.Label != MTIndex.String() {
		t.Errorf("range label = %q, want %q", rangeRec.Label, MTIndex.String())
	}
	// The traced range query carries its trace and attribute rollups.
	if rangeRec.Trace == nil {
		t.Fatal("traced range query recorded without its trace")
	}
	if rangeRec.Matches != int64(len(matches)) {
		t.Errorf("recorded matches = %d, query returned %d", rangeRec.Matches, len(matches))
	}
	if rangeRec.Transforms != int64(len(ts)) {
		t.Errorf("recorded transforms = %d, want %d", rangeRec.Transforms, len(ts))
	}
	// The untraced NN query is still recorded, with zero attributes.
	if nnRec.Trace != nil || nnRec.Matches != 0 {
		t.Errorf("untraced NN record carries trace data: %+v", nnRec)
	}
	if nnRec.DurationNs <= 0 {
		t.Errorf("recorded duration = %d, want > 0", nnRec.DurationNs)
	}
}

// TestObservabilityHandlers drives the three -debug-addr endpoints:
// 503 while disabled, well-formed JSON once enabled.
func TestObservabilityHandlers(t *testing.T) {
	DisableFlightRecorder()
	StopSampler()

	rr := httptest.NewRecorder()
	QueriesHandler().ServeHTTP(rr, httptest.NewRequest("GET", "/queries", nil))
	if rr.Code != 503 {
		t.Errorf("/queries while disabled: status %d, want 503", rr.Code)
	}
	rr = httptest.NewRecorder()
	RatesHandler().ServeHTTP(rr, httptest.NewRequest("GET", "/rates", nil))
	if rr.Code != 503 {
		t.Errorf("/rates while stopped: status %d, want 503", rr.Code)
	}

	EnableFlightRecorder(RecorderOptions{Threshold: time.Nanosecond})
	StartSampler(SamplerOptions{Interval: time.Hour})
	defer DisableFlightRecorder()
	defer StopSampler()

	db := openPagedTestDB(t, 9, 120, 32)
	ts := MovingAverages(32, 2, 6)
	if _, _, err := db.Range(db.Get(2), ts, Correlation(0.9), QueryOptions{}); err != nil {
		t.Fatal(err)
	}

	rr = httptest.NewRecorder()
	QueriesHandler().ServeHTTP(rr, httptest.NewRequest("GET", "/queries", nil))
	if rr.Code != 200 {
		t.Fatalf("/queries: status %d", rr.Code)
	}
	var snap RecorderSnapshot
	if err := json.Unmarshal(rr.Body.Bytes(), &snap); err != nil {
		t.Fatalf("/queries JSON: %v", err)
	}
	if snap.Total != 1 || len(snap.Slow) != 1 || snap.Slow[0].Kind != "range" {
		t.Errorf("/queries snapshot: %+v", snap)
	}

	rr = httptest.NewRecorder()
	RatesHandler().ServeHTTP(rr, httptest.NewRequest("GET", "/rates", nil))
	if rr.Code != 200 {
		t.Fatalf("/rates: status %d", rr.Code)
	}
	var rates RatesReport
	if err := json.Unmarshal(rr.Body.Bytes(), &rates); err != nil {
		t.Fatalf("/rates JSON: %v", err)
	}
	if rates.SchemaVersion != obs.RatesSchemaVersion {
		t.Errorf("/rates schema_version = %d, want %d", rates.SchemaVersion, obs.RatesSchemaVersion)
	}
	if rates.UptimeSeconds <= 0 {
		t.Errorf("/rates uptime_seconds = %v, want > 0", rates.UptimeSeconds)
	}
	if len(rates.Windows) != len(DefaultRateWindows) {
		t.Errorf("/rates returned %d windows, want %d", len(rates.Windows), len(DefaultRateWindows))
	}

	groups := db.QueryGroups(ts, QueryOptions{})
	rr = httptest.NewRecorder()
	IndexHandler(db, ts, groups).ServeHTTP(rr, httptest.NewRequest("GET", "/index", nil))
	if rr.Code != 200 {
		t.Fatalf("/index: status %d", rr.Code)
	}
	var hr HealthReport
	if err := json.Unmarshal(rr.Body.Bytes(), &hr); err != nil {
		t.Fatalf("/index JSON: %v", err)
	}
	if hr.Series != 120 || hr.Tree == nil || hr.Tree.Entries == 0 || hr.Heap == nil {
		t.Errorf("/index report: series=%d tree=%v heap=%v", hr.Series, hr.Tree, hr.Heap)
	}
	rr = httptest.NewRecorder()
	IndexHandler(db, ts, groups).ServeHTTP(rr, httptest.NewRequest("GET", "/index?format=text", nil))
	if !strings.Contains(rr.Body.String(), "index health: 120 series") {
		t.Errorf("/index?format=text body:\n%s", rr.Body.String())
	}
}

// Benchmark pair pinning the flight-recorder overhead on the query hot
// path: Disabled is the production default (one atomic load), Enabled
// pays the record under a short mutex hold.
func benchmarkRangeRecorder(b *testing.B, enabled bool) {
	DisableFlightRecorder()
	if enabled {
		EnableFlightRecorder(RecorderOptions{Threshold: time.Nanosecond})
		defer DisableFlightRecorder()
	}
	db := openTestDB(b, 2, 200, 64)
	ts := MovingAverages(64, 5, 20)
	thr := Correlation(0.95)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := db.RangeByID(10, ts, thr, QueryOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRangeRecorderDisabled(b *testing.B) { benchmarkRangeRecorder(b, false) }
func BenchmarkRangeRecorderEnabled(b *testing.B)  { benchmarkRangeRecorder(b, true) }

// slogCapture retains emitted records for the facade query-log tests.
type slogCapture struct {
	mu      sync.Mutex
	records []slog.Record
}

func (h *slogCapture) Enabled(context.Context, slog.Level) bool { return true }
func (h *slogCapture) Handle(_ context.Context, r slog.Record) error {
	h.mu.Lock()
	h.records = append(h.records, r.Clone())
	h.mu.Unlock()
	return nil
}
func (h *slogCapture) WithAttrs([]slog.Attr) slog.Handler { return h }
func (h *slogCapture) WithGroup(string) slog.Handler      { return h }

func (h *slogCapture) attrs(i int) map[string]slog.Value {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make(map[string]slog.Value)
	h.records[i].Attrs(func(a slog.Attr) bool {
		out[a.Key] = a.Value
		return true
	})
	return out
}

func (h *slogCapture) len() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.records)
}

// TestQueryLogFacade: an installed query log turns each facade query
// into one structured record carrying the query's id, shape and effort
// counters; a nanosecond slow threshold promotes it to Warn with the
// rendered trace attached.
func TestQueryLogFacade(t *testing.T) {
	h := &slogCapture{}
	EnableQueryLog(h, QueryLogOptions{SlowThreshold: -1})
	defer DisableQueryLog()

	db := openPagedTestDB(t, 11, 150, 32)
	ts := MovingAverages(32, 2, 6)
	matches, _, err := db.Range(db.Get(4), ts, Correlation(0.9), QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if h.len() != 1 {
		t.Fatalf("range query emitted %d log records, want 1", h.len())
	}
	attrs := h.attrs(0)
	if attrs["kind"].String() != "range" || attrs["algo"].String() != MTIndex.String() {
		t.Errorf("record kind=%q algo=%q", attrs["kind"], attrs["algo"])
	}
	if attrs["query_id"].Uint64() == 0 {
		t.Error("record missing query id")
	}
	if got := attrs["matches"].Int64(); got != int64(len(matches)) {
		t.Errorf("record matches = %d, query returned %d", got, len(matches))
	}
	if attrs["transforms"].Int64() != int64(len(ts)) {
		t.Errorf("record transforms = %d, want %d", attrs["transforms"].Int64(), len(ts))
	}
	if attrs["pages_read"].Int64()+attrs["buffer_hits"].Int64() == 0 {
		t.Error("paged query logged zero I/O")
	}
	if _, ok := attrs["eps"]; !ok {
		t.Error("range record missing eps")
	}

	// An NN query logs k, and the nanosecond threshold promotes a traced
	// query to Warn with its trace rendered into the record.
	EnableQueryLog(h, QueryLogOptions{SlowThreshold: time.Nanosecond})
	tr := NewTrace()
	ctx := WithTrace(context.Background(), tr)
	if _, _, err := db.NearestNeighborsCtx(ctx, db.Get(5), ts, 3, QueryOptions{}); err != nil {
		t.Fatal(err)
	}
	if h.len() != 2 {
		t.Fatalf("NN query emitted %d more records, want 1", h.len()-1)
	}
	attrs = h.attrs(1)
	if attrs["kind"].String() != "nn" || attrs["k"].Int64() != 3 {
		t.Errorf("NN record kind=%q k=%v", attrs["kind"], attrs["k"])
	}
	if !attrs["slow"].Bool() {
		t.Error("1ns-threshold record not slow-promoted")
	}
	if !strings.Contains(attrs["trace"].String(), "nn") {
		t.Errorf("slow record trace attr = %q", attrs["trace"])
	}
	if st := QueryLogSnapshot(); st.Emitted != 1 || st.Slow != 1 {
		t.Errorf("second logger stats = %+v, want 1 emitted / 1 slow", st)
	}

	DisableQueryLog()
	if st := QueryLogSnapshot(); st != (QueryLogStats{}) {
		t.Errorf("disabled query log reports stats: %+v", st)
	}
}

// TestResourceAttributionFacade: with attribution on, a query's stats
// and root span carry the process resource deltas; off (the default),
// they stay zero.
func TestResourceAttributionFacade(t *testing.T) {
	db := openTestDB(t, 13, 2000, 32)
	ts := MovingAverages(32, 2, 6)

	_, st, err := db.Range(db.Get(1), ts, Correlation(0.9), QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.AllocBytes != 0 || st.Mallocs != 0 || st.GCCycles != 0 || st.GCPauseNs != 0 {
		t.Errorf("attribution disabled but stats carry resources: %+v", st)
	}

	EnableResourceAttribution()
	defer DisableResourceAttribution()
	tr := NewTrace()
	ctx := WithTrace(context.Background(), tr)
	// The runtime counts small objects when a per-P span fills up, so a
	// query that allocates little can read a zero delta. A sequential
	// scan whose answer is most of the database grows its match slice
	// past the large-object size, and large objects are counted at once.
	m, st, err := db.RangeCtx(ctx, db.Get(1), ts, Correlation(0), QueryOptions{Algorithm: SeqScan})
	if err != nil {
		t.Fatal(err)
	}
	if len(m) < 2000 {
		t.Fatalf("only %d matches; the answer may fit in small objects", len(m))
	}
	if st.AllocBytes <= 0 || st.Mallocs <= 0 {
		t.Errorf("attributed stats = %+v, want positive alloc deltas", st)
	}
	if st.GCCycles < 0 || st.GCPauseNs < 0 {
		t.Errorf("attributed GC deltas negative: %+v", st)
	}
	root := tr.Spans()[0]
	if !root.Has(obs.AAllocBytes) || !root.Has(obs.AMallocs) {
		t.Error("root span missing resource attributes")
	}
	if root.Get(obs.AAllocBytes) != st.AllocBytes {
		t.Errorf("root span alloc_bytes = %d, stats say %d", root.Get(obs.AAllocBytes), st.AllocBytes)
	}

	// NN path books resources the same way. The scan keeps only its k
	// best, so k is the whole database: its answer, one entry per other
	// stored series, is a large object too.
	_, nst, err := db.NearestNeighbors(db.Get(2), ts, db.Len(), QueryOptions{Algorithm: SeqScan})
	if err != nil {
		t.Fatal(err)
	}
	if nst.AllocBytes <= 0 {
		t.Errorf("attributed NN stats = %+v, want positive alloc delta", nst)
	}
}

// TestCollectBundleFacade: a live system produces a bundle that passes
// every reconciliation check and carries the index health report.
// ExpectCompleteRecorder is off: the process-wide query counters span
// the whole test binary, not just this recorder's lifetime.
func TestCollectBundleFacade(t *testing.T) {
	EnableFlightRecorder(RecorderOptions{Threshold: time.Nanosecond})
	StartSampler(SamplerOptions{Interval: time.Hour})
	h := &slogCapture{}
	EnableQueryLog(h, QueryLogOptions{SlowThreshold: -1})
	defer DisableFlightRecorder()
	defer StopSampler()
	defer DisableQueryLog()

	db := openPagedTestDB(t, 17, 120, 32)
	ts := MovingAverages(32, 2, 6)
	for i := 0; i < 3; i++ {
		if _, _, err := db.Range(db.Get(int64(i)), ts, Correlation(0.9), QueryOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	statsSampler.Load().Sample() // second snapshot so windows derive

	b, err := CollectBundle(context.Background(), db, BundleOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !b.OK() {
		t.Fatalf("bundle failed reconciliation: %+v", b.FailedChecks())
	}
	if b.Queries == nil || b.Queries.Total != 3 {
		t.Errorf("bundle recorder total = %+v, want 3", b.Queries)
	}
	if b.QueryLog == nil || b.QueryLog.Emitted != 3 {
		t.Errorf("bundle query log = %+v, want 3 emitted", b.QueryLog)
	}
	var hr HealthReport
	if err := json.Unmarshal(b.Index, &hr); err != nil {
		t.Fatalf("bundle index section: %v", err)
	}
	if hr.Series != 120 {
		t.Errorf("bundle index series = %d, want 120", hr.Series)
	}
	// The range latency histogram carries exemplars pointing at issued
	// query ids.
	var sawExemplar bool
	for _, hsnap := range b.Metrics.Histograms {
		if hsnap.Name == "tsq_range_latency_ns" && len(hsnap.Exemplars) > 0 {
			sawExemplar = true
		}
	}
	if !sawExemplar {
		t.Error("range latency histogram has no exemplars after 3 queries")
	}

	// The HTTP surface serves the same bundle; ?heap=1 adds a profile.
	rr := httptest.NewRecorder()
	BundleHandler(db).ServeHTTP(rr, httptest.NewRequest("GET", "/debug/bundle?heap=1", nil))
	if rr.Code != 200 {
		t.Fatalf("/debug/bundle: status %d", rr.Code)
	}
	var served Bundle
	if err := json.Unmarshal(rr.Body.Bytes(), &served); err != nil {
		t.Fatalf("/debug/bundle JSON: %v", err)
	}
	if served.SchemaVersion != obs.BundleSchemaVersion || len(served.Profiles["heap"]) == 0 {
		t.Errorf("served bundle: schema=%d heap=%d bytes", served.SchemaVersion, len(served.Profiles["heap"]))
	}
	rr = httptest.NewRecorder()
	BundleHandler(db).ServeHTTP(rr, httptest.NewRequest("GET", "/debug/bundle?cpu=2h", nil))
	if rr.Code != http.StatusBadRequest {
		t.Errorf("/debug/bundle?cpu=2h: status %d, want 400", rr.Code)
	}
}

// TestEnableDebugHandlers: one call wires the full diagnostic surface
// onto a private mux.
func TestEnableDebugHandlers(t *testing.T) {
	db := openPagedTestDB(t, 19, 100, 32)
	mux := http.NewServeMux()
	EnableDebugHandlers(mux, db)
	for path, want := range map[string]int{
		"/metrics":             200,
		"/debug/bundle":        200,
		"/debug/pprof/cmdline": 200,
		"/debug/pprof/symbol":  200,
		"/nonexistent":         404,
	} {
		rr := httptest.NewRecorder()
		mux.ServeHTTP(rr, httptest.NewRequest("GET", path, nil))
		if rr.Code != want {
			t.Errorf("%s: status %d, want %d", path, rr.Code, want)
		}
	}
	// /queries and /rates answer 503 or 200 depending on whether another
	// test left the recorder enabled — either way they are wired.
	for _, path := range []string{"/queries", "/rates"} {
		rr := httptest.NewRecorder()
		mux.ServeHTTP(rr, httptest.NewRequest("GET", path, nil))
		if rr.Code != 200 && rr.Code != 503 {
			t.Errorf("%s: status %d, want 200 or 503", path, rr.Code)
		}
	}
}

// TestDisabledQueryLogAddsNoAllocs pins the query-log contract: with no
// logger installed the per-query hook allocates nothing.
func TestDisabledQueryLogAddsNoAllocs(t *testing.T) {
	DisableQueryLog()
	DisableResourceAttribution()
	db := openTestDB(t, 3, 200, 64)
	ts := MovingAverages(64, 5, 20)
	thr := Correlation(0.95)
	run := func() {
		if _, _, err := db.RangeByID(10, ts, thr, QueryOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	base := testing.AllocsPerRun(20, run)

	EnableQueryLog(slog.NewTextHandler(io.Discard, nil), QueryLogOptions{})
	EnableResourceAttribution()
	run()
	DisableQueryLog()
	DisableResourceAttribution()

	after := testing.AllocsPerRun(20, run)
	if after > base {
		t.Errorf("disabled path allocates %.0f/op after a qlog cycle, %.0f/op before", after, base)
	}
}

// Benchmark pair pinning the query-log overhead: Disabled is the
// production default (one atomic load), Enabled pays record assembly
// and a discarded handler write.
func benchmarkRangeQueryLog(b *testing.B, enabled bool) {
	DisableQueryLog()
	if enabled {
		EnableQueryLog(slog.NewTextHandler(io.Discard, nil), QueryLogOptions{SlowThreshold: -1, MaxPerSec: -1})
		defer DisableQueryLog()
	}
	db := openTestDB(b, 2, 200, 64)
	ts := MovingAverages(64, 5, 20)
	thr := Correlation(0.95)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := db.RangeByID(10, ts, thr, QueryOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRangeQueryLogDisabled(b *testing.B) { benchmarkRangeQueryLog(b, false) }
func BenchmarkRangeQueryLogEnabled(b *testing.B)  { benchmarkRangeQueryLog(b, true) }
