// Aggregate observability: index health reports, the slow-query flight
// recorder, and the windowed stats sampler. The recorder and sampler
// are process-wide (like the default metrics registry) and disabled by
// default; when disabled the query hot path pays exactly one atomic
// pointer load and zero allocations (pinned by benchmark).

package tsq

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	httppprof "net/http/pprof"
	"strconv"
	"sync/atomic"
	"time"

	"tsq/internal/core"
	"tsq/internal/obs"
	"tsq/internal/storage"
	"tsq/internal/wal"
)

// HealthReport is an index health analysis; see DB.IndexHealth.
type HealthReport = core.HealthReport

// GroupHealth is the per-transformation-group section of a HealthReport.
type GroupHealth = core.GroupHealth

// QueryRecord is one query retained by the flight recorder.
type QueryRecord = obs.QueryRecord

// RecorderSnapshot is the drained state of the flight recorder.
type RecorderSnapshot = obs.RecorderSnapshot

// RecorderOptions configures the flight recorder; zero values pick
// defaults (128 slow slots, 64 sampled, 10ms threshold).
type RecorderOptions = obs.RecorderOptions

// SamplerOptions configures the stats sampler; zero values pick
// defaults (1s interval, 300 snapshots retained).
type SamplerOptions = obs.SamplerOptions

// WindowStats is one sliding window of derived rates; see RatesHandler.
type WindowStats = obs.WindowStats

// RatesReport is the versioned envelope the /rates endpoint serves.
type RatesReport = obs.RatesReport

// QueryLogOptions configures the structured query log; zero values pick
// defaults (log every query, 100 records/s, 100ms slow threshold).
type QueryLogOptions = obs.QueryLogOptions

// QueryLogStats reports what the query log emitted, sampled out and
// dropped.
type QueryLogStats = obs.QueryLogStats

// Bundle is a support bundle; see WriteBundle.
type Bundle = obs.Bundle

// BundleOptions configures support-bundle collection; see WriteBundle.
type BundleOptions = obs.BundleOptions

// IndexHealth walks the DB's index read-only and reports its structural
// health: R*-tree per-level occupancy/margin/overlap/dead space, heap
// file liveness and utilization, storage counters, and — when ts is
// non-empty — per-transformation-group rectangle volumes (groups nil
// profiles all of ts as one group). Fold traced queries into the
// report's group counters with HealthReport.FoldTrace.
func (db *DB) IndexHealth(ctx context.Context, ts []Transform, groups [][]int) (*HealthReport, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.ix.Health(ctx, ts, groups)
}

// QueryGroups resolves the transformation partition a range query with
// these options would use (nil when the whole set forms one group) —
// pass it to IndexHealth to profile the same groups queries run with.
func (db *DB) QueryGroups(ts []Transform, opts QueryOptions) [][]int {
	return db.rangeOpts(ts, opts).Groups
}

// IndexHandler serves db's health report — the `-debug-addr` /index
// endpoint. JSON by default, the -inspect text report with
// ?format=text; ts/groups select the transformation groups profiled.
// On a sharded DB, ?shard=N serves shard N's section alone (400 when
// out of range or the DB is not sharded). The walk reads every index
// page, so each request is a full (buffered) index scan — an operator
// action, not a scrape target.
func IndexHandler(db *DB, ts []Transform, groups [][]int) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		hr, err := db.IndexHealth(req.Context(), ts, groups)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		if v := req.URL.Query().Get("shard"); v != "" {
			i, err := strconv.Atoi(v)
			if err != nil || i < 0 || i >= len(hr.Shards) {
				http.Error(w, fmt.Sprintf("shard must be in [0, %d)", len(hr.Shards)), http.StatusBadRequest)
				return
			}
			hr = hr.Shards[i]
		}
		if req.URL.Query().Get("format") == "text" {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			hr.WriteText(w)
			return
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(hr)
	})
}

// flightRecorder, statsSampler and queryLogger are the process-wide
// instances; nil means disabled. One atomic load on the query path
// decides.
var (
	flightRecorder atomic.Pointer[obs.Recorder]
	statsSampler   atomic.Pointer[obs.Sampler]
	queryLogger    atomic.Pointer[obs.QueryLogger]
)

// EnableFlightRecorder installs a process-wide slow-query flight
// recorder and returns it. Completed Range and NearestNeighbors queries
// (Batch requests included) above opts.Threshold are retained in a fixed ring; queries below it
// are reservoir-sampled. A recorder already installed is replaced (its
// contents are dropped).
func EnableFlightRecorder(opts RecorderOptions) *obs.Recorder {
	rec := obs.NewRecorder(opts)
	flightRecorder.Store(rec)
	return rec
}

// DisableFlightRecorder removes the process-wide recorder; the query
// path reverts to a single nil-pointer check.
func DisableFlightRecorder() { flightRecorder.Store(nil) }

// FlightRecorderSnapshot drains the current recorder contents; the zero
// snapshot when no recorder is installed.
func FlightRecorderSnapshot() RecorderSnapshot { return flightRecorder.Load().Snapshot() }

// QueriesHandler serves the flight recorder contents as JSON — the
// `-debug-addr` /queries endpoint. 503 while no recorder is installed.
func QueriesHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		rec := flightRecorder.Load()
		if rec == nil {
			http.Error(w, "flight recorder not enabled", http.StatusServiceUnavailable)
			return
		}
		rec.Handler().ServeHTTP(w, req)
	})
}

// StartSampler launches the process-wide windowed stats sampler over
// the default metrics registry (plus the function-backed storage
// counters) and returns it. A sampler already running is stopped and
// replaced.
func StartSampler(opts SamplerOptions) *obs.Sampler {
	s := obs.NewSampler(obs.Default, opts)
	if old := statsSampler.Swap(s); old != nil {
		old.Stop()
	}
	s.Start()
	return s
}

// StopSampler stops and removes the process-wide sampler.
func StopSampler() {
	if old := statsSampler.Swap(nil); old != nil {
		old.Stop()
	}
}

// DefaultRateWindows are the spans RatesHandler reports.
var DefaultRateWindows = []time.Duration{10 * time.Second, time.Minute, 5 * time.Minute}

// RatesHandler serves windowed rates (QPS, page-read and buffer-hit
// rates, windowed latency quantiles) as JSON — the `-debug-addr`
// /rates endpoint. 503 while no sampler is running.
func RatesHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		s := statsSampler.Load()
		if s == nil {
			http.Error(w, "stats sampler not running", http.StatusServiceUnavailable)
			return
		}
		s.Handler(DefaultRateWindows...).ServeHTTP(w, req)
	})
}

// EnableQueryLog installs a process-wide structured query log writing
// to the given slog handler and returns the logger (its Stats method
// reports what was emitted). Every completed Range and NearestNeighbors
// query (a Batch request is one) becomes one record, subject to the options' sampling and rate
// limit; queries at or above the slow threshold are promoted to Warn
// level with the rendered trace attached (when the query ran under
// one). A logger already installed is replaced. With no logger the
// query path pays one atomic load and zero allocations.
func EnableQueryLog(h slog.Handler, opts QueryLogOptions) *obs.QueryLogger {
	l := obs.NewQueryLogger(h, opts)
	queryLogger.Store(l)
	return l
}

// DisableQueryLog removes the process-wide query log.
func DisableQueryLog() { queryLogger.Store(nil) }

// QueryLogSnapshot returns the current query log's emission counters;
// the zero stats when no log is installed.
func QueryLogSnapshot() QueryLogStats { return queryLogger.Load().Stats() }

// EnableResourceAttribution turns on per-query resource attribution:
// each Range and NearestNeighbors query (a Batch request is one) samples process resource totals
// (heap allocation, GC cycles, stop-the-world pause) around its
// dispatch and books the delta into its Stats, its root trace span and
// its query-log record, and the query runs under runtime/pprof labels
// (tsq_query, tsq_algo, tsq_qid) so CPU and heap profiles group by
// query shape. The totals are process-wide: under concurrent queries
// the deltas overlap — attribution is a diagnostics signal, not exact
// metering. Costs two runtime samples (~µs) and the label set per
// query; disabled (the default) it is one atomic load.
func EnableResourceAttribution() { obs.SetAttribution(true) }

// DisableResourceAttribution turns per-query resource attribution off.
func DisableResourceAttribution() { obs.SetAttribution(false) }

// DebugOption customizes EnableDebugHandlers.
type DebugOption func(*debugConfig)

type debugConfig struct {
	index       bool
	indexTS     []Transform
	indexGroups [][]int
}

// WithIndexEndpoint additionally registers the /index health endpoint,
// profiling the given transformation set and groups (see IndexHandler).
// It lives behind an option because the endpoint needs the set the
// deployment queries with, and each request walks the whole index.
func WithIndexEndpoint(ts []Transform, groups [][]int) DebugOption {
	return func(c *debugConfig) {
		c.index = true
		c.indexTS = ts
		c.indexGroups = groups
	}
}

// EnableDebugHandlers registers the library's diagnostic endpoints on
// mux: /metrics, /queries, /rates, /debug/bundle, and the stdlib
// net/http/pprof profile handlers under /debug/pprof/. db may be nil
// (bundles then carry no index health). Add /index with
// WithIndexEndpoint. Opt-in by design: importing tsq alone exposes
// nothing (note the stdlib net/http/pprof package registers its
// handlers on http.DefaultServeMux as an import side effect; pass a
// private mux here to keep the debug surface off your main listener).
func EnableDebugHandlers(mux *http.ServeMux, db *DB, opts ...DebugOption) {
	var cfg debugConfig
	for _, o := range opts {
		o(&cfg)
	}
	mux.Handle("/metrics", MetricsHandler())
	mux.Handle("/queries", QueriesHandler())
	mux.Handle("/rates", RatesHandler())
	mux.Handle("/debug/bundle", BundleHandler(db))
	if cfg.index {
		mux.Handle("/index", IndexHandler(db, cfg.indexTS, cfg.indexGroups))
	}
	mux.HandleFunc("/debug/pprof/", httppprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
}

// bundleCounterPairs are the counter/histogram pairs the facade bumps
// in lockstep (once each per query); bundle reconciliation checks them
// for exact agreement.
func bundleCounterPairs() map[string]string {
	return map[string]string{
		"tsq_range_queries_total": "tsq_range_latency_ns",
		"tsq_nn_queries_total":    "tsq_nn_latency_ns",
	}
}

// CollectBundle assembles a support bundle from the process-wide
// diagnostics (default registry, sampler, flight recorder, query log)
// plus db's index health report when db is non-nil. The bundle audits
// itself — registry counters against histogram totals, recorder ring
// accounting, record rollups against their retained traces — and
// Bundle.OK reports the verdict; a failing bundle is still returned
// (the mismatch is the diagnostic). The index walk reads every index
// page and the optional CPU profile blocks for its duration: an
// operator action, not a scrape target.
func CollectBundle(ctx context.Context, db *DB, opts BundleOptions) (*Bundle, error) {
	if opts.CounterHistogramPairs == nil {
		opts.CounterHistogramPairs = bundleCounterPairs()
	}
	var health json.RawMessage
	if db != nil {
		hr, err := db.IndexHealth(ctx, nil, nil)
		if err != nil {
			return nil, fmt.Errorf("tsq: bundle index health: %w", err)
		}
		health, err = json.Marshal(hr)
		if err != nil {
			return nil, fmt.Errorf("tsq: bundle index health: %w", err)
		}
	}
	b := obs.NewBundle(obs.Default, statsSampler.Load(), flightRecorder.Load(),
		queryLogger.Load(), captureWriter.Load(), health, opts, DefaultRateWindows...)
	return b, nil
}

// WriteBundle collects a support bundle (see CollectBundle) and writes
// it to w as indented JSON.
func WriteBundle(ctx context.Context, w io.Writer, db *DB, opts BundleOptions) error {
	b, err := CollectBundle(ctx, db, opts)
	if err != nil {
		return err
	}
	return b.WriteJSON(w)
}

// BundleHandler serves a support bundle — the /debug/bundle endpoint.
// Profiles are opt-in per request: ?cpu=2s collects a CPU profile of
// that duration (the request blocks for it), ?heap=1 a heap profile.
func BundleHandler(db *DB) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		var opts BundleOptions
		if v := req.URL.Query().Get("cpu"); v != "" {
			d, err := time.ParseDuration(v)
			if err != nil || d < 0 || d > time.Minute {
				http.Error(w, "cpu must be a duration up to 1m", http.StatusBadRequest)
				return
			}
			opts.CPUProfile = d
		}
		if req.URL.Query().Get("heap") != "" {
			opts.HeapProfile = true
		}
		b, err := CollectBundle(req.Context(), db, opts)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		_ = b.WriteJSON(w)
	})
}

// The storage layer's process-wide I/O counters, mirrored into the
// default registry as function-backed counters: sampled only at
// snapshot time, so the mirroring itself costs nothing per query. With
// these the sampler can derive buffer hit ratio and page-read rates
// over its windows. Runtime health gauges (heap, goroutines, GC) ride
// the same mechanism, and the latency histograms get exemplar slots so
// /metrics buckets link back to query ids.
func init() {
	obs.Default.CounterFunc("tsq_pages_read_total", func() int64 { return storage.GlobalStats().Reads })
	obs.Default.CounterFunc("tsq_buffer_hits_total", func() int64 { return storage.GlobalStats().Hits })
	obs.Default.CounterFunc("tsq_pages_written_total", func() int64 { return storage.GlobalStats().Writes })
	obs.Default.CounterFunc("tsq_pages_prefetched_total", func() int64 { return storage.GlobalStats().Prefetched })
	obs.Default.CounterFunc("tsq_io_errors_total", func() int64 { return storage.GlobalStats().IOErrors })
	obs.Default.CounterFunc("tsq_checksum_failures_total", func() int64 { return storage.GlobalStats().ChecksumFailures })
	obs.Default.CounterFunc("tsq_wal_records_total", func() int64 { return wal.GlobalStats().Records })
	obs.Default.CounterFunc("tsq_wal_replayed_total", wal.GlobalReplayed)
	obs.Default.CounterFunc("tsq_wal_fsyncs_total", func() int64 { return wal.GlobalStats().Fsyncs })
	obs.Default.CounterFunc("tsq_wal_group_commits_total", func() int64 { return wal.GlobalStats().GroupCommits })
	obs.Default.CounterFunc("tsq_wal_checkpoints_total", func() int64 { return wal.GlobalStats().Checkpoints })
	obs.RegisterRuntimeMetrics(obs.Default)
	mRangeLatency.EnableExemplars()
	mNNLatency.EnableExemplars()
}
