// Command benchmark is the repository's performance ledger: four fixed
// workloads driven through the public tsq API by one closed-loop client,
// eight end-to-end metrics per workload, and a per-layer breakdown taken
// from counters the program already keeps, from a traced pass, and from
// direct drivers of each layer's public functions. BENCHMARK.json at the
// repository root names the command, the workloads and the metrics; see
// README.md in this directory.
//
//	go run ./benchmark -workload range-mem -seed 1 -seconds 20 -trace 0
//	go run ./benchmark -aa 10
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"tsq"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints: the contract of BENCHMARK.json.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runInfo is printed on the line before the result: enough to show that
// two runs did the same work on the same machine.
type runInfo struct {
	Workload   string    `json:"workload"`
	Seed       int64     `json:"seed"`
	Seconds    float64   `json:"seconds"`
	Trace      bool      `json:"trace"`
	OpsDigest  string    `json:"ops_digest"`
	TimedOps   int       `json:"timed_ops"`
	WarmOps    int       `json:"warm_ops"`
	TracedOps  int       `json:"traced_ops"`
	Spans      int       `json:"spans"`
	OracleOps  int       `json:"oracle_ops"`
	Series     int       `json:"series"`
	TimedS     float64   `json:"timed_s"`
	RoundRates []float64 `json:"round_ops_per_s"`
	GoVersion  string    `json:"go_version"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	NumCPU     int       `json:"num_cpu"`
	PageSize   int       `json:"page_size"`
	TempDir    string    `json:"temp_dir"`
}

// endToEndUnits and perLayerUnits list every metric a run reports, with
// its unit; BENCHMARK.json lists the same names (a test compares them).
var endToEndUnits = map[string]string{
	"setup_s":         "s",
	"ops_per_s":       "1/s",
	"op_p50_ms":       "ms",
	"op_p99_ms":       "ms",
	"heap_mb":         "MB",
	"pages_per_op":    "count",
	"mallocs_per_op":  "count",
	"alloc_kb_per_op": "KB",
}

var perLayerUnits = map[string]string{
	"core.filter_ms_per_op":             "ms",
	"core.verify_ms_per_op":             "ms",
	"core.probe_ms_per_op":              "ms",
	"core.merge_ms_per_op":              "ms",
	"core.candidates_per_op":            "count",
	"core.comparisons_per_op":           "count",
	"core.abandoned_per_op":             "count",
	"core.skipped_lb_per_op":            "count",
	"core.skipped_lb0_per_op":           "count",
	"core.skipped_lb1_per_op":           "count",
	"core.skipped_lb2_per_op":           "count",
	"core.index_searches_per_op":        "count",
	"core.pruning_power":                "ratio",
	"core.candidate_hit_ratio":          "ratio",
	"core.lb_ns_per_candidate":          "ns",
	"core.features_us_per_series":       "us",
	"dft.transform_us_per_series":       "us",
	"rtree.nodes_per_op":                "count",
	"rtree.leaves_per_op":               "count",
	"rtree.load_us_per_node":            "us",
	"rtree.load_allocs_per_node":        "count",
	"rtree.insert_us_per_point":         "us",
	"heapfile.fetch_us_per_rec":         "us",
	"heapfile.fetch_allocs_per_rec":     "count",
	"heapfile.append_us_per_rec":        "us",
	"storage.reads_per_op":              "count",
	"storage.prefetched_per_op":         "count",
	"storage.pool_hits_per_op":          "count",
	"storage.writes_per_op":             "count",
	"storage.pool_hit_ratio":            "ratio",
	"storage.read_us_per_page":          "us",
	"storage.file_bytes_per_user_byte":  "ratio",
	"storage.write_bytes_per_user_byte": "ratio",
	"storage.io_errors":                 "count",
	"storage.checksum_failures":         "count",
	"wal.bytes_per_insert":              "B",
	"wal.fsyncs_per_insert":             "count",
	"wal.fsync_us":                      "us",
	"wal.checkpoints":                   "count",
	"wal.group_commits":                 "count",
	"wal.append_us_per_rec":             "us",
	"transform.dist_ns_per_cmp":         "ns",
	"series.dist_ns_per_cmp":            "ns",
	"tsq.insert_p50_ms":                 "ms",
	"tsq.insert_p99_ms":                 "ms",
	"tsq.query_p50_ms":                  "ms",
	"tsq.query_p99_ms":                  "ms",
	"tsq.insert_share":                  "ratio",
	"tsq.insert_ms_per_op":              "ms",
	"tsq.facade_us_per_op":              "us",
	"tsq.build_s":                       "s",
	"tsq.reopen_s":                      "s",
	"tsq.matches_per_op":                "count",
	"obs.traced_op_ms":                  "ms",
	"obs.trace_overhead_pct":            "%",
	"runtime.gc_cycles_per_1k_ops":      "count",
	"runtime.gc_pause_ms_per_1k_ops":    "ms",
}

// tempRoot is where a run keeps its files: inside the working directory
// (the driver's checkout), in the directory .gitignore names.
const tempRoot = ".bench_build"

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: range-mem, range-disk, nn-shards2 or ingest-mixed")
		seed    = flag.Int64("seed", 1, "seed of the generated series, query ids and held-out queries")
		seconds = flag.Float64("seconds", 20, "length of the timed section at the defining commit; scales the fixed operation count")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics, with the traced pass and the direct drivers")
		quick   = flag.Bool("quick", false, "smoke-test scale: 1000 series")
		aa      = flag.Int("aa", 0, "A/A mode: run two interleaved sets of this many runs per workload and print how far they disagree")
	)
	flag.Parse()
	if *aa > 0 {
		if err := runAA(*aa, *seed, *seconds); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		return
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	if *quick {
		w = w.quick()
	}
	info, res, err := run(w, *seed, *seconds, *trace != 0, tempRoot)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	if err := errors.Join(enc.Encode(info), enc.Encode(res)); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// run performs one run of w: generate the inputs, set up, warm up, time
// the fixed operation list, then (with trace) the traced pass and the
// direct drivers, then the answer and durability checks. Its files live
// in a fresh directory under tmp, removed before it returns.
func run(w workload, seed int64, seconds float64, trace bool, tmp string) (runInfo, result, error) {
	var res result
	// A traced run halves the timed section, whose counters it needs, and
	// spends the time on the traced pass and the direct drivers instead,
	// so that it takes no longer than an end-to-end run.
	timedSeconds := seconds
	if trace {
		timedSeconds /= 2
	}
	in := generate(w, seed, timedSeconds)
	info := runInfo{
		Workload: w.name, Seed: seed, Seconds: seconds, Trace: trace,
		OpsDigest: in.digest, TimedOps: len(in.timed), WarmOps: len(in.warm), Series: w.n,
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		PageSize: pageSize,
	}
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return info, res, err
	}
	dir, err := os.MkdirTemp(tmp, "run-")
	if err != nil {
		return info, res, err
	}
	defer func() { _ = os.RemoveAll(dir) }() // scratch files; the run's outcome does not depend on it
	info.TempDir = dir

	r := &runner{
		w: w, in: in, dir: dir,
		ts:   w.transforms(),
		thr:  tsq.Correlation(w.thr),
		acks: make([]acked, 0, 2*len(in.extra)),
	}
	defer func() {
		if r.db != nil {
			_ = r.db.Close() // error path only; the success path checks Close
		}
	}()

	build, setup, err := r.setup()
	if err != nil {
		return info, res, err
	}

	t := r.runTimed()
	info.TimedS, info.RoundRates = t.wall.Seconds(), t.roundRate
	res.Attempted = len(in.timed)
	res.Failed = t.failed

	var tr traced
	layers := map[string]float64{}
	if trace {
		n := min(len(in.timed), max(len(in.timed)/10, 300))
		if tr, err = r.runTraced(n); err != nil {
			return info, res, err
		}
		if err := tr.audit(); err != nil {
			return info, res, err
		}
		res.Failed += tr.failed
		info.TracedOps, info.Spans = tr.ops, tr.spanRecords
		if layers, err = r.runLayers(); err != nil {
			return info, res, fmt.Errorf("direct drivers: %w", err)
		}
	}

	bad, err := r.checkOracle(t.samples)
	if err != nil {
		return info, res, err
	}
	res.Failed += bad
	info.OracleOps = len(t.samples)

	dbInfo, err := r.db.Info()
	if err != nil {
		return info, res, err
	}
	records := r.db.Len()
	var reopen time.Duration
	if w.reopen {
		if bad, reopen, err = r.checkDurable(); err != nil {
			return info, res, err
		}
		res.Failed += bad
	} else {
		err := r.db.Close()
		r.db = nil
		if err != nil {
			return info, res, fmt.Errorf("close: %w", err)
		}
	}
	res.Correct = res.Failed == 0

	if trace {
		res.Metrics = perLayer(t, tr, layers, build, reopen, records, dbInfo)
	} else {
		res.Metrics = endToEnd(t, setup)
	}
	return info, res, nil
}

// pageAccesses is the paper's disk-access count: every page the storage
// manager was asked for or wrote, whether the backend or the pool served
// it. (Backend reads alone would read 0 on a workload that fits its
// pool; the split is in the storage.* layer metrics.)
func (c counters) pageAccesses() int64 {
	return c.disk.Reads + c.disk.Prefetched + c.disk.Hits + c.disk.Writes
}

// endToEnd reduces the timed section to the end-to-end metrics: the
// median round's rate, and the median and 99th percentile over every
// timed operation. All of the timed work is in each of them, so a change
// that slows only some rounds (a database that has grown, a checkpoint
// that has become dearer) shows.
func endToEnd(t timed, setup time.Duration) map[string]metric {
	ops := float64(len(t.latMs))
	lat := append([]float64(nil), t.latMs...)
	vals := map[string]float64{
		"setup_s":         setup.Seconds(),
		"ops_per_s":       median(append([]float64(nil), t.roundRate...)),
		"op_p50_ms":       percentile(lat, 50),
		"op_p99_ms":       percentile(lat, 99),
		"heap_mb":         t.heapMB,
		"pages_per_op":    float64(t.after.pageAccesses()-t.before.pageAccesses()) / ops,
		"mallocs_per_op":  float64(t.after.mem.Mallocs-t.before.mem.Mallocs) / ops,
		"alloc_kb_per_op": float64(t.after.mem.TotalAlloc-t.before.mem.TotalAlloc) / ops / 1024,
	}
	return withUnits(vals, endToEndUnits)
}

func perLayer(t timed, tr traced, layers map[string]float64, build, reopen time.Duration, records int, dbInfo tsq.Info) map[string]metric {
	ops := float64(len(t.latMs))
	queries := float64(len(t.queryMs))
	inserts := float64(len(t.insertMs))
	st := t.stats
	d0, d1 := t.before.disk, t.after.disk
	w0, w1 := t.before.wal, t.after.wal
	perTraced := func(kind string) float64 { return float64(tr.selfNs[kind]) / 1e6 / float64(tr.ops) }
	walPerInsert := ratio(float64(tr.walBytes), float64(tr.inserts))
	userBytes := float64(seriesLen * 8)
	served := float64(d1.Reads - d0.Reads + d1.Prefetched - d0.Prefetched + d1.Hits - d0.Hits)

	vals := map[string]float64{
		// B: self times of the traced pass, per traced op.
		"core.filter_ms_per_op":    perTraced("filter"),
		"core.verify_ms_per_op":    perTraced("verify"),
		"core.probe_ms_per_op":     perTraced("probe"),
		"core.merge_ms_per_op":     perTraced("query"),
		"tsq.insert_ms_per_op":     perTraced(kindInsert),
		"tsq.facade_us_per_op":     1e3 * perTraced(kindFacade),
		"obs.traced_op_ms":         float64(tr.tracedNs) / 1e6 / float64(tr.ops),
		"obs.trace_overhead_pct":   100 * (ratio(float64(tr.tracedNs), float64(tr.untracedNs)) - 1),
		"core.candidate_hit_ratio": ratio(float64(tr.hitRecords), float64(tr.candidates)),
		"wal.bytes_per_insert":     walPerInsert,

		// A: counters of the timed section, per query op.
		"core.candidates_per_op":     ratio(float64(st.Candidates), queries),
		"core.comparisons_per_op":    ratio(float64(st.Comparisons), queries),
		"core.abandoned_per_op":      ratio(float64(st.Abandoned), queries),
		"core.skipped_lb_per_op":     ratio(float64(st.SkippedLB), queries),
		"core.skipped_lb0_per_op":    ratio(float64(st.SkippedLB0), queries),
		"core.skipped_lb1_per_op":    ratio(float64(st.SkippedLB1), queries),
		"core.skipped_lb2_per_op":    ratio(float64(st.SkippedLB2), queries),
		"core.index_searches_per_op": ratio(float64(st.IndexSearches), queries),
		"core.pruning_power":         1 - ratio(float64(st.Candidates), queries*float64(records)),
		"core.lb_ns_per_candidate":   ratio(float64(st.LBTimeNs), float64(st.Candidates+st.SkippedLB)),
		"rtree.nodes_per_op":         ratio(float64(st.DAAll), queries),
		"rtree.leaves_per_op":        ratio(float64(st.DALeaf), queries),
		"tsq.matches_per_op":         ratio(float64(t.matches), queries),

		// A: storage and WAL counters, per timed op.
		"storage.reads_per_op":             float64(d1.Reads-d0.Reads) / ops,
		"storage.prefetched_per_op":        float64(d1.Prefetched-d0.Prefetched) / ops,
		"storage.pool_hits_per_op":         float64(d1.Hits-d0.Hits) / ops,
		"storage.writes_per_op":            float64(d1.Writes-d0.Writes) / ops,
		"storage.pool_hit_ratio":           ratio(float64(d1.Hits-d0.Hits), served),
		"storage.io_errors":                float64(d1.IOErrors - d0.IOErrors),
		"storage.checksum_failures":        float64(d1.ChecksumFailures - d0.ChecksumFailures),
		"storage.file_bytes_per_user_byte": float64(dbInfo.Pages) * float64(pageSize) / (float64(records) * userBytes),
		"storage.write_bytes_per_user_byte": ratio(
			float64(d1.Writes-d0.Writes)*float64(pageSize)+walPerInsert*inserts, inserts*userBytes),
		"wal.fsyncs_per_insert": ratio(float64(w1.Fsyncs-w0.Fsyncs), inserts),
		"wal.fsync_us":          ratio(float64(t.after.fsyncNanos-t.before.fsyncNanos)/1e3, float64(w1.Fsyncs-w0.Fsyncs)),
		"wal.checkpoints":       float64(w1.Checkpoints - w0.Checkpoints),
		"wal.group_commits":     float64(w1.GroupCommits - w0.GroupCommits),

		// The timed section by op type.
		"tsq.insert_p50_ms": percentile(t.insertMs, 50),
		"tsq.insert_p99_ms": percentile(t.insertMs, 99),
		"tsq.query_p50_ms":  percentile(t.queryMs, 50),
		"tsq.query_p99_ms":  percentile(t.queryMs, 99),
		"tsq.insert_share":  t.insertWall / (1e3 * t.wall.Seconds()),
		"tsq.build_s":       build.Seconds(),
		"tsq.reopen_s":      reopen.Seconds(),

		"runtime.gc_cycles_per_1k_ops":   1e3 * float64(t.after.mem.NumGC-t.before.mem.NumGC) / ops,
		"runtime.gc_pause_ms_per_1k_ops": 1e3 * float64(t.after.mem.PauseTotalNs-t.before.mem.PauseTotalNs) / 1e6 / ops,
	}
	// C: the direct drivers; layers the workload bypasses stay 0.
	for name, v := range layers {
		vals[name] = v
	}
	return withUnits(vals, perLayerUnits)
}

// withUnits attaches units, reporting 0 for any listed metric the run
// did not compute and refusing (by panic: a bug) one it did not list.
func withUnits(vals map[string]float64, units map[string]string) map[string]metric {
	out := make(map[string]metric, len(units))
	for name, unit := range units {
		out[name] = metric{Value: vals[name], Unit: unit}
	}
	for name := range vals {
		if _, ok := units[name]; !ok {
			panic("benchmark: metric " + name + " is computed but not listed")
		}
	}
	return out
}
