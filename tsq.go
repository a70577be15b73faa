// Package tsq implements similarity-based queries for time series data
// under sets of linear transformations, after Rafiei, "On Similarity-Based
// Queries for Time Series Data" (ICDE 1999).
//
// A time series is stored in normal form (mean 0, std 1) together with its
// Fourier spectrum; similarity between two series is the Euclidean
// distance after both are mapped by the same linear transformation over
// the Fourier representation — moving averages, momentum, time shifts,
// scaling and inversion are all expressible this way. A query supplies a
// whole set of transformations ("any moving average from 5 to 34 days")
// and asks for every (series, transformation) pair within a threshold.
//
// Three query algorithms are provided: sequential scan, ST-index (one
// R*-tree traversal per transformation) and MT-index (the paper's
// contribution: the minimum bounding rectangle of all transformations is
// applied to the index rectangles on the fly, so one traversal serves the
// whole set). Thresholds may be given as distances or cross-correlations
// (they are interchangeable on normal forms), joins and nearest-neighbor
// queries take the same transformation sets, and transformation pipelines
// ("shift(0..10) | mv(1..40)") are rewritten into flat sets by
// composition.
//
// Basic use:
//
//	db, _ := tsq.Open(seriesList, names, tsq.Options{})
//	ts := tsq.MovingAverages(db.SeriesLength(), 5, 34)
//	matches, stats, _ := db.Range(querySeries, ts,
//	    tsq.Correlation(0.96), tsq.QueryOptions{})
package tsq

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"time"

	"tsq/internal/core"
	"tsq/internal/obs"
	"tsq/internal/obs/capture"
	"tsq/internal/query"
	"tsq/internal/series"
	"tsq/internal/storage"
	"tsq/internal/transform"
)

// Series is a time series: one float64 per time point.
type Series = series.Series

// Transform is a linear transformation over the polar Fourier
// representation of a series. Build one with the constructors of this
// package (MovingAverage, TimeShift, Compose, ...): they classify its
// vectors once, which is what lets a query sum half the spectrum under
// it, and nothing re-reads A or B afterwards, so treat them as
// read-only. A struct literal works, and is always summed in full.
type Transform = transform.Transform

// Match is a range-query answer: a record and a transformation index
// bringing it within the threshold of the query.
type Match = core.Match

// JoinMatch is a join answer: a pair of records and a transformation.
type JoinMatch = core.JoinMatch

// NNMatch is a nearest-neighbor answer.
type NNMatch = core.NNMatch

// RawMatch is a whole-matching answer on the original series.
type RawMatch = core.RawMatch

// Stats reports the work performed by a query in the units of the paper's
// cost model: disk accesses (all levels and leaf level), candidates,
// full-record comparisons, and index traversals.
type Stats = core.QueryStats

// Trace collects the spans of a traced query; see NewTrace. Render with
// its String method (an EXPLAIN ANALYZE-style tree) or marshal it to
// JSON.
type Trace = obs.Trace

// NewTrace returns an empty query trace. Attach it to a context with
// WithTrace and pass that context to RangeCtx, NearestNeighborsCtx or
// Batch; every query evaluated under the context records its span tree
// (per-phase wall time, index-node visits, page I/O, candidate and
// false-positive counts) into the trace. Tracing is opt-in: without a
// trace in the context, the query engine's instrumentation is a nil
// fast path that performs no allocations.
func NewTrace() *Trace { return obs.New() }

// WithTrace attaches a query trace to ctx.
func WithTrace(ctx context.Context, tr *Trace) context.Context {
	return obs.WithTrace(ctx, tr)
}

// Metrics is the package's default metrics registry: query counters and
// latency histograms every DB updates. Snapshot it, render it with
// WriteText/WriteJSON, or serve it with MetricsHandler.
func Metrics() *obs.Registry { return obs.Default }

// MetricsHandler serves the default metrics registry over HTTP as JSON
// (append ?format=text for a flat text listing) — an expvar-style
// endpoint for dashboards and scrapers.
func MetricsHandler() http.Handler { return obs.Default.Handler() }

// Default-registry instruments, shared by all DBs in the process.
var (
	mRangeQueries = obs.Default.Counter("tsq_range_queries_total")
	mNNQueries    = obs.Default.Counter("tsq_nn_queries_total")
	mJoinQueries  = obs.Default.Counter("tsq_join_queries_total")
	mBatchQueries = obs.Default.Counter("tsq_batch_queries_total")
	mRangeLatency = obs.Default.Histogram("tsq_range_latency_ns", obs.DurationBuckets())
	mNNLatency    = obs.Default.Histogram("tsq_nn_latency_ns", obs.DurationBuckets())
)

// ErrNonFinite is the error (wrapped with the series and position) of
// every entry point that takes a series — Open, CreateFile, Insert, and
// the query series of Range, NearestNeighbors, RawRange and Batch — when
// the series holds a NaN or an infinity. Nothing is stored or logged. A
// NaN threshold of Range, Batch, Join, RawRange, Explain or
// OptimalPartition is the same error.
var ErrNonFinite = core.ErrNonFinite

// Pipeline is a sequence of transformation-set steps applied in order;
// Flatten rewrites it to a single set by composition.
type Pipeline = query.Pipeline

// Threshold is a similarity threshold, given as a Euclidean distance on
// normal forms or as a cross-correlation. A query given a NaN threshold
// fails with ErrNonFinite; a negative distance matches nothing.
type Threshold = query.Threshold

// Distance returns a threshold fixed in Euclidean distance on normal
// forms.
func Distance(d float64) Threshold { return query.DistanceThreshold(d) }

// Correlation returns a threshold fixed as a minimum cross-correlation.
// It resolves to the distance of Eq. 9, sqrt(2(n-1)(1-rho)), for series
// of length n. Outside [-1, 1] it is not an error. A rho above 1
// resolves to distance 0: only a series whose transformed normal form
// equals the transformed query's matches (under the identity, an exact
// duplicate). A rho below -1 resolves to Eq. 9's distance, which lies
// above 2·sqrt(n-1), the largest distance between two normal forms: under
// the identity every series matches.
func Correlation(rho float64) Threshold { return query.CorrelationThreshold(rho) }

// Algorithm selects a query processing strategy.
type Algorithm int

const (
	// MTIndex applies the transformation MBR to the index on the fly:
	// one traversal per transformation rectangle (the paper's Algorithm 1).
	MTIndex Algorithm = iota
	// STIndex traverses the index once per transformation.
	STIndex
	// SeqScan scans the whole relation.
	SeqScan
	// Auto lets a cost-based planner choose between the three: it probes
	// the index with a few filter-only traversals, estimates each plan
	// with the paper's Eq. 18/20 model, and runs the cheapest (including
	// the choice of transformation packing for MT-index). Use Explain to
	// see the decision. Only Range (and a range request of Batch) has a
	// planner: NearestNeighbors, Join and ClosestPairs run the index under
	// Auto.
	Auto
)

// String returns the algorithm's conventional name.
func (a Algorithm) String() string {
	switch a {
	case MTIndex:
		return "MT-index"
	case STIndex:
		return "ST-index"
	case SeqScan:
		return "sequential-scan"
	case Auto:
		return "auto"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Options configures Open. The zero value is the paper's configuration:
// two indexed DFT coefficients (a 6-dimensional index with the mean and
// std dimensions), 4 KiB pages, no buffer pool, symmetry property on.
type Options struct {
	// K is the number of DFT coefficients indexed; default 2.
	K int
	// PageSize is the index page size in bytes; default 4096.
	PageSize int
	// BufferPages enables an LRU buffer pool of that many pages; with 0
	// every node fetch counts as one disk access (the paper's convention).
	BufferPages int
	// DisableSymmetry turns off the DFT symmetry property (Eq. 6), which
	// otherwise shrinks per-coefficient search bounds by sqrt(2) and
	// doubles the prefix bounds for every transformation set whose
	// members are all classified as acting alike on mirror coefficients
	// (every built-in); other sets, such as a Transform struct literal,
	// are filtered without it either way. Exposed for ablation.
	DisableSymmetry bool
	// DisableChecksums writes file-backed databases without per-page
	// CRC32C trailers, producing the pre-checksum file format. New files
	// are checksummed by default; files created either way reopen
	// transparently (the format is flagged in the file header).
	DisableChecksums bool
	// BulkLoad is ignored: every index is built with Sort-Tile-Recursive
	// packing (near-full nodes sliced along the DFT coefficients, fewer
	// disk accesses per query and faster builds than repeated
	// insertion), and remains fully updatable.
	//
	// Deprecated: Open, CreateFile and their shard builds always pack.
	BulkLoad bool
	// Shards partitions the database into that many independent shards
	// (deterministic hash over series ids), each with its own R*-tree,
	// heap file and buffer pool, built in parallel. A range query fans
	// out once, one probe per (shard, rectangle) pair on a pool of
	// max(Workers, Shards) goroutines, and merges into id order; nearest
	// neighbors and closest pairs are one best-first search over all the
	// shards' trees, on the calling goroutine, with one k-th best. 0 or 1
	// keeps the classic single-tree engine; answers are identical at every
	// shard count. Shards buy parallel builds, parallel range probes and
	// smaller files, not faster NN. A 10-NN query over 6 000 random walks on a 2-vCPU host,
	// when each shard still ran its own search on its own goroutine,
	// ran at 1 140 to 1 805 queries/s on one tree and 903 to 1 413 on
	// two, reading 49 pages against 67. As one search, two shards
	// resolve the same candidates per query as one tree (207 for 300
	// stored walks of length 128 under MV(10..11)), read 42 nodes
	// against 35 (61 against 53 before the trees were packed along the
	// DFT coefficients), and take about as long.
	Shards int
}

// QueryOptions tunes an individual query.
type QueryOptions struct {
	// Algorithm defaults to MTIndex.
	Algorithm Algorithm
	// TransformsPerMBR splits the transformation set into contiguous
	// rectangles of this size (Sec. 4.3); 0 packs everything into one
	// rectangle. Ignored by SeqScan and STIndex.
	TransformsPerMBR int
	// ClusterPartition first separates the transformation set into
	// clusters (CURE) so no rectangle spans a gap, then applies
	// TransformsPerMBR within each cluster. Ignored by SeqScan/STIndex.
	ClusterPartition bool
	// UseOrdering enables the Sec. 4.4 binary search for orderable
	// (pure scale) transformation sets.
	UseOrdering bool
	// PaperQueryRect uses the paper's plain eps-box query rectangle
	// instead of the provably-safe construction (see core.QRectMode).
	PaperQueryRect bool
	// OneSided switches the predicate to the literal Algorithm-1 form
	// D(t(s), q): the transformation applies to the stored series only.
	// This is the semantics under which alignment transformations such as
	// time shifts are meaningful — applied to both sides they are unitary
	// and cancel. Implied by QueryTransform.
	OneSided bool
	// QueryTransform, when set, is applied once to the (normalized) query
	// before comparison, so the predicate is D(t(s), QueryTransform(q)).
	// Example 1.2's "compare momenta, allowing a shift of s days" is
	// QueryTransform = Momentum(n) with ts = shifts composed on momentum.
	// Setting it implies OneSided.
	QueryTransform *Transform
	// Workers, when above 1, shards the sequential scan and the index
	// algorithms' candidate-verification phase across that many
	// goroutines. A range query's probes, one per (shard, rectangle)
	// pair, run on a pool of max(Workers, Shards) goroutines. Answers are
	// identical to serial evaluation.
	Workers int
	// NaiveVerify disables the I/O-aware candidate pipeline (DFT-prefix
	// lower-bound skipping, page-ordered batched fetch, early-abandoning
	// distance kernels) and verifies record-at-a-time, as the paper's
	// cost model assumes. Answers are identical either way; only the
	// I/O and comparison effort differs. The paper-figure harness sets
	// this so the Eq. 18/20 disk-access curves replicate exactly.
	NaiveVerify bool
}

// DB is an indexed collection of equal-length time series. Queries may
// run concurrently with each other; Insert, Delete and Close are
// exclusive.
type DB struct {
	mu sync.RWMutex
	ix *core.Sharded
}

// Open normalizes and indexes the given series. Names may be nil.
func Open(ss []Series, names []string, opts Options) (*DB, error) {
	ds, err := core.NewDataset(ss, names)
	if err != nil {
		return nil, err
	}
	ix, err := core.BuildSharded(ds, opts.Shards, core.IndexOptions{
		K:           opts.K,
		PageSize:    opts.PageSize,
		BufferPages: opts.BufferPages,
		UseSymmetry: !opts.DisableSymmetry,
		BulkLoad:    true,
	})
	if err != nil {
		return nil, err
	}
	return &DB{ix: ix}, nil
}

// Shards returns the shard count of the database (1 when unsharded).
func (db *DB) Shards() int { return db.ix.ShardCount() }

// Len returns the number of ids the database has assigned: one past the
// largest, since ids run 0..Len()-1. Deleted series keep their ids (an
// id is never reused), so Len counts them too; a deleted id reads as
// absent (Get returns nil).
func (db *DB) Len() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.ix.Len()
}

// SeriesLength returns the common series length.
func (db *DB) SeriesLength() int { return db.ix.SeriesLength() }

// record returns stored series id, nil when it is deleted, was never
// stored or cannot be read. A file-backed database reads its page.
func (db *DB) record(id int64) *core.Record {
	r, err := db.ix.Record(id)
	if err != nil {
		return nil
	}
	return r
}

// Name returns the name of series id, or "" if unknown. On a file-backed
// database it reads the series' page.
func (db *DB) Name(id int64) string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	name, _, _ := db.ix.Series(id)
	return name
}

// Get returns a copy of the original series with the given id, or nil.
// On a file-backed database it reads the series' page.
func (db *DB) Get(id int64) Series {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if _, s, _ := db.ix.Series(id); s != nil {
		return s.Clone()
	}
	return nil
}

// NormalForm returns a copy of the normal form of series id, or nil. On a
// file-backed database it is computed from the raw series, mean and
// standard deviation on the series' page, bit for bit the normal form
// the series was stored with.
func (db *DB) NormalForm(id int64) Series {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if r := db.record(id); r != nil {
		return r.Norm.Clone()
	}
	return nil
}

// Info describes the database: series count and length, index geometry
// and storage footprint.
type Info struct {
	Series       int
	SeriesLength int
	IndexedK     int
	TreeHeight   int
	Pages        int
	PageSize     int
	LeafCapacity float64
	Paged        bool
	Shards       int
}

// Info returns a snapshot of the database's shape.
func (db *DB) Info() (Info, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	ca, err := db.ix.AvgLeafCapacity()
	if err != nil {
		return Info{}, err
	}
	return Info{
		Series:       db.ix.Len(),
		SeriesLength: db.ix.SeriesLength(),
		IndexedK:     db.ix.Options().K,
		TreeHeight:   db.ix.Height(),
		Pages:        db.ix.NumPages(),
		PageSize:     db.ix.PageSize(),
		LeafCapacity: ca,
		Paged:        db.ix.Paged(),
		Shards:       db.ix.ShardCount(),
	}, nil
}

// LevelSummary describes one level of the index tree.
type LevelSummary struct {
	Level   int // 1 = leaves
	Nodes   int
	AvgSide []float64
}

// TreeLevels returns per-level statistics of the index tree.
func (db *DB) TreeLevels() ([]LevelSummary, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	stats, _, err := db.ix.TreeStats()
	if err != nil {
		return nil, err
	}
	out := make([]LevelSummary, len(stats))
	for i, s := range stats {
		out[i] = LevelSummary{Level: s.Level, Nodes: s.Nodes, AvgSide: s.AvgSide}
	}
	return out, nil
}

// Verify runs a full integrity check: tree invariants, index/record
// agreement, and (for paged databases) record-page consistency. It is
// the equivalent of a database integrity pragma; expect it to read
// everything.
func (db *DB) Verify() error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.ix.Verify()
}

// DiskStats returns the cumulative storage counters of the index.
func (db *DB) DiskStats() storage.Stats { return db.ix.DiskStats() }

// ResetDiskStats zeroes the storage counters.
func (db *DB) ResetDiskStats() { db.ix.ResetDiskStats() }

// rangeOpts resolves QueryOptions into core options for the given set.
func (db *DB) rangeOpts(ts []Transform, opts QueryOptions) core.RangeOptions {
	ro := core.RangeOptions{
		UseOrdering: opts.UseOrdering,
		OneSided:    opts.OneSided || opts.QueryTransform != nil,
		Workers:     opts.Workers,
		NaiveVerify: opts.NaiveVerify,
	}
	if opts.PaperQueryRect {
		ro.Mode = core.QRectPaper
	}
	per := opts.TransformsPerMBR
	switch {
	case opts.ClusterPartition:
		if per <= 0 {
			per = len(ts)
		}
		ro.Groups = db.ix.ClusterThenEqualPartition(ts, per, 0)
	case per > 0:
		ro.Groups = core.EqualPartition(len(ts), per)
	}
	return ro
}

// Range answers Query 1: every stored series s and transformation t in ts
// with D(t(s), t(q)) within the threshold, distances measured on normal
// forms. The order of the matches is unspecified: it follows the index,
// whose shape depends on the page size and format; SortMatches gives a
// canonical one.
func (db *DB) Range(q Series, ts []Transform, thr Threshold, opts QueryOptions) ([]Match, Stats, error) {
	return db.RangeCtx(nil, q, ts, thr, opts)
}

// RangeCtx is Range under a context: attach a trace with WithTrace to
// record the query's span tree (EXPLAIN ANALYZE); without one the query
// runs the untraced fast path. The context does not cancel the query.
func (db *DB) RangeCtx(ctx context.Context, q Series, ts []Transform, thr Threshold, opts QueryOptions) ([]Match, Stats, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	qr, err := core.NewQueryRecord(db.ix.SeriesLength(), q)
	if err != nil {
		return nil, Stats{}, err
	}
	return db.rangeRecord(ctx, qr, ts, thr, opts)
}

// RangeByID runs Range with a stored series as the query point. As with
// Range, the order of the matches is unspecified.
func (db *DB) RangeByID(id int64, ts []Transform, thr Threshold, opts QueryOptions) ([]Match, Stats, error) {
	return db.RangeByIDCtx(nil, id, ts, thr, opts)
}

// RangeByIDCtx is RangeByID under a context; see RangeCtx. On a
// file-backed database the query series is read from its page.
func (db *DB) RangeByIDCtx(ctx context.Context, id int64, ts []Transform, thr Threshold, opts QueryOptions) ([]Match, Stats, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	qp, err := db.queryPoint(id, ts, opts)
	if err != nil {
		return nil, Stats{}, err
	}
	defer qp.Release()
	return db.rangeRecord(ctx, qp.Record, ts, thr, opts)
}

// queryPoint returns stored series id as the query point of a query by
// id under ts and opts; the caller must Release it. A deleted or never
// stored id is an error. A file-backed database reads the series' verify
// part, unless the query needs the whole record: a distance that reads
// the upper half of the spectrum (core.WholeSpectrum, or a query
// transformation that is not symmetric and so turns the set to full
// order), or a capture journal, which hashes the series.
func (db *DB) queryPoint(id int64, ts []Transform, opts QueryOptions) (core.QueryPoint, error) {
	qt := opts.QueryTransform
	whole := captureWriter.Load() != nil || qt != nil && !qt.Symmetric(true) ||
		core.WholeSpectrum(ts, opts.OneSided || qt != nil)
	qp, err := db.ix.QueryPoint(id, whole)
	if err == nil && qp.Record == nil {
		err = fmt.Errorf("tsq: no series with id %d", id)
	}
	return qp, err
}

// queryEvent is one facade query as its diagnostics see it: what was
// asked, the instrumentation begin opened, and the outcome finish reports
// to the metrics, the flight recorder, the capture journal and the query
// log. Range and nearest-neighbor queries share it; kind names the shape
// in every label.
type queryEvent struct {
	kind capture.Kind
	opts QueryOptions
	qr   *core.Record
	ts   []Transform
	eps  float64 // range threshold
	k    int     // nearest-neighbor answer size

	qid   uint64
	start time.Time
	root  *obs.Span
	ql    *obs.QueryLogger
	cw    *capture.Writer
	ioPre storage.Stats

	matches []Match   // range answer
	nn      []NNMatch // nearest-neighbor answer
	st      Stats
	err     error
}

// begin takes the query id and start time, opens the root span when ctx
// carries a trace (returning the context its children hang from), and
// snapshots the storage counters when a sink that reports page I/O is
// installed. Every disabled diagnostics feature costs one atomic load
// here (pinned by the zero-alloc tests).
func (ev *queryEvent) begin(ctx context.Context) context.Context {
	ev.start = time.Now()
	ev.qid = obs.NextQueryID()
	if tr := obs.FromContext(ctx); tr != nil {
		var name string
		if ev.kind == capture.KindNN {
			name = fmt.Sprintf("nn %s (k=%d)", ev.opts.Algorithm, ev.k)
		} else {
			name = fmt.Sprintf("range %s (%d transforms)", ev.opts.Algorithm, len(ev.ts))
		}
		ev.root = tr.Start(obs.KindQuery, name)
		ctx = obs.ContextWithSpan(ctx, ev.root)
	}
	ev.ql = queryLogger.Load()
	ev.cw = captureWriter.Load()
	if ev.ql != nil || ev.cw != nil {
		ev.ioPre = storage.GlobalStats()
	}
	return ctx
}

// finish closes the root span and reports the outcome to every sink.
func (ev *queryEvent) finish(ctx context.Context) {
	matches := len(ev.matches) + len(ev.nn)
	queries, latency := mRangeQueries, mRangeLatency
	if ev.kind == capture.KindNN {
		queries, latency = mNNQueries, mNNLatency
	}
	if ev.root != nil {
		ev.root.Set(obs.AMatches, int64(matches))
		ev.root.Set(obs.ACandidates, int64(ev.st.Candidates))
		if ev.kind == capture.KindRange {
			ev.root.Set(obs.ATransforms, int64(len(ev.ts)))
		}
		ev.root.EndErr(ev.err)
	}
	queries.Inc()
	dur := time.Since(ev.start)
	latency.ObserveDurationExemplar(dur, ev.qid)
	if rec := flightRecorder.Load(); rec != nil {
		rec.Record(ev.kind.String(), ev.opts.Algorithm.String(), ev.qid, dur, ev.err, ev.root)
	}
	if ev.ql == nil && ev.cw == nil {
		return
	}
	ioPost := storage.GlobalStats()
	if ev.cw != nil {
		captureQuery(ev, dur, ioPost)
	}
	if ev.ql != nil {
		ev.ql.Log(obs.QueryLogRecord{
			QueryID:         ev.qid,
			Kind:            ev.kind.String(),
			Label:           ev.opts.Algorithm.String(),
			Transforms:      len(ev.ts),
			Eps:             ev.eps,
			K:               ev.k,
			Duration:        dur,
			Err:             ev.err,
			Matches:         int64(matches),
			Candidates:      int64(ev.st.Candidates),
			SkippedLB:       int64(ev.st.SkippedLB),
			SkippedLB0:      int64(ev.st.SkippedLB0),
			SkippedLB1:      int64(ev.st.SkippedLB1),
			SkippedLB2:      int64(ev.st.SkippedLB2),
			Abandoned:       int64(ev.st.Abandoned),
			Comparisons:     int64(ev.st.Comparisons),
			PagesRead:       ioPost.Reads - ev.ioPre.Reads,
			PagesPrefetched: ioPost.Prefetched - ev.ioPre.Prefetched,
			BufferHits:      ioPost.Hits - ev.ioPre.Hits,
			Resources: obs.Resources{
				AllocBytes: ev.st.AllocBytes,
				Mallocs:    ev.st.Mallocs,
				GCCycles:   ev.st.GCCycles,
				GCPauseNs:  ev.st.GCPauseNs,
			},
			Trace: obs.FromContext(ctx),
		})
	}
}

// attributed runs one query's dispatch under resource attribution: the
// goroutine (and any workers it spawns) carries pprof labels naming the
// query shape, and the process resource delta around the dispatch is
// booked into the stats and the root span. It is only called — and the
// closure it takes only built — with attribution enabled, so neither
// touches the fast path.
func attributed[T any](ctx context.Context, ev *queryEvent, run func(context.Context) ([]T, Stats, error)) (out []T, st Stats, err error) {
	pre := obs.ReadResources()
	if ctx == nil {
		ctx = context.Background()
	}
	pprof.Do(ctx, pprof.Labels(
		"tsq_query", ev.kind.String(),
		"tsq_algo", ev.opts.Algorithm.String(),
		"tsq_qid", strconv.FormatUint(ev.qid, 10),
	), func(lctx context.Context) {
		out, st, err = run(lctx)
	})
	res := obs.ReadResources().Sub(pre)
	st.AllocBytes = res.AllocBytes
	st.Mallocs = res.Mallocs
	st.GCCycles = res.GCCycles
	st.GCPauseNs = res.GCPauseNs
	if ev.root != nil {
		ev.root.Set(obs.AAllocBytes, res.AllocBytes)
		ev.root.Set(obs.AMallocs, res.Mallocs)
		ev.root.Set(obs.AGCCycles, res.GCCycles)
		ev.root.Set(obs.AGCPauseNs, res.GCPauseNs)
	}
	return out, st, err
}

// rangeRecord answers a range query for an already-featurized query
// point under the facade's instrumentation.
func (db *DB) rangeRecord(ctx context.Context, qr *core.Record, ts []Transform, thr Threshold, opts QueryOptions) ([]Match, Stats, error) {
	eps := thr.Epsilon(db.ix.SeriesLength())
	if empty, err := vetEps(eps); empty || err != nil {
		return nil, Stats{}, err
	}
	ev := queryEvent{kind: capture.KindRange, opts: opts, qr: qr, ts: ts, eps: eps}
	ctx = ev.begin(ctx)
	if obs.AttributionEnabled() {
		ev.matches, ev.st, ev.err = attributed(ctx, &ev, func(lctx context.Context) ([]Match, Stats, error) {
			return db.rangeDispatch(lctx, qr, ts, eps, opts)
		})
	} else {
		ev.matches, ev.st, ev.err = db.rangeDispatch(ctx, qr, ts, eps, opts)
	}
	ev.finish(ctx)
	return ev.matches, ev.st, ev.err
}

// vetEps checks a resolved range threshold before anything is planned or
// probed. Every comparison against a NaN is false, so a NaN threshold
// would walk the index (or the relation) and match nothing without a
// word: it is ErrNonFinite instead. No distance is below a negative
// threshold, so that answer is empty and needs no probe.
func vetEps(eps float64) (empty bool, err error) {
	if math.IsNaN(eps) {
		return false, fmt.Errorf("tsq: threshold is NaN: %w", ErrNonFinite)
	}
	return eps < 0, nil
}

// resolve names the algorithm a query shape without a planner runs: Auto
// means the index there (Range plans it before resolving). Values outside
// the enumeration are an error on every query shape.
func (a Algorithm) resolve() (Algorithm, error) {
	switch a {
	case MTIndex, STIndex, SeqScan:
		return a, nil
	case Auto:
		return MTIndex, nil
	default:
		return a, fmt.Errorf("tsq: unknown algorithm %v", a)
	}
}

func (db *DB) rangeDispatch(ctx context.Context, qr *core.Record, ts []Transform, eps float64, opts QueryOptions) ([]Match, Stats, error) {
	if opts.QueryTransform != nil {
		qr, ts = core.TransformQuery(qr, *opts.QueryTransform, ts)
	}
	ro := db.rangeOpts(ts, opts)
	if opts.Algorithm == Auto {
		plan, err := db.ix.PlanRange(ctx, qr, ts, eps, ro, core.DefaultCostParams())
		if err != nil {
			return nil, Stats{}, err
		}
		switch plan.Kind {
		case core.PlanSeqScan:
			opts.Algorithm = SeqScan
		case core.PlanSTIndex:
			opts.Algorithm = STIndex
		default:
			opts.Algorithm, ro.Groups = MTIndex, plan.Groups
		}
	}
	alg, err := opts.Algorithm.resolve()
	if err != nil {
		return nil, Stats{}, err
	}
	switch alg {
	case SeqScan:
		return core.SeqScanRange(ctx, db.ix, qr, ts, eps, ro)
	case STIndex:
		return db.ix.STIndexRange(ctx, qr, ts, eps, ro)
	default:
		return db.ix.MTIndexRange(ctx, qr, ts, eps, ro)
	}
}

// BatchRequest is one query of a Batch call.
type BatchRequest struct {
	// Query is an ad-hoc query series; ignored when ByID is set.
	Query Series
	// ID selects a stored series as the query point when ByID is true.
	ID   int64
	ByID bool
	// Transforms is the transformation set of the query.
	Transforms []Transform
	// Threshold bounds range queries; ignored when K > 0.
	Threshold Threshold
	// K, when positive, asks for the K nearest neighbors instead of a
	// range answer; a stored query point (ByID) is not its own neighbor.
	K int
	// Opts tunes the query exactly as in Range (Auto plans it) or
	// NearestNeighbors.
	Opts QueryOptions
}

// BatchResult is the outcome of one Batch query: Matches for range
// queries, NN for nearest-neighbor queries.
type BatchResult struct {
	Matches []Match
	NN      []NNMatch
	Stats   Stats
	Err     error
}

// Batch evaluates many queries concurrently over the shared index with a
// pool of the given number of worker goroutines (0 or less means
// GOMAXPROCS) and returns one result per request, in order. Each request
// runs as the single call would (RangeByIDCtx, RangeCtx or
// NearestNeighborsCtx under ctx), so its result is identical to that
// call's and it is observed like one: root span, metrics, flight
// recorder, query log and capture journal. The spectral features of
// equal ad-hoc query series are computed once per batch. Cancelling ctx
// fails the requests not yet started with ctx.Err(); those run no query
// and are not observed. Batch holds the database's read lock for the
// duration, so it may run concurrently with other queries but excludes
// Insert and Delete.
func (db *DB) Batch(ctx context.Context, reqs []BatchRequest, workers int) []BatchResult {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	results := make([]BatchResult, len(reqs))
	memo := seriesMemo{n: db.ix.SeriesLength(), m: make(map[uint64][]*core.Record)}
	_ = core.ParallelFor(len(reqs), workers, func(i int) error {
		if err := ctx.Err(); err != nil {
			results[i].Err = err
			return nil
		}
		mBatchQueries.Inc()
		results[i] = db.batchOne(ctx, &reqs[i], &memo)
		return nil // a failed query is its own result, not the batch's
	})
	return results
}

// batchOne resolves one batch request's query point the way the single
// calls do and runs it through rangeRecord or nnRecord.
func (db *DB) batchOne(ctx context.Context, r *BatchRequest, memo *seriesMemo) (res BatchResult) {
	var qr *core.Record
	if r.ByID {
		qp, err := db.queryPoint(r.ID, r.Transforms, r.Opts)
		if err != nil {
			return BatchResult{Err: err}
		}
		defer qp.Release()
		qr = qp.Record
	} else {
		var err error
		if qr, err = memo.record(r.Query); err != nil {
			return BatchResult{Err: err}
		}
	}
	if r.K > 0 {
		res.NN, res.Stats, res.Err = db.nnRecord(ctx, qr, r.Transforms, r.K, r.Opts)
	} else {
		res.Matches, res.Stats, res.Err = db.rangeRecord(ctx, qr, r.Transforms, r.Threshold, r.Opts)
	}
	return res
}

// seriesMemo featurizes the ad-hoc query series of one batch once per
// distinct series. Records are found by content hash and then compared
// bit for bit, so series whose hashes collide still get records of their
// own.
type seriesMemo struct {
	n  int
	mu sync.Mutex
	m  map[uint64][]*core.Record
}

// record returns the query record of s, featurizing it (outside the
// lock: independent series should not serialize on their DFTs) the first
// time the batch sees it.
func (m *seriesMemo) record(s Series) (*core.Record, error) {
	h := capture.HashFloats(s)
	m.mu.Lock()
	r := m.find(h, s)
	m.mu.Unlock()
	if r != nil {
		return r, nil
	}
	r, err := core.NewQueryRecord(m.n, s)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if prev := m.find(h, s); prev != nil {
		return prev, nil // another worker featurized it first
	}
	m.m[h] = append(m.m[h], r)
	return r, nil
}

// find returns the record of s under hash h, nil if there is none yet.
// The caller holds mu.
func (m *seriesMemo) find(h uint64, s Series) *core.Record {
	for _, r := range m.m[h] {
		if sameBits(r.Raw, s) {
			return r
		}
	}
	return nil
}

// sameBits reports whether two series hold the same float64 bits.
func sameBits(a, b Series) bool {
	if len(a) != len(b) || (a == nil) != (b == nil) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// Join answers Query 2: every pair of stored series and transformation
// within the threshold. Algorithm Auto runs the MT-index join.
func (db *DB) Join(ts []Transform, thr Threshold, opts QueryOptions) ([]JoinMatch, Stats, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	mJoinQueries.Inc()
	eps := thr.Epsilon(db.ix.SeriesLength())
	if empty, err := vetEps(eps); empty || err != nil {
		return nil, Stats{}, err
	}
	alg, err := opts.Algorithm.resolve()
	if err != nil {
		return nil, Stats{}, err
	}
	switch alg {
	case SeqScan:
		return core.SeqScanJoin(db.ix, ts, eps)
	case STIndex:
		return db.ix.STIndexJoin(ts, eps, db.rangeOpts(ts, opts))
	default:
		return db.ix.MTIndexJoin(ts, eps, db.rangeOpts(ts, opts))
	}
}

// ClosestPairs returns the k pairs of stored series with the smallest
// best transformed distance — the incremental top-k form of Query 2
// ("the k most correlated pairs under some moving average"). The index
// algorithm (every Algorithm but SeqScan) is exact and prunes with a
// provable lower bound; SeqScan evaluates every pair. Both rank pairs by
// distance and break ties by the smaller IDA, then the smaller IDB, so
// the two return the same k pairs in the same order.
func (db *DB) ClosestPairs(ts []Transform, k int, alg Algorithm) ([]JoinMatch, Stats, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	alg, err := alg.resolve()
	if err != nil {
		return nil, Stats{}, err
	}
	if alg == SeqScan {
		return core.SeqScanClosestPairs(db.ix, ts, k)
	}
	return db.ix.MTIndexClosestPairs(ts, k)
}

// NearestNeighbors returns the k stored series with the smallest best
// transformed distance to q, with the minimizing transformation for each,
// ranked by distance; equal distances rank by the smaller series id (and
// then the smaller transformation index), so the index algorithms and
// SeqScan return the same k series in the same order. Only the Algorithm
// (Auto runs the index search), OneSided and QueryTransform options
// apply.
func (db *DB) NearestNeighbors(q Series, ts []Transform, k int, opts QueryOptions) ([]NNMatch, Stats, error) {
	return db.NearestNeighborsCtx(nil, q, ts, k, opts)
}

// NearestNeighborsCtx is NearestNeighbors under a context; attach a
// trace with WithTrace to record the traversal's span tree.
func (db *DB) NearestNeighborsCtx(ctx context.Context, q Series, ts []Transform, k int, opts QueryOptions) ([]NNMatch, Stats, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	qr, err := core.NewQueryRecord(db.ix.SeriesLength(), q)
	if err != nil {
		return nil, Stats{}, err
	}
	return db.nnRecord(ctx, qr, ts, k, opts)
}

// nnRecord answers a nearest-neighbor query for an already-featurized
// query point under the facade's instrumentation.
func (db *DB) nnRecord(ctx context.Context, qr *core.Record, ts []Transform, k int, opts QueryOptions) ([]NNMatch, Stats, error) {
	ev := queryEvent{kind: capture.KindNN, opts: opts, qr: qr, ts: ts, k: k}
	ctx = ev.begin(ctx)
	if obs.AttributionEnabled() {
		ev.nn, ev.st, ev.err = attributed(ctx, &ev, func(lctx context.Context) ([]NNMatch, Stats, error) {
			return db.nnDispatch(lctx, qr, ts, k, opts)
		})
	} else {
		ev.nn, ev.st, ev.err = db.nnDispatch(ctx, qr, ts, k, opts)
	}
	ev.finish(ctx)
	if ev.err != nil {
		return nil, ev.st, ev.err
	}
	return ev.nn, ev.st, nil
}

// nnDispatch runs the nearest-neighbor algorithm switch.
func (db *DB) nnDispatch(ctx context.Context, qr *core.Record, ts []Transform, k int, opts QueryOptions) ([]NNMatch, Stats, error) {
	alg, err := opts.Algorithm.resolve()
	if err != nil {
		return nil, Stats{}, err
	}
	if opts.QueryTransform != nil {
		qr, ts = core.TransformQuery(qr, *opts.QueryTransform, ts)
	}
	ro := core.RangeOptions{OneSided: opts.OneSided || opts.QueryTransform != nil}
	if alg == SeqScan {
		return core.SeqScanNN(ctx, db.ix, qr, ts, k, ro.OneSided)
	}
	return db.ix.MTIndexNN(ctx, qr, ts, k, ro)
}

// Explain returns the planner's cost comparison for a range query with
// the given transformation set and threshold, without running the query.
func (db *DB) Explain(q Series, ts []Transform, thr Threshold) (string, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	qr, err := core.NewQueryRecord(db.ix.SeriesLength(), q)
	if err != nil {
		return "", err
	}
	eps := thr.Epsilon(db.ix.SeriesLength())
	if _, err := vetEps(eps); err != nil {
		return "", err
	}
	plan, err := db.ix.PlanRange(nil, qr, ts, eps, core.RangeOptions{Mode: core.QRectSafe}, core.DefaultCostParams())
	if err != nil {
		return "", err
	}
	return plan.String(), nil
}

// RawRange finds every stored series whose original (un-normalized)
// values are within maxDistance of q in Euclidean distance — the
// whole-matching query of Agrawal et al., filtered through the mean and
// standard-deviation index dimensions (the reason the paper stores them).
// useIndex false scans the relation instead.
//
// The tree carries mean and std without organising by them (every other
// query compares normal forms and leaves them open), so no level of it
// cuts those two dimensions and the indexed search reads most of the
// tree's nodes: on 20 000 random walks, 266 of about 330 per query at
// the radius of the 10th raw neighbour. It still fetches and compares
// only the records whose mean, std and raw coefficient magnitudes pass
// its per-entry test, as many as on a tree that cuts them.
func (db *DB) RawRange(q Series, maxDistance float64, useIndex bool) ([]RawMatch, Stats, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	qr, err := core.NewQueryRecord(db.ix.SeriesLength(), q)
	if err != nil {
		return nil, Stats{}, err
	}
	if empty, err := vetEps(maxDistance); empty || err != nil {
		return nil, Stats{}, err
	}
	if !useIndex {
		return core.SeqScanRawRange(db.ix, qr, maxDistance)
	}
	return db.ix.RawRange(qr, maxDistance)
}

// OptimalPartition estimates the best contiguous partition of ts into
// transformation rectangles for range queries around q, using the paper's
// Eq. 20 cost model with measured index probes, and returns the group
// sizes alongside the estimated cost.
func (db *DB) OptimalPartition(q Series, ts []Transform, thr Threshold) (groups [][]int, cost float64, err error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	qr, err := core.NewQueryRecord(db.ix.SeriesLength(), q)
	if err != nil {
		return nil, 0, err
	}
	eps := thr.Epsilon(db.ix.SeriesLength())
	if _, err := vetEps(eps); err != nil {
		return nil, 0, err
	}
	return db.ix.OptimalPartition(qr, ts, eps, core.QRectSafe, core.DefaultCostParams())
}

// Transformation constructors, re-exported for API completeness.

// Identity returns the identity transformation for length-n series.
func Identity(n int) Transform { return transform.Identity(n) }

// MovingAverage returns the circular m-day moving-average transformation.
func MovingAverage(n, m int) Transform { return transform.MovingAverage(n, m) }

// MovingAverages returns moving averages for windows from..to.
func MovingAverages(n, from, to int) []Transform { return transform.MovingAverageSet(n, from, to) }

// Momentum returns the lag-1 momentum transformation.
func Momentum(n int) Transform { return transform.Momentum(n) }

// TimeShift returns the exact circular s-day shift.
func TimeShift(n, s int) Transform { return transform.TimeShift(n, s) }

// TimeShifts returns shifts from..to.
func TimeShifts(n, from, to int) []Transform { return transform.TimeShiftSet(n, from, to) }

// Scale returns scaling by c > 0.
func Scale(n int, c float64) Transform { return transform.Scale(n, c) }

// Scales returns scalings by the given factors.
func Scales(n int, factors []float64) []Transform { return transform.ScaleSet(n, factors) }

// Invert returns multiplication by -1.
func Invert(n int) Transform { return transform.Invert(n) }

// Reverse returns the time-reversal transformation.
func Reverse(n int) Transform { return transform.Reverse(n) }

// EMA returns the exponential moving average with factor alpha in (0, 1].
func EMA(n int, alpha float64) Transform { return transform.EMA(n, alpha) }

// WeightedMovingAverage returns the weighted moving average with trailing
// weights (weights[0] applies to the current sample).
func WeightedMovingAverage(n int, weights []float64) Transform {
	return transform.WeightedMovingAverage(n, weights)
}

// Inverted returns t composed with a sign flip.
func Inverted(t Transform) Transform { return transform.Inverted(t) }

// WithInverted returns ts followed by the inversion of each element.
func WithInverted(ts []Transform) []Transform { return transform.WithInverted(ts) }

// Compose returns "first t1, then t2".
func Compose(t2, t1 Transform) Transform { return transform.Compose(t2, t1) }

// ParsePipeline parses the pipeline syntax (e.g. "shift(0..10) | mv(1..40)")
// for series of length n; Flatten the result to get the transformation set.
func ParsePipeline(text string, n int) (Pipeline, error) { return query.ParsePipeline(text, n) }

// SortMatches orders matches by record id then transformation index, for
// deterministic comparison of result sets.
func SortMatches(ms []Match) { core.SortMatches(ms) }

// EuclideanDistance returns the distance between two equal-length series.
func EuclideanDistance(a, b Series) float64 { return series.EuclideanDistance(a, b) }

// PearsonCorrelation returns the cross-correlation of two series.
func PearsonCorrelation(a, b Series) float64 { return series.Correlation(a, b) }

// Normalize returns the normal form of s with its mean and std.
func Normalize(s Series) (norm Series, mean, std float64) { return s.NormalForm() }

// DistanceForCorrelation converts a correlation threshold to the
// equivalent normal-form distance for length-n series (Eq. 9).
func DistanceForCorrelation(n int, rho float64) float64 {
	return series.DistanceForCorrelation(n, rho)
}
