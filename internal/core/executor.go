package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"

	"tsq/internal/obs"
	"tsq/internal/series"
	"tsq/internal/transform"
)

// ExecRequest is one query of a batch. Exactly one of Record or Query
// identifies the query point: a pre-resolved record (e.g. a stored series
// for query-by-id workloads), or a raw series whose normal form and DFT
// features the executor computes — once per distinct series, memoized
// across the batch, so subqueries sharing a query point share the
// spectral work.
type ExecRequest struct {
	// Record is the query point when non-nil.
	Record *Record
	// Query is the raw query series, featurized (and memoized) when
	// Record is nil.
	Query series.Series
	// Transforms is the transformation set of the query.
	Transforms []transform.Transform
	// QueryTransform, when non-nil, is applied to the query point before
	// comparison (the one-sided D(t(s), f(q)) semantics); it implies
	// Opts.OneSided.
	QueryTransform *transform.Transform
	// Eps is the distance threshold of a range query.
	Eps float64
	// K, when positive, makes this a k-nearest-neighbor query instead of
	// a range query (Eps is then ignored).
	K int
	// SeqScan evaluates by scanning the relation instead of the MT-index.
	SeqScan bool
	// Opts tunes the range algorithms (groups, ordering, verification
	// workers, one-sided mode...).
	Opts RangeOptions
}

// ExecResult is the outcome of one batch query: Matches for range
// queries, NN for nearest-neighbor queries.
type ExecResult struct {
	Matches []Match
	NN      []NNMatch
	Stats   QueryStats
	Err     error
}

// QueryEngine is the query surface the executor dispatches on. Both the
// single-tree Index and the sharded engine implement it, so a batch
// runs unchanged over either; a sequential scan reads the engine's
// records.
type QueryEngine interface {
	RecordSource
	MTIndexRange(ctx context.Context, q *Record, ts []transform.Transform, eps float64, opts RangeOptions) ([]Match, QueryStats, error)
	MTIndexNN(ctx context.Context, q *Record, ts []transform.Transform, k int, opts RangeOptions) ([]NNMatch, QueryStats, error)
}

// Executor runs many queries concurrently over one shared index with a
// fixed-size worker pool. The index and its storage manager are only read
// during query evaluation, so all workers share them without locking;
// each query's result is identical to running it alone. Construction is
// cheap — an Executor holds no goroutines between Run calls.
//
// The executor must not run concurrently with Insert or Delete on the
// same index; the tsq.DB wrapper enforces that with its reader-writer
// lock.
type Executor struct {
	ix      QueryEngine
	workers int

	memoMu sync.Mutex
	memo   map[uint64][]*Record
}

// NewExecutor returns an executor over ix with the given worker-pool
// size; workers <= 0 means GOMAXPROCS.
func NewExecutor(ix QueryEngine, workers int) *Executor {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Executor{ix: ix, workers: workers, memo: make(map[uint64][]*Record)}
}

// Workers returns the worker-pool size.
func (e *Executor) Workers() int { return e.workers }

// Index returns the shared engine queries run against.
func (e *Executor) Index() QueryEngine { return e.ix }

// Run evaluates every request and returns one result per request, in
// order. Requests are distributed over the worker pool; when ctx is
// cancelled, queries not yet started complete immediately with ctx.Err()
// (queries already running finish normally).
//
// When ctx carries an *obs.Trace (obs.WithTrace), every request — run or
// abandoned — gets a root KindQuery span; abandoned queries close theirs
// with the cancellation error, so a trace always accounts for the whole
// batch. Without a trace the loop is the untraced fast path.
func (e *Executor) Run(ctx context.Context, reqs []ExecRequest) []ExecResult {
	results := make([]ExecResult, len(reqs))
	tr := obs.FromContext(ctx)
	_ = parallelFor(len(reqs), e.workers, func(i int) error {
		results[i] = e.execOne(ctx, tr, i, &reqs[i])
		return nil // a failed query is its own result, not the batch's
	})
	return results
}

// execOne wraps one batch request in its root span (when tracing),
// honoring cancellation: an abandoned query's span is opened and closed
// with the error so the trace shows it was scheduled but not run.
func (e *Executor) execOne(ctx context.Context, tr *obs.Trace, i int, req *ExecRequest) ExecResult {
	var sp *obs.Span
	if tr != nil {
		sp = tr.Start(obs.KindQuery, fmt.Sprintf("batch[%d]", i))
	}
	if err := ctx.Err(); err != nil {
		sp.EndErr(err)
		return ExecResult{Err: err}
	}
	qctx := ctx
	if sp != nil {
		qctx = obs.ContextWithSpan(ctx, sp)
	}
	res := e.runOne(qctx, req)
	if sp != nil {
		sp.Set(obs.AMatches, int64(len(res.Matches)+len(res.NN)))
		sp.Set(obs.ACandidates, int64(res.Stats.Candidates))
	}
	sp.EndErr(res.Err)
	return res
}

// runOne evaluates a single request on the calling goroutine.
func (e *Executor) runOne(ctx context.Context, req *ExecRequest) ExecResult {
	sp := obs.SpanFromContext(ctx)
	qr := req.Record
	if qr == nil {
		var fsp *obs.Span
		if sp != nil {
			fsp = sp.Child(obs.KindFeatures, "query features")
		}
		var err error
		qr, err = e.queryRecord(req.Query)
		fsp.EndErr(err)
		if err != nil {
			return ExecResult{Err: err}
		}
	}
	opts, ts := req.Opts, req.Transforms
	if req.QueryTransform != nil {
		qr, ts = TransformQuery(qr, *req.QueryTransform, ts)
		opts.OneSided = true
	}
	if req.K > 0 {
		if req.SeqScan {
			nn, st, err := SeqScanNN(ctx, e.ix, qr, ts, req.K, opts.OneSided)
			return ExecResult{NN: nn, Stats: st, Err: err}
		}
		nn, st, err := e.ix.MTIndexNN(ctx, qr, ts, req.K, opts)
		return ExecResult{NN: nn, Stats: st, Err: err}
	}
	if req.SeqScan {
		m, st, err := SeqScanRange(ctx, e.ix, qr, ts, req.Eps, opts)
		return ExecResult{Matches: m, Stats: st, Err: err}
	}
	m, st, err := e.ix.MTIndexRange(ctx, qr, ts, req.Eps, opts)
	return ExecResult{Matches: m, Stats: st, Err: err}
}

// queryRecord featurizes a raw query series, memoizing by content so the
// normal form and DFT of a series shared by several subqueries are
// computed once per batch. Entries are compared by value after the hash,
// so colliding series still resolve correctly.
func (e *Executor) queryRecord(s series.Series) (*Record, error) {
	n := e.ix.SeriesLength()
	if len(s) != n {
		return NewQueryRecord(n, s) // let it report the error
	}
	h := hashSeries(s)
	e.memoMu.Lock()
	for _, r := range e.memo[h] {
		if seriesEqual(r.Raw, s) {
			e.memoMu.Unlock()
			return r, nil
		}
	}
	e.memoMu.Unlock()
	// Featurize outside the lock: the DFT is the expensive part and
	// independent queries should not serialize on it.
	r, err := NewQueryRecord(n, s)
	if err != nil {
		return nil, err
	}
	e.memoMu.Lock()
	defer e.memoMu.Unlock()
	for _, prev := range e.memo[h] {
		if seriesEqual(prev.Raw, s) {
			return prev, nil // another worker won the race; reuse its record
		}
	}
	e.memo[h] = append(e.memo[h], r)
	return r, nil
}

// hashSeries is FNV-1a over the IEEE-754 bits of the samples.
func hashSeries(s series.Series) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, v := range s {
		bits := math.Float64bits(v)
		for i := 0; i < 8; i++ {
			h ^= bits & 0xff
			h *= prime64
			bits >>= 8
		}
	}
	return h
}

func seriesEqual(a, b series.Series) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
