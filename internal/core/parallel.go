package core

import (
	"context"
	"runtime"
	"sync"
	"time"

	"tsq/internal/heapfile"
	"tsq/internal/transform"
)

// verifySerial verifies one transformation rectangle's candidates on the
// calling goroutine. It is the fallback of verifyParallel and the body of
// the serial MT-index verification phase; both paths therefore produce
// identical matches and statistics. The extra falsePos return counts
// candidates that produced no match — the paper's false positives, the
// filter quality the trace reports.
//
// Unless opts.NaiveVerify, this is the I/O-aware pipeline: candidates
// whose DFT-prefix lower bound already exceeds eps are dropped without
// retrieval (SkippedLB, split per cascade tier into SkippedLB0/1/2),
// the survivors' record pages are fetched in one page-ordered batch — a
// single survivor is a batch of one — and the surviving distance
// evaluations run through the early-abandoning kernels. The bound is
// evaluated through a tiered cascade whose candidate-independent state
// is hoisted here, once per call — and therefore once per shard under
// verifyParallel; the buffers come from a scratch acquired here too, so
// shards never share one.
//
// Each survivor is verified as its page streams by, in page order,
// against a Record that is only a view of the heap's decode slot: a
// range match depends on nothing but its own record and eps, so the
// order of verification changes no match and no counter. The matches
// are then emitted in the caller's candidate order, through the span
// each survivor wrote into the scratch match buffer, so matches —
// values and order — are identical to the naive path.
func (ix *Index) verifySerial(ctx context.Context, candidates []candidate, sub []transform.Transform, g []int, q *Record, eps float64, ordered *orderedSet, opts RangeOptions) ([]Match, QueryStats, int, error) {
	var st QueryStats
	var falsePos int
	var out []Match
	if opts.NaiveVerify {
		for _, c := range candidates {
			r, err := ix.fetchCtx(ctx, c.rec)
			if err != nil {
				return nil, st, falsePos, err
			}
			if r == nil { // deleted since the entry was written
				continue
			}
			st.Candidates++
			before := len(out)
			if ordered != nil {
				out = appendOrderedMatches(out, ordered, r, q, eps, &st, g, true)
			} else {
				for i, t := range sub {
					st.Comparisons++
					d := distancePred(t, r, q, opts.OneSided)
					if d <= eps {
						out = append(out, Match{RecordID: r.ID, TransformIdx: g[i], Distance: d})
					}
				}
			}
			if len(out) == before {
				falsePos++
			}
		}
		return out, st, falsePos, nil
	}
	sc := ix.acquireScratch()
	defer ix.releaseScratch(sc)
	survivors := candidates
	if len(candidates) > 0 {
		lbStart := time.Now()
		survivors = sc.survivors[:0]
		if opts.FlatLB {
			// Original flat bound: per-candidate cutoff and coefficient
			// loads, kept for A/B benchmarks. Its dismissals all come
			// from the full prefix bound, i.e. tier 2.
			for _, c := range candidates {
				if c.feat != nil && ix.skipByPrefixLB(c.feat, sub, q, eps, opts.OneSided) {
					st.SkippedLB++
					st.SkippedLB2++
					continue
				}
				survivors = append(survivors, c)
			}
		} else {
			casc := ix.newLBCascade(sub, q, eps, opts.OneSided)
			for _, c := range candidates {
				if c.feat != nil {
					switch casc.skip(c.feat) {
					case 0:
						st.SkippedLB++
						st.SkippedLB0++
						continue
					case 1:
						st.SkippedLB++
						st.SkippedLB1++
						continue
					case 2:
						st.SkippedLB++
						st.SkippedLB2++
						continue
					}
				}
				survivors = append(survivors, c)
			}
		}
		sc.survivors = survivors
		st.LBTimeNs = time.Since(lbStart).Nanoseconds()
	}
	// verify appends r's matches to the scratch match buffer.
	sc.matches = sc.matches[:0]
	verify := func(r *Record) {
		st.Candidates++
		before := len(sc.matches)
		if ordered != nil {
			sc.matches = appendOrderedMatches(sc.matches, ordered, r, q, eps, &st, g, false)
		} else {
			for ti, t := range sub {
				st.Comparisons++
				d, abandoned := distancePredAbandon(t, r, q, eps, opts.OneSided)
				if abandoned {
					st.Abandoned++
					continue
				}
				if d <= eps {
					sc.matches = append(sc.matches, Match{RecordID: r.ID, TransformIdx: g[ti], Distance: d})
				}
			}
		}
		if len(sc.matches) == before {
			falsePos++
		}
	}
	if ix.heap == nil {
		for _, c := range survivors {
			if r := ix.ds.Record(c.rec); r != nil { // nil: deleted since the entry was written
				verify(r)
			}
		}
		return append(out, sc.matches...), st, falsePos, nil
	}
	ids := sc.ids[:0]
	for _, c := range survivors {
		if ix.ds.Record(c.rec) != nil { // known deleted: no page read
			ids = append(ids, c.rec)
		}
	}
	sc.ids = ids
	sc.spans = append(sc.spans[:0], make([]matchSpan, len(ids))...)
	err := ix.heap.Visit(ctx, ids, &sc.fetch, func(i int, v *heapfile.View) error {
		if v == nil { // tombstoned on disk: the span stays empty
			return nil
		}
		lo := len(sc.matches)
		verify(&Record{ID: ids[i], Mags: v.Mags, Phases: v.Phases})
		sc.spans[i] = matchSpan{lo, len(sc.matches)}
		return nil
	})
	if err != nil {
		return nil, st, falsePos, err
	}
	if len(sc.matches) == 0 {
		return nil, st, falsePos, nil
	}
	out = make([]Match, 0, len(sc.matches))
	for _, sp := range sc.spans {
		out = append(out, sc.matches[sp.lo:sp.hi]...)
	}
	return out, st, falsePos, nil
}

// verifyParallel shards the verification of one transformation
// rectangle's candidates across opts.Workers goroutines, each shard
// running verifySerial on its chunk (so every shard gets the same
// lower-bound skip and page-ordered batch fetch). Empty candidate sets
// and non-positive worker counts fall back to the serial path (a zero
// divisor would otherwise panic in the chunk computation).
func (ix *Index) verifyParallel(ctx context.Context, candidates []candidate, sub []transform.Transform, g []int, q *Record, eps float64, ordered *orderedSet, opts RangeOptions) ([]Match, QueryStats, int, error) {
	workers := opts.Workers
	if workers > len(candidates) {
		workers = len(candidates)
	}
	if workers <= 1 {
		return ix.verifySerial(ctx, candidates, sub, g, q, eps, ordered, opts)
	}
	type shard struct {
		matches  []Match
		stats    QueryStats
		falsePos int
		err      error
	}
	shards := make([]shard, workers)
	var wg sync.WaitGroup
	chunk := (len(candidates) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := min(lo+chunk, len(candidates))
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			sh := &shards[w]
			sh.matches, sh.stats, sh.falsePos, sh.err = ix.verifySerial(ctx, candidates[lo:hi], sub, g, q, eps, ordered, opts)
		}(w, lo, hi)
	}
	wg.Wait()
	var out []Match
	var st QueryStats
	var falsePos int
	for _, sh := range shards {
		if sh.err != nil {
			return nil, st, falsePos, sh.err
		}
		out = append(out, sh.matches...)
		st.Add(sh.stats)
		falsePos += sh.falsePos
	}
	return out, st, falsePos, nil
}

// mtRangeParallel probes the transformation rectangles of an MT-index
// range query concurrently: one goroutine per MBR, bounded by
// opts.Workers, each running the same filter-and-verify pipeline as the
// serial loop (including verifyParallel for its candidates). Results are
// merged in group order, so matches and aggregate statistics are
// identical to the serial evaluation. Each goroutine records its own
// KindProbe span when ctx carries a parent span; the trace's span list
// is mutex-protected, so concurrent probes trace safely.
func (ix *Index) mtRangeParallel(ctx context.Context, q *Record, ts []transform.Transform, groups [][]int, eps float64, opts RangeOptions) ([]Match, QueryStats, error) {
	type groupResult struct {
		matches []Match
		st      QueryStats
		err     error
	}
	results := make([]groupResult, len(groups))
	sem := make(chan struct{}, opts.Workers)
	var wg sync.WaitGroup
	for gi := range groups {
		if len(groups[gi]) == 0 {
			continue
		}
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			m, st, err := ix.rangeGroup(ctx, q, ts, groups[gi], gi, len(groups), eps, opts)
			results[gi] = groupResult{matches: m, st: st, err: err}
		}(gi)
	}
	wg.Wait()
	var out []Match
	var st QueryStats
	for _, r := range results {
		st.Add(r.st)
		if r.err != nil {
			return nil, st, r.err
		}
		out = append(out, r.matches...)
	}
	return out, st, nil
}

// SeqScanRangeParallel evaluates the sequential scan across the given
// number of worker goroutines (0 or 1 means GOMAXPROCS). The answer and
// the aggregate statistics equal the serial SeqScanRange; matches are
// returned in record order. Sequential scans are embarrassingly parallel
// — each record's verification is independent — so this is the natural
// way to use a multicore machine when no index helps.
func SeqScanRangeParallel(ds *Dataset, q *Record, ts []transform.Transform, eps float64, opts RangeOptions, workers int) ([]Match, QueryStats) {
	if workers <= 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	n := len(ds.Records)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		return SeqScanRange(ds, q, ts, eps, opts)
	}
	ordered := orderedPrefix(ts, opts.UseOrdering && !opts.OneSided)

	type shard struct {
		matches []Match
		stats   QueryStats
	}
	shards := make([]shard, workers)
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			sh := &shards[w]
			for _, r := range ds.Records[lo:hi] {
				if r == nil {
					continue
				}
				sh.stats.Candidates++
				if ordered != nil {
					sh.matches = appendOrderedMatches(sh.matches, ordered, r, q, eps, &sh.stats, identityIndexes(len(ts)), opts.NaiveVerify)
					continue
				}
				for i, t := range ts {
					sh.stats.Comparisons++
					if !opts.NaiveVerify {
						d, abandoned := distancePredAbandon(t, r, q, eps, opts.OneSided)
						if abandoned {
							sh.stats.Abandoned++
							continue
						}
						if d <= eps {
							sh.matches = append(sh.matches, Match{RecordID: r.ID, TransformIdx: i, Distance: d})
						}
						continue
					}
					d := distancePred(t, r, q, opts.OneSided)
					if d <= eps {
						sh.matches = append(sh.matches, Match{RecordID: r.ID, TransformIdx: i, Distance: d})
					}
				}
			}
		}(w, lo, hi)
	}
	wg.Wait()

	var out []Match
	var st QueryStats
	for _, sh := range shards {
		out = append(out, sh.matches...)
		st.Add(sh.stats)
	}
	return out, st
}
