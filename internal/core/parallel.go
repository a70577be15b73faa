package core

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"tsq/internal/heapfile"
	"tsq/internal/transform"
)

// verifySerial verifies one transformation rectangle's candidates on the
// calling goroutine: the body every verifyParallel worker runs, and the
// whole of it at one worker, so serial and parallel verification produce
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
// is hoisted here, once per call — and therefore once per chunk under
// verifyParallel; the buffers come from a scratch acquired here too, so
// chunks never share one.
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
			r, err := ix.fetch(ctx, c.rec)
			if err != nil {
				return nil, st, falsePos, err
			}
			if r == nil { // deleted since the entry was written
				continue
			}
			st.Candidates++
			before := len(out)
			if ordered != nil {
				out = appendOrderedMatches(out, ordered, r, q, eps, &st, g, true, nil)
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
					if tier := casc.skip(c.feat); tier >= 0 {
						st.skippedAt(tier)
						continue
					}
				}
				survivors = append(survivors, c)
			}
		}
		sc.survivors = survivors
		st.LBTimeNs = time.Since(lbStart).Nanoseconds()
	}
	// verify appends r's matches to the scratch match buffer. The
	// distances come from the pair kernel: one cosine per coefficient of
	// (r, q) serves every transformation of the rectangle.
	pair := &sc.pair
	if ordered != nil {
		pair.Init(ordered.set.Transforms, opts.OneSided)
	} else {
		pair.Init(sub, opts.OneSided)
	}
	sc.matches = sc.matches[:0]
	verify := func(r *Record) {
		st.Candidates++
		before := len(sc.matches)
		pair.Set(r.Mags, r.Phases, q.Mags, q.Phases)
		if ordered != nil {
			sc.matches = appendOrderedMatches(sc.matches, ordered, r, q, eps, &st, g, false, pair)
		} else {
			for ti := range sub {
				st.Comparisons++
				d, abandoned := pair.DistanceAbandon(ti, eps)
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

// verifyParallel splits the verification of one transformation
// rectangle's candidates into opts.Workers chunks, each running
// verifySerial (so every chunk gets the same lower-bound skip and
// page-ordered batch fetch), and concatenates them in candidate order.
// One worker, or fewer than two candidates, is verifySerial itself: no
// chunk table, no closure, and no division by a zero worker count.
func (ix *Index) verifyParallel(ctx context.Context, candidates []candidate, sub []transform.Transform, g []int, q *Record, eps float64, ordered *orderedSet, opts RangeOptions) ([]Match, QueryStats, int, error) {
	workers := min(opts.Workers, len(candidates))
	if workers <= 1 {
		return ix.verifySerial(ctx, candidates, sub, g, q, eps, ordered, opts)
	}
	type part struct {
		matches  []Match
		stats    QueryStats
		falsePos int
	}
	parts := make([]part, workers)
	chunk := (len(candidates) + workers - 1) / workers
	err := parallelFor(workers, workers, func(w int) (err error) {
		lo := min(w*chunk, len(candidates))
		hi := min(lo+chunk, len(candidates))
		p := &parts[w]
		p.matches, p.stats, p.falsePos, err = ix.verifySerial(ctx, candidates[lo:hi], sub, g, q, eps, ordered, opts)
		return err
	})
	var out []Match
	var st QueryStats
	var falsePos int
	for _, p := range parts {
		out = append(out, p.matches...)
		st.Add(p.stats)
		falsePos += p.falsePos
	}
	if err != nil {
		return nil, st, falsePos, err
	}
	return out, st, falsePos, nil
}

// parallelFor is the engine's one fork-join: it calls fn(i) for every i
// in [0, n) on at most workers goroutines and returns once all calls
// have, with the error of the lowest failing index. With one worker (or
// none, or at most one index) it runs on the calling goroutine, in index
// order, and stops at the first error: a serial run is the one-worker
// case of the same loop. In parallel, indexes are handed out in
// ascending order and no new one is handed out after a failure, so every
// index below a failing one has run.
func parallelFor(n, workers int, fn func(i int) error) error {
	workers = min(workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	// One heap object for everything the goroutines share.
	var run struct {
		next atomic.Int64
		wg   sync.WaitGroup
		mu   sync.Mutex
		idx  int // lowest failing index so far
		err  error
	}
	run.idx = n
	worker := func() {
		defer run.wg.Done()
		for {
			i := int(run.next.Add(1)) - 1
			if i >= n {
				return
			}
			if err := fn(i); err != nil {
				run.next.Store(int64(n))
				run.mu.Lock()
				if i < run.idx {
					run.idx, run.err = i, err
				}
				run.mu.Unlock()
				return
			}
		}
	}
	run.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go worker()
	}
	run.wg.Wait()
	return run.err
}
