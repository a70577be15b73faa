package core

import (
	"context"
	"math"
	"sync"
	"sync/atomic"

	"tsq/internal/heapfile"
)

// verifySerial verifies the candidates of group g — the records the
// filter stage's lower bound let through — on the calling goroutine: the
// body every verifyParallel worker runs, and the whole of it at one
// worker, so serial and parallel verification produce identical matches
// and statistics. The buffers are sc's, which no other goroutine may
// hold. The extra falsePos return counts candidates that produced no
// match — the paper's false positives, the filter quality the trace
// reports.
//
// Unless opts.NaiveVerify, this is the I/O-aware pipeline: the pages of
// the candidates' verify parts are fetched in one page-ordered batch, a
// page shared by several candidates once — a single candidate is a batch
// of one — and the distance evaluations run through the early-abandoning
// kernels. A group whose distances read the upper half of the spectrum
// (group.whole) fetches the raw parts instead and rebuilds each
// candidate's whole record.
//
// Each candidate is verified as its page streams by, in page order,
// against a Record that is only a view of the heap's decode slot: a
// range match depends on nothing but its own record and eps, so the
// order of verification changes no match and no counter. The matches
// are then emitted in the caller's candidate order, through the span
// each candidate wrote into the scratch match buffer, so matches —
// values and order — are identical to the naive path.
func (ix *Index) verifySerial(ctx context.Context, sc *scratch, candidates []int64, g *group, q *Record, eps float64, opts RangeOptions) ([]Match, QueryStats, int, error) {
	var st QueryStats
	var falsePos int
	var out []Match
	if opts.NaiveVerify {
		for _, id := range candidates {
			r, err := ix.fetch(ctx, id)
			if err != nil {
				return nil, st, falsePos, err
			}
			if r == nil { // deleted since the entry was written
				continue
			}
			st.Candidates++
			before := len(out)
			if g.ordered != nil {
				out = appendOrderedMatches(out, g.ordered, g.perm, r, q, eps, &st, true, nil)
			} else {
				for i, t := range g.ts {
					if d, _ := st.evaluate(t, r, q, math.Inf(1), g.oneSided); d <= eps {
						out = append(out, Match{RecordID: r.ID, TransformIdx: g.index(i), Distance: d})
					}
				}
			}
			if len(out) == before {
				falsePos++
			}
		}
		return out, st, falsePos, nil
	}
	// verify appends r's matches to the scratch match buffer. The
	// distances come from the pair kernel: one cosine per coefficient of
	// (r, q) serves every transformation of the rectangle.
	pair := &sc.pair
	if g.ordered != nil {
		pair.Init(g.ordered, g.oneSided)
	} else {
		pair.Init(g.ts, g.oneSided)
	}
	sc.matches = sc.matches[:0]
	verify := func(r *Record) {
		st.Candidates++
		before := len(sc.matches)
		pair.Set(r.Mags, r.Phases, q.Mags, q.Phases)
		if g.ordered != nil {
			sc.matches = appendOrderedMatches(sc.matches, g.ordered, g.perm, r, q, eps, &st, false, pair)
		} else {
			for ti := range g.ts {
				if d, _ := st.evaluatePair(pair, ti, eps); d <= eps {
					sc.matches = append(sc.matches, Match{RecordID: r.ID, TransformIdx: g.index(ti), Distance: d})
				}
			}
		}
		if len(sc.matches) == before {
			falsePos++
		}
	}
	if ix.heap == nil {
		for _, id := range candidates {
			if r := ix.ds.Record(id); r != nil { // nil: deleted since the entry was written
				verify(r)
			}
		}
		return append(out, sc.matches...), st, falsePos, nil
	}
	// A candidate is a tree entry, and a deleted record has none (writes
	// are exclusive), so every candidate's page is read: the page of its
	// verify part, or of its raw part when the group's distances need the
	// whole spectrum, which is rebuilt from the series.
	sc.spans = append(sc.spans[:0], make([]matchSpan, len(candidates))...)
	span := func(i int, r *Record) {
		lo := len(sc.matches)
		verify(r)
		sc.spans[i] = matchSpan{lo, len(sc.matches)}
	}
	var err error
	if g.whole {
		err = ix.heap.VisitRaw(ctx, candidates, &sc.fetch, func(i int, v *heapfile.RawView) error {
			if v != nil { // deleted on disk: the span stays empty
				sc.spec = sc.whole.rebuild(candidates[i], v.Raw, sc.spec)
				span(i, &sc.whole)
			}
			return nil
		})
	} else {
		err = ix.heap.Visit(ctx, candidates, &sc.fetch, func(i int, v *heapfile.View) error {
			if v != nil {
				span(i, &Record{ID: candidates[i], Mags: v.Mags, Phases: v.Phases})
			}
			return nil
		})
	}
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
// verifySerial (so every chunk gets the same page-ordered batch fetch),
// and concatenates them in candidate order. The first chunk works in
// sc, the probe's scratch, and every other one in a scratch of its own.
// One worker, or fewer than two candidates, is verifySerial itself: no
// chunk table, no closure, and no division by a zero worker count.
func (ix *Index) verifyParallel(ctx context.Context, sc *scratch, candidates []int64, g *group, q *Record, eps float64, opts RangeOptions) ([]Match, QueryStats, int, error) {
	workers := min(opts.Workers, len(candidates))
	if workers <= 1 {
		return ix.verifySerial(ctx, sc, candidates, g, q, eps, opts)
	}
	type part struct {
		matches  []Match
		stats    QueryStats
		falsePos int
	}
	parts := make([]part, workers)
	chunk := (len(candidates) + workers - 1) / workers
	shared := *g // the workers' copy, so that g may stay on the caller's stack
	err := ParallelFor(workers, workers, func(w int) (err error) {
		lo := min(w*chunk, len(candidates))
		hi := min(lo+chunk, len(candidates))
		wsc := sc
		if w > 0 {
			wsc = ix.acquireScratch()
			defer ix.releaseScratch(wsc)
		}
		p := &parts[w]
		p.matches, p.stats, p.falsePos, err = ix.verifySerial(ctx, wsc, candidates[lo:hi], &shared, q, eps, opts)
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

// ParallelFor is the engine's one fork-join, and the worker pool of the
// facade's batch: it calls fn(i) for every i in [0, n) on at most
// workers goroutines and returns once all calls have, with the error of
// the lowest failing index. With one worker (or
// none, or at most one index) it runs on the calling goroutine, in index
// order, and stops at the first error: a serial run is the one-worker
// case of the same loop. In parallel, indexes are handed out in
// ascending order and no new one is handed out after a failure, so every
// index below a failing one has run.
func ParallelFor(n, workers int, fn func(i int) error) error {
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
