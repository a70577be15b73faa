package core

import (
	"context"
	"fmt"
	"math"

	"tsq/internal/obs"
	"tsq/internal/storage"
	"tsq/internal/transform"
)

// NNMatch is one answer of a transformed nearest-neighbor query: the
// record, the transformation minimizing the distance to the query, and
// that distance.
type NNMatch struct {
	RecordID     int64
	TransformIdx int
	Distance     float64
}

// lessNN is the rank order of nearest-neighbor answers: distance, then
// record id, then transformation index. The scan, the index search's
// top-k insertion and the shard merge all rank by it, so equal distances
// at the k boundary resolve the same way on every path.
func lessNN(a, b NNMatch) bool {
	if a.Distance != b.Distance {
		return a.Distance < b.Distance
	}
	if a.RecordID != b.RecordID {
		return a.RecordID < b.RecordID
	}
	return a.TransformIdx < b.TransformIdx
}

// SeqScanNN returns the k records whose best transformed distance
// min_{t in ts} D(t(r), t(q)) (or D(t(r), q) when oneSided) is smallest,
// in rank order, by exhaustive scan. It keeps the k best so far only, and
// each evaluation abandons at the smaller of the record's running minimum
// and the k-th best distance so far (scanBest). At k <= 0 it returns at
// once, with no answer and zero stats, as the index search does. When ctx
// carries a span, a KindScan child records the records scanned and
// comparisons made.
func SeqScanNN(ctx context.Context, src RecordSource, q *Record, ts []transform.Transform, k int, oneSided bool) ([]NNMatch, QueryStats, error) {
	if k <= 0 {
		return nil, QueryStats{}, nil
	}
	var sp *obs.Span
	if parent := obs.SpanFromContext(ctx); parent != nil {
		sp = parent.Child(obs.KindScan, fmt.Sprintf("nn seq scan (k=%d, %d records)", k, src.Len()))
	}
	var st QueryStats
	best := make([]NNMatch, 0, min(k, src.Len()))
	worst := math.Inf(1)
	err := src.visit(ctx, 0, src.Len(), &scanBuf{whole: true}, func(r *Record) error {
		if r.ID == q.ID {
			return nil
		}
		st.Candidates++
		if d, ti, ok := st.scanBest(ts, r, q, worst, oneSided); ok {
			best = insertTopK(best, NNMatch{RecordID: r.ID, TransformIdx: ti, Distance: d}, k, lessNN)
			if len(best) == k {
				worst = best[k-1].Distance
			}
		}
		return nil
	})
	if sp != nil {
		sp.Set(obs.ACandidates, int64(st.Candidates))
		sp.Set(obs.AComparisons, int64(st.Comparisons))
		sp.Set(obs.ATerms, int64(st.Terms))
		sp.Set(obs.AMatches, int64(len(best)))
		sp.Set(obs.ATransforms, int64(len(ts)))
		sp.EndErr(err)
	}
	if err != nil {
		return nil, st, err
	}
	return best, st, nil
}

// scanBest is bestWithin for the scans, through the plain kernels: the
// smallest distance of r and q over ts and the transformation attaining
// it, each evaluation abandoning at the smaller of the running minimum and
// worst, the k-th best distance so far. An abandoned evaluation proves d
// strictly above that cutoff, so ties at the k boundary are still
// computed; ok is false when every evaluation abandoned.
func (st *QueryStats) scanBest(ts []transform.Transform, r, q *Record, worst float64, oneSided bool) (best float64, ti int, ok bool) {
	best = math.Inf(1)
	for i, t := range ts {
		d, abandoned := st.evaluate(t, r, q, math.Min(best, worst), oneSided)
		if abandoned {
			continue
		}
		ok = true
		if d < best {
			best, ti = d, i
		}
	}
	return best, ti, ok
}

// insertTopK inserts m into top, the at most k best results so far in
// ascending order, and drops the worst once there are more than k, so no
// sort runs per resolved candidate. less is the answer's rank order
// (lessNN, lessPair): a total order, so the k kept do not depend on the
// order candidates arrive in.
func insertTopK[T any](top []T, m T, k int, less func(a, b T) bool) []T {
	i := len(top)
	for i > 0 && less(m, top[i-1]) {
		i--
	}
	if i == k {
		return top
	}
	if len(top) < k {
		top = append(top, m)
	}
	copy(top[i+1:], top[i:len(top)-1])
	top[i] = m
	return top
}

// bestWithin resolves the pair bound to the kernel for a top-k search: the
// smallest distance over the kernel's nts transformations and the
// transformation attaining it, each evaluation abandoning at the smaller
// of the running minimum and worst, the k-th best distance so far (+Inf
// until there are k). An abandoned evaluation proves d above that cutoff,
// strictly, so it can neither lower the minimum nor tie its way into the
// k best. ok is false when every evaluation abandoned: the pair is beyond
// worst under every transformation and is not a result.
func bestWithin(pair *transform.Pair, nts int, worst float64, st *QueryStats) (best float64, ti int, ok bool) {
	best = math.Inf(1)
	for i := 0; i < nts; i++ {
		d, abandoned := st.evaluatePair(pair, i, math.Min(best, worst))
		if abandoned {
			continue
		}
		ok = true
		if d < best {
			best, ti = d, i
		}
	}
	return best, ti, ok
}

// nnItem is an element of the NN search's queue: a node of shard sh's
// tree (rec < 0), or an entry of one of its leaves, the shard-local record
// rec, queued under its point bound.
type nnItem struct {
	rec  int64
	page storage.PageID
	sh   int32
}

// nnCand is a leaf entry popped into the run at hand, with its queue key.
type nnCand struct {
	key float64
	nnItem
}

// MTIndexNN answers the transformed nearest-neighbor query (Sec. 4.1's
// sketch) with one best-first search over every shard's tree, Hjaltason
// and Samet's incremental NN: a single queue, seeded with each shard's
// root, holds nodes keyed by the DFT-prefix lower bound in its rectangle
// form (lbCascade.rectLB: per transformation, the squared distances from
// the transformed query coefficients to the entry's annular sectors,
// summed) and leaf entries keyed by its point form (lbCascade.kept), so
// records are resolved in bound order, against one k-th best distance for
// all shards. A subtree or entry whose bound exceeds the k-th best so far
// is never queued (the point form decides through lbCascade.skip); what
// is popped at or below it is resolved exactly by the pair kernel, every
// evaluation abandoning at that same distance. All three dismiss only on
// d > k-th best, strictly and with the cutoff's slack, so ties at the k
// boundary are computed and ranked. Results are exact, carry global ids
// and are in rank order (lessNN). Of opts only OneSided applies.
//
// Entries popped one after another before the next node form a run: a
// paged shard fetches its share of a run in one page-ordered batch, then
// the run is verified in pop order, each entry's key tested again against
// the k-th best in force. An in-memory index runs the same runs, so every
// statistic is the same with and without a heap file.
//
// The statistics follow the range pipeline's: SkippedLB (and its tiers)
// counts leaf entries the prefix bound dismissed, entries still queued
// when the search stops among them at tier 2, Candidates the records
// resolved, Abandoned the evaluations cut short, and IndexSearches the
// shard trees searched. LBTimeNs stays zero: the bound meets one entry at
// a time between queue operations, and a clock read per entry would cost
// more than the bound.
//
// When ctx holds a parent span the search is recorded as one KindProbe
// span (node visits, subtrees pruned by the bound, prefix-bound
// dismissals, candidates resolved, evaluations abandoned, page I/O),
// with no shard tag: it spans them all. A nil ctx takes the untraced path.
func (s *Sharded) MTIndexNN(ctx context.Context, q *Record, ts []transform.Transform, k int, opts RangeOptions) (_ []NNMatch, _ QueryStats, retErr error) {
	var st QueryStats
	if k <= 0 || len(ts) == 0 {
		return nil, st, nil
	}
	parent := obs.SpanFromContext(ctx)
	var sp *obs.Span
	var prunedLB int64
	var nMatches int
	if parent != nil {
		sp = parent.Child(obs.KindProbe, fmt.Sprintf("nn best-first (k=%d)", k))
		sp.Set(obs.ATransforms, int64(len(ts)))
		qio := &storage.QueryIO{}
		ctx = storage.WithQueryIO(ctx, qio)
		defer func() {
			sp.Set(obs.ANodes, int64(st.DAAll))
			sp.Set(obs.ALeaves, int64(st.DALeaf))
			sp.Set(obs.APrunedLB, prunedLB)
			sp.Set(obs.ACandidates, int64(st.Candidates))
			sp.Set(obs.AComparisons, int64(st.Comparisons))
			sp.Set(obs.AMatches, int64(nMatches))
			sp.Set(obs.APagesRead, qio.Reads.Load())
			sp.Set(obs.ABufferHits, qio.Hits.Load())
			sp.Set(obs.APagesPrefetched, qio.Prefetched.Load())
			sp.Set(obs.ASkippedLB, int64(st.SkippedLB))
			sp.Set(obs.ASkippedLB0, int64(st.SkippedLB0))
			sp.Set(obs.ASkippedLB1, int64(st.SkippedLB1))
			sp.Set(obs.ASkippedLB2, int64(st.SkippedLB2))
			sp.Set(obs.AAbandoned, int64(st.Abandoned))
			sp.Set(obs.ATerms, int64(st.Terms))
			sp.EndErr(retErr)
		}()
	}
	// The group, the cascade, the pair kernel, the queue, the run and the
	// k best so far live in shard 0's scratch; each shard reads its own
	// tree through its own decode slot and its own heap. top holds the k
	// best in rank order and worst the k-th best distance, +Inf until
	// there are k: nothing is dismissed before then. The cascade's cutoff
	// follows worst down.
	ix0 := s.shards[0]
	sc := ix0.acquireScratch()
	defer ix0.releaseScratch(sc)
	worst := math.Inf(1)
	casc := &sc.casc
	grp, _ := newGroup(ix0, ts, nil, opts.OneSided, false, sc) // nil indices: no error
	casc.init(ix0.opts.K, &grp, q, worst)
	pair := &sc.pair
	pair.Init(ts, opts.OneSided)
	top, run := sc.top[:0], sc.run[:0]
	queue := &sc.queue
	queue.Reset()
	slots := sc.slots[:0]
	for sh, ix := range s.shards {
		slots = append(slots, ix.tree.AcquireSlots())
		st.IndexSearches++
		queue.Push(0, nnItem{sh: int32(sh), rec: -1, page: ix.tree.Root()})
	}
	defer func() {
		for _, sl := range slots {
			sl.Release()
		}
		clear(slots)
		sc.slots, sc.top, sc.run = slots[:0], top[:0], run[:0]
	}()
	// The query excludes itself when it is a stored record: qsh and qrec
	// are its shard and local id.
	qsh, qrec := -1, int64(-1)
	if q.ID >= 0 && q.ID < int64(s.Len()) {
		qsh, qrec = s.locate(q.ID)
	}
	// dismiss books an entry of shard sh the prefix bound dismissed at
	// tier, with the k-th best in force.
	dismiss := func(sh int32, rec int64, tier int) {
		st.skippedAt(tier)
		if hook := s.shards[sh].nnDismissed; hook != nil {
			hook(rec, worst)
		}
	}
	// resolve loads and verifies a run. Its records are loaded the way a
	// scan loads a chunk (Index.load): shard by shard into the run's
	// positions, a paged shard's in one page-ordered batch copied out of
	// their pages, because the run is verified in pop order, not in the
	// order the batch streams by.
	buf := &sc.runBuf
	buf.whole = grp.whole
	resolve := func() error {
		buf.reset(len(run))
		for sh, ix := range s.shards {
			buf.ids, buf.at = buf.ids[:0], buf.at[:0]
			for i, c := range run {
				if c.sh == int32(sh) {
					buf.ids, buf.at = append(buf.ids, c.rec), append(buf.at, i)
				}
			}
			if err := ix.load(ctx, buf); err != nil {
				return s.shardErr(sh, err)
			}
		}
		// Read the first coefficients of the run's records before
		// verifying any. In memory they lie scattered, and loads issued
		// together overlap their cache misses, where the loop below would
		// wait for each record in turn. The sum is kept so the loads are
		// not dropped.
		var warm float64
		for i := range run {
			if buf.live[i] {
				warm += buf.recs[i].Mags[1] + buf.recs[i].Phases[1]
			}
		}
		sc.warm = warm
		for i, c := range run {
			if c.key > casc.cut {
				dismiss(c.sh, c.rec, 2) // the k-th best fell since c was popped
				continue
			}
			if !buf.live[i] {
				continue // deleted: a leaf entry never names one
			}
			r := &buf.recs[i]
			st.Candidates++
			pair.Set(r.Mags, r.Phases, q.Mags, q.Phases)
			d, ti, ok := bestWithin(pair, len(ts), worst, &st)
			if !ok {
				continue
			}
			top = insertTopK(top, NNMatch{RecordID: s.globalID(int(c.sh), c.rec), TransformIdx: ti, Distance: d}, k, lessNN)
			if len(top) == k {
				worst = top[k-1].Distance
				casc.rearm(worst)
			}
		}
		return nil
	}

	queued := 0 // leaf entries in the queue
	for {
		key, it, more := 0.0, nnItem{}, queue.Len() > 0
		if more {
			key, it = queue.Pop()
			if it.rec >= 0 && key <= casc.cut {
				queued--
				run = append(run, nnCand{key: key, nnItem: it})
				continue
			}
		}
		// A node, an entry beyond the cut or an empty queue ends the run.
		if err := resolve(); err != nil {
			return nil, st, err
		}
		run = run[:0]
		if !more {
			break
		}
		if key > casc.cut {
			queue.Push(key, it) // it and all that is left lie beyond the cut
			break
		}
		node, leaf, err := s.shards[it.sh].tree.LoadView(ctx, it.page, slots[it.sh].At(0))
		if err != nil {
			return nil, st, s.shardErr(int(it.sh), err)
		}
		st.DAAll++
		if leaf == nil {
			for _, ent := range node.Entries {
				if lb := casc.rectLB(ent.Rect.Lo, ent.Rect.Hi, -1); lb > casc.cut {
					prunedLB++
				} else {
					queue.Push(lb, nnItem{sh: it.sh, rec: -1, page: ent.Child})
				}
			}
			continue
		}
		st.DALeaf++
		for i := 0; i < leaf.Len(); i++ {
			rec := leaf.Rec(i)
			if int(it.sh) == qsh && rec == qrec {
				continue // the query itself
			}
			p := leaf.Point(i)
			if tier := casc.skip(p); tier >= 0 {
				dismiss(it.sh, rec, tier)
				continue
			}
			queued++
			queue.Push(casc.kept(p), nnItem{sh: it.sh, rec: rec})
		}
	}
	// What is still queued lies beyond the final k-th best: tier-2
	// dismissals. Only a dismissal hook needs to see them one by one.
	for _, ix := range s.shards {
		if ix.nnDismissed != nil {
			for queue.Len() > 0 {
				if _, it := queue.Pop(); it.rec >= 0 {
					queued--
					dismiss(it.sh, it.rec, 2)
				}
			}
		}
	}
	st.SkippedLB, st.SkippedLB2 = st.SkippedLB+queued, st.SkippedLB2+queued
	nMatches = len(top)
	return append([]NNMatch(nil), top...), st, nil
}
