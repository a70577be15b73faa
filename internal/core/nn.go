package core

import (
	"context"
	"fmt"
	"math"
	"sort"

	"tsq/internal/heapfile"
	"tsq/internal/minheap"
	"tsq/internal/obs"
	"tsq/internal/rtree"
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

// sortNN puts nearest-neighbor answers in rank order.
func sortNN(ms []NNMatch) {
	sort.Slice(ms, func(i, j int) bool { return lessNN(ms[i], ms[j]) })
}

// SeqScanNN returns the k records whose best transformed distance
// min_{t in ts} D(t(r), t(q)) (or D(t(r), q) when oneSided) is smallest,
// in rank order, by exhaustive scan. When ctx carries a span, a KindScan
// child records the records scanned and comparisons made.
func SeqScanNN(ctx context.Context, src RecordSource, q *Record, ts []transform.Transform, k int, oneSided bool) ([]NNMatch, QueryStats, error) {
	var sp *obs.Span
	if parent := obs.SpanFromContext(ctx); parent != nil {
		sp = parent.Child(obs.KindScan, fmt.Sprintf("nn seq scan (k=%d, %d records)", k, src.Len()))
	}
	var st QueryStats
	best := make([]NNMatch, 0, src.Len())
	err := src.visit(ctx, 0, src.Len(), new(scanBuf), func(r *Record) error {
		if r.ID == q.ID {
			return nil
		}
		st.Candidates++
		m := NNMatch{RecordID: r.ID, Distance: math.Inf(1)}
		for i, t := range ts {
			// Abandon against the running minimum: an abandoned
			// evaluation proves d > m.Distance, which cannot update it.
			if d, _ := st.evaluate(t, r, q, m.Distance, oneSided); d < m.Distance {
				m.Distance, m.TransformIdx = d, i
			}
		}
		best = append(best, m)
		return nil
	})
	sortNN(best)
	if k < len(best) {
		best = best[:max(k, 0)]
	}
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

// nnCand is a leaf entry the NN search has not dismissed yet: its
// position in the leaf, and tombstoned once the batched fetch finds the
// record deleted on disk.
type nnCand struct {
	entry      int
	rec        int64
	tombstoned bool
}

// MTIndexNN answers the transformed nearest-neighbor query (Sec. 4.1's
// sketch) with a best-first traversal. Subtrees are ordered and pruned by
// the DFT-prefix lower bound of the range pipeline in its rectangle form
// (lbCascade.rectLB: per transformation, the squared distances from the
// transformed query coefficients to the entry's annular sectors, summed),
// leaf entries, which are points, by its point form, both against the
// k-th best distance so far; what they let through is resolved exactly by
// the pair kernel, every evaluation abandoning at that same distance. All
// three dismiss only on d > k-th best, strictly and with the cutoff's
// slack, so ties at the k boundary are computed and ranked. Results are
// exact and in rank order (lessNN). Of opts only OneSided and the shard
// tag apply.
//
// The statistics follow the range pipeline's: SkippedLB (and its tiers)
// counts leaf entries the prefix bound dismissed, Candidates the records
// resolved, Abandoned the evaluations cut short. LBTimeNs stays zero: the
// bound meets one entry at a time between queue operations, and a clock
// read per entry would cost more than the bound.
//
// When ctx holds a parent span the traversal is recorded as one KindProbe
// span (node visits, subtrees pruned by the bound, prefix-bound dismissals,
// candidates resolved, evaluations abandoned, page I/O), tagged with
// AShard when opts.ShardTotal > 1 so scatter-gather traces roll up per
// shard. A nil ctx takes the untraced path.
func (ix *Index) MTIndexNN(ctx context.Context, q *Record, ts []transform.Transform, k int, opts RangeOptions) (_ []NNMatch, _ QueryStats, retErr error) {
	oneSided := opts.OneSided
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
		if opts.ShardTotal > 1 {
			sp.Set(obs.AShard, int64(opts.ShardID))
		}
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
	st.IndexSearches++

	// results holds the k best so far in rank order and worst the k-th
	// best distance, +Inf until there are k. Nothing is dismissed before
	// then: every bound and every kernel cutoff below compares against
	// worst. The cascade's cutoff follows worst down.
	var results []NNMatch
	worst := math.Inf(1)
	sc := ix.acquireScratch()
	defer ix.releaseScratch(sc)
	casc := &sc.casc
	grp, _ := newGroup(ix, ts, nil, oneSided, false, sc) // nil indices: no error
	casc.init(ix.opts.K, &grp, q, worst)
	// dismissed holds entry i of leaf, a point, the record's feature
	// vector, to the prefix bound at the cutoff in force.
	dismissed := func(leaf *rtree.PointLeaf, i int) bool {
		tier := casc.skip(leaf.Point(i))
		if tier < 0 {
			return false
		}
		st.skippedAt(tier)
		if ix.nnDismissed != nil {
			ix.nnDismissed(leaf.Rec(i), worst)
		}
		return true
	}
	// Best-first: each node is consumed (children pushed, leaf entries
	// resolved) before the next is loaded, so one slot serves the whole
	// search: internal nodes are decoded into it, leaves read in place
	// (rtree.LoadView).
	slots := ix.tree.AcquireSlots()
	defer slots.Release()
	pair := &sc.pair
	pair.Init(ts, oneSided)
	// spectrum is where the slab keeps the i-th leaf candidate's record.
	spectrum := func(i int) (mags, phases []float64) {
		n := ix.n
		return sc.slab[2*i*n : (2*i+1)*n], sc.slab[(2*i+1)*n : (2*i+2)*n]
	}
	var h minheap.Heap[storage.PageID]
	h.Push(0, ix.tree.Root())
	for h.Len() > 0 {
		bound, page := h.Pop()
		if bound > casc.cut {
			break
		}
		n, leaf, err := ix.tree.LoadView(ctx, page, slots.At(0))
		if err != nil {
			return nil, st, err
		}
		st.DAAll++
		if leaf == nil {
			for _, ent := range n.Entries {
				lb := casc.rectLB(ent.Rect.Lo, ent.Rect.Hi, -1)
				if lb > casc.cut {
					prunedLB++
					continue
				}
				h.Push(lb, ent.Child)
			}
			continue
		}
		st.DALeaf++
		// Collect the leaf's surviving entries, fetch their records in
		// one page-ordered batch, then verify in entry order. The prefix
		// bound meets every entry here, before anything is fetched, and
		// again before the entry is verified if worst has tightened in
		// between, so the candidates verified — and every statistic
		// derived from them — are the same with and without a heap file,
		// and batching can only prefetch a page for an entry the
		// tightening bound later rejects. That is also why, unlike a range
		// probe, the records cannot be verified as their pages stream by:
		// which of them are verified at all depends on the order. The
		// fetch copies each spectrum out of the decode slot into the
		// leaf's slab instead. The leaf itself stays in its slot until the
		// next load, so the second test reads the entry's point again.
		leafCands := sc.leaf[:0]
		for i := 0; i < leaf.Len(); i++ {
			if !dismissed(leaf, i) {
				leafCands = append(leafCands, nnCand{entry: i, rec: leaf.Rec(i)})
			}
		}
		armed := casc.cut
		sc.leaf = leafCands
		if ix.heap != nil {
			sc.ids = sc.ids[:0]
			for _, c := range leafCands {
				sc.ids = append(sc.ids, c.rec)
			}
			if need := 2 * len(leafCands) * ix.n; cap(sc.slab) < need {
				sc.slab = make([]float64, need)
			}
			err := ix.heap.Visit(ctx, sc.ids, &sc.fetch, func(i int, v *heapfile.View) error {
				if v == nil {
					leafCands[i].tombstoned = true
					return nil
				}
				mags, phases := spectrum(i)
				copy(mags, v.Mags)
				copy(phases, v.Phases)
				return nil
			})
			if err != nil {
				return nil, st, err
			}
		}
		for ci, c := range leafCands {
			if c.tombstoned || c.rec == q.ID {
				continue
			}
			if casc.cut < armed && dismissed(leaf, c.entry) {
				continue // the bound tightened since the batch was formed
			}
			var r *Record
			if ix.heap != nil {
				mags, phases := spectrum(ci)
				r = &Record{ID: c.rec, Mags: mags, Phases: phases}
			} else if r = ix.ds.Record(c.rec); r == nil {
				continue // deleted: a leaf entry never names one
			}
			st.Candidates++
			pair.Set(r.Mags, r.Phases, q.Mags, q.Phases)
			d, ti, ok := bestWithin(pair, len(ts), worst, &st)
			if !ok {
				continue
			}
			m := NNMatch{RecordID: r.ID, TransformIdx: ti, Distance: d}
			results = insertTopK(results, m, k, lessNN)
			if len(results) == k {
				worst = results[k-1].Distance
				casc.rearm(worst)
			}
		}
	}
	nMatches = len(results)
	return results, st, nil
}
