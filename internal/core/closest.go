package core

import (
	"math"
	"sort"

	"tsq/internal/geom"
	"tsq/internal/minheap"
	"tsq/internal/rtree"
	"tsq/internal/storage"
	"tsq/internal/transform"
)

// This file implements the top-k closest-pairs query under a
// transformation set — the incremental flavour of Query 2 ("the k most
// correlated pairs of stocks under some moving average") — with a
// best-first synchronized traversal in the style of Hjaltason and Samet,
// pruned by a provable lower bound on transformed pair distances.

// lessPair is the rank order of closest-pairs answers: distance, then the
// pair's ids. The scan, the index search's top-k insertion and test
// oracles all rank by it, so equal distances at the k boundary resolve
// the same way on every path.
func lessPair(a, b JoinMatch) bool {
	if a.Distance != b.Distance {
		return a.Distance < b.Distance
	}
	if a.IDA != b.IDA {
		return a.IDA < b.IDA
	}
	return a.IDB < b.IDB
}

// SeqScanClosestPairs returns the k pairs with the smallest best
// transformed distance min_t D(t(a), t(b)), in rank order, by exhaustive
// scan. It holds every live record's spectrum for the length of the call.
func SeqScanClosestPairs(src RecordSource, ts []transform.Transform, k int) ([]JoinMatch, QueryStats, error) {
	var st QueryStats
	var all []JoinMatch
	recs, err := liveSpectra(src)
	if err != nil {
		return nil, st, err
	}
	for i, a := range recs {
		for _, b := range recs[i+1:] {
			st.Candidates++
			best := JoinMatch{IDA: a.ID, IDB: b.ID, Distance: math.Inf(1)}
			for ti, t := range ts {
				if d, _ := st.evaluate(t, a, b, math.Inf(1), false); d < best.Distance {
					best.Distance, best.TransformIdx = d, ti
				}
			}
			all = append(all, best)
		}
	}
	sort.Slice(all, func(i, j int) bool { return lessPair(all[i], all[j]) })
	if k < len(all) {
		all = all[:max(k, 0)]
	}
	return all, st, nil
}

// shardPairItem is a priority-queue element: a pair of subtrees, each
// side tagged with its shard, or a resolved pair of global record ids. Its
// key in the queue is a lower bound of the transformed distance.
type shardPairItem struct {
	sa, sb   int
	a, b     storage.PageID
	resolved bool
	ra, rb   int64
}

// MTIndexClosestPairs returns the k closest pairs under the
// transformation set, in rank order (lessPair), with one best-first
// search over all shards: the priority queue is seeded with every shard
// root pair (a <= b) — the single root paired with itself at one shard —
// and subtree pairs, same-shard or cross-shard, are expanded in order of
// a lower bound built from the transformed magnitude intervals (phases
// carry no valid lower bound and are excluded). A resolved pair is
// verified by bestWithin: the pair kernel, every evaluation abandoning at
// the smaller of the pair's running minimum and the k-th best distance so
// far — above it, strictly, so ties at the k boundary are computed and
// ranked — and Abandoned counts the evaluations cut short. The search is
// exact and stops as soon as k pairs beat every remaining bound.
func (s *Sharded) MTIndexClosestPairs(ts []transform.Transform, k int) ([]JoinMatch, QueryStats, error) {
	var st QueryStats
	if k <= 0 || len(ts) == 0 {
		return nil, st, nil
	}
	ix0 := s.shards[0]
	opts := ix0.Options()
	mult, add := ix0.fullMBRs(ts, nil)
	symFactor := math.Sqrt(ix0.symmetry(ts, false))
	// A magnitude gap bounds a distance only where no map changes a
	// magnitude's sign (intervalSafe, as for the join's gap test).
	var bounded []int
	for j := 1; j <= opts.K; j++ {
		if intervalSafe(ts, j, false) {
			bounded = append(bounded, j)
		}
	}
	lowerBound := func(ya, yb geom.Rect) float64 {
		var ss float64
		for _, j := range bounded {
			gap := intervalGap(ya.Lo[2*j], ya.Hi[2*j], yb.Lo[2*j], yb.Hi[2*j])
			ss += gap * gap
		}
		return symFactor * math.Sqrt(ss)
	}

	var results []JoinMatch
	worst := math.Inf(1)
	seen := make(map[[2]int64]bool)
	h := &minheap.Heap[shardPairItem]{}
	for sa := range s.shards {
		for sb := sa; sb < len(s.shards); sb++ {
			st.IndexSearches++
			h.Push(0, shardPairItem{sa: sa, sb: sb, a: s.shards[sa].tree.Root(), b: s.shards[sb].tree.Root()})
		}
	}
	sc := ix0.acquireScratch()
	defer ix0.releaseScratch(sc)
	pair := &sc.pair
	pair.Init(ts, false)
	type cacheKey struct {
		shard int
		page  storage.PageID
	}
	loaded := make(map[cacheKey]*nodeCache)
	// One decode slot per shard tree: a loaded node is copied into its
	// nodeCache at once.
	slots := make([]*rtree.Slots, len(s.shards))
	for sh, ix := range s.shards {
		slots[sh] = ix.tree.AcquireSlots()
		defer slots[sh].Release()
	}
	// load caches a shard node with its entry rectangles transformed
	// and its record ids already translated to global, so expansion and
	// dedup work in the global id space throughout.
	load := func(sh int, id storage.PageID) (*nodeCache, error) {
		key := cacheKey{sh, id}
		if n, ok := loaded[key]; ok {
			return n, nil
		}
		n, err := s.shards[sh].tree.LoadInto(nil, id, slots[sh].At(0))
		if err != nil {
			return nil, s.shardErr(sh, err)
		}
		st.DAAll++
		if n.Leaf {
			st.DALeaf++
		}
		nc := &nodeCache{leaf: n.Leaf, rects: make([]geom.Rect, len(n.Entries)), children: make([]storage.PageID, len(n.Entries)), recs: make([]int64, len(n.Entries))}
		for i, e := range n.Entries {
			nc.rects[i] = transform.ApplyMBRs(mult, add, e.Rect)
			nc.children[i] = e.Child
			if n.Leaf {
				nc.recs[i] = s.globalID(sh, e.Rec)
			}
		}
		loaded[key] = nc
		return nc, nil
	}

	for h.Len() > 0 {
		bound, it := h.Pop()
		if bound > worst { // worst is +Inf until k pairs are in
			break
		}
		if it.resolved {
			key := [2]int64{it.ra, it.rb}
			if seen[key] {
				continue
			}
			seen[key] = true
			a, err := s.Record(it.ra)
			if err != nil {
				return nil, st, err
			}
			b, err := s.Record(it.rb)
			if err != nil {
				return nil, st, err
			}
			if a == nil || b == nil {
				continue
			}
			st.Candidates++
			pair.Set(a.Mags, a.Phases, b.Mags, b.Phases)
			d, ti, ok := bestWithin(pair, len(ts), worst, &st)
			if !ok {
				continue
			}
			best := JoinMatch{IDA: it.ra, IDB: it.rb, TransformIdx: ti, Distance: d}
			results = insertTopK(results, best, k, lessPair)
			if len(results) == k {
				worst = results[k-1].Distance
			}
			continue
		}
		na, err := load(it.sa, it.a)
		if err != nil {
			return nil, st, err
		}
		nb, err := load(it.sb, it.b)
		if err != nil {
			return nil, st, err
		}
		expandShardPair(h, it, na, nb, lowerBound, worst)
	}
	return results, st, nil
}

// nodeCache holds a node's transformed rectangles for repeated pair use.
type nodeCache struct {
	leaf     bool
	rects    []geom.Rect
	children []storage.PageID
	recs     []int64
}

// expandShardPair pushes the children pairs of (na, nb), each side
// tagged with its shard. Mixed depths (one leaf, one internal) expand
// only the internal side, bounding against the whole leaf node, so no
// pair is enqueued twice. The self-pair bookkeeping applies only when
// both sides are the same node of the same shard; record ids are already
// global (see load above), so the dedup ordering is global.
func expandShardPair(h *minheap.Heap[shardPairItem], it shardPairItem, na, nb *nodeCache, lowerBound func(a, b geom.Rect) float64, worst float64) {
	if len(na.rects) == 0 || len(nb.rects) == 0 {
		return // an empty shard pairs with nothing
	}
	push := func(lb float64, item shardPairItem) {
		if lb > worst {
			return
		}
		h.Push(lb, item)
	}
	same := it.sa == it.sb && it.a == it.b
	switch {
	case na.leaf && nb.leaf:
		for i := range na.rects {
			jStart := 0
			if same {
				jStart = i + 1
			}
			for j := jStart; j < len(nb.rects); j++ {
				ra, rb := na.recs[i], nb.recs[j]
				if ra == rb {
					continue
				}
				if ra > rb {
					ra, rb = rb, ra
				}
				push(lowerBound(na.rects[i], nb.rects[j]), shardPairItem{resolved: true, ra: ra, rb: rb})
			}
		}
	case !na.leaf && !nb.leaf:
		for i := range na.rects {
			jStart := 0
			if same {
				jStart = i // (i, i): pairs within one subtree
			}
			for j := jStart; j < len(nb.rects); j++ {
				push(lowerBound(na.rects[i], nb.rects[j]),
					shardPairItem{sa: it.sa, sb: it.sb, a: na.children[i], b: nb.children[j]})
			}
		}
	case na.leaf: // nb internal
		aMBR := geom.MBRRects(na.rects)
		for j := range nb.rects {
			push(lowerBound(aMBR, nb.rects[j]), shardPairItem{sa: it.sa, sb: it.sb, a: it.a, b: nb.children[j]})
		}
	default: // na internal, nb leaf
		bMBR := geom.MBRRects(nb.rects)
		for i := range na.rects {
			push(lowerBound(na.rects[i], bMBR), shardPairItem{sa: it.sa, sb: it.sb, a: na.children[i], b: it.b})
		}
	}
}
