package core

import (
	"container/heap"
	"math"
	"sort"

	"tsq/internal/geom"
	"tsq/internal/storage"
	"tsq/internal/transform"
)

// This file implements the top-k closest-pairs query under a
// transformation set — the incremental flavour of Query 2 ("the k most
// correlated pairs of stocks under some moving average") — with a
// best-first synchronized traversal in the style of Hjaltason and Samet,
// pruned by a provable lower bound on transformed pair distances.

// pairItem is a priority-queue element: a pair of subtrees (or a resolved
// record pair) ordered by a lower bound of the transformed distance.
type pairItem struct {
	bound    float64
	a, b     storage.PageID
	resolved bool
	ra, rb   int64
}

type pairHeap []pairItem

func (h pairHeap) Len() int            { return len(h) }
func (h pairHeap) Less(i, j int) bool  { return h[i].bound < h[j].bound }
func (h pairHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *pairHeap) Push(x interface{}) { *h = append(*h, x.(pairItem)) }
func (h *pairHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// SeqScanClosestPairs returns the k pairs with the smallest best
// transformed distance min_t D(t(a), t(b)), by exhaustive scan.
func SeqScanClosestPairs(ds *Dataset, ts []transform.Transform, k int) ([]JoinMatch, QueryStats) {
	var st QueryStats
	var all []JoinMatch
	for i := 0; i < len(ds.Records); i++ {
		for j := i + 1; j < len(ds.Records); j++ {
			a, b := ds.Records[i], ds.Records[j]
			if a == nil || b == nil {
				continue
			}
			st.Candidates++
			best := JoinMatch{IDA: a.ID, IDB: b.ID, Distance: math.Inf(1)}
			for ti, t := range ts {
				st.Comparisons++
				if d := t.DistancePolar(a.Mags, a.Phases, b.Mags, b.Phases); d < best.Distance {
					best.Distance, best.TransformIdx = d, ti
				}
			}
			all = append(all, best)
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Distance < all[j].Distance })
	if k < len(all) {
		all = all[:k]
	}
	return all, st
}

// MTIndexClosestPairs returns the k closest pairs under the
// transformation set through the index: subtree pairs are expanded in
// order of a lower bound built from the transformed magnitude intervals
// (phases carry no valid lower bound and are excluded), so the search is
// exact and stops as soon as k pairs beat every remaining bound.
func (ix *Index) MTIndexClosestPairs(ts []transform.Transform, k int) ([]JoinMatch, QueryStats, error) {
	var st QueryStats
	if k <= 0 || len(ts) == 0 {
		return nil, st, nil
	}
	mult, add := ix.fullMBRs(ts)
	st.IndexSearches++
	symFactor := 1.0
	if ix.opts.UseSymmetry {
		symFactor = math.Sqrt2
	}
	lowerBound := func(ya, yb geom.Rect) float64 {
		var ss float64
		for j := 1; j <= ix.opts.K; j++ {
			gap := intervalGap(ya.Lo[2*j], ya.Hi[2*j], yb.Lo[2*j], yb.Hi[2*j])
			ss += gap * gap
		}
		return symFactor * math.Sqrt(ss)
	}

	var results []JoinMatch
	worst := math.Inf(1)
	seen := make(map[[2]int64]bool)
	h := &pairHeap{{bound: 0, a: ix.tree.Root(), b: ix.tree.Root()}}
	loaded := make(map[storage.PageID]*nodeCache)
	// A loaded node is copied into its nodeCache at once, so one decode
	// slot serves the whole search.
	slots := ix.tree.AcquireSlots()
	defer slots.Release()
	load := func(id storage.PageID) (*nodeCache, error) {
		if n, ok := loaded[id]; ok {
			return n, nil
		}
		n, err := ix.tree.LoadInto(nil, id, slots.At(0))
		if err != nil {
			return nil, err
		}
		st.DAAll++
		if n.Leaf {
			st.DALeaf++
		}
		nc := &nodeCache{leaf: n.Leaf, rects: make([]geom.Rect, len(n.Entries)), children: make([]storage.PageID, len(n.Entries)), recs: make([]int64, len(n.Entries))}
		for i, e := range n.Entries {
			nc.rects[i] = transform.ApplyMBRs(mult, add, e.Rect)
			nc.children[i] = e.Child
			nc.recs[i] = e.Rec
		}
		loaded[id] = nc
		return nc, nil
	}

	for h.Len() > 0 {
		it := heap.Pop(h).(pairItem)
		if len(results) == k && it.bound > worst {
			break
		}
		if it.resolved {
			key := [2]int64{it.ra, it.rb}
			if seen[key] {
				continue
			}
			seen[key] = true
			a, err := ix.fetch(it.ra)
			if err != nil {
				return nil, st, err
			}
			b, err := ix.fetch(it.rb)
			if err != nil {
				return nil, st, err
			}
			if a == nil || b == nil {
				continue
			}
			st.Candidates++
			best := JoinMatch{IDA: it.ra, IDB: it.rb, Distance: math.Inf(1)}
			for ti, t := range ts {
				st.Comparisons++
				if d := t.DistancePolar(a.Mags, a.Phases, b.Mags, b.Phases); d < best.Distance {
					best.Distance, best.TransformIdx = d, ti
				}
			}
			results = insertTopK(results, best, k, func(x, y JoinMatch) bool { return x.Distance < y.Distance })
			if len(results) == k {
				worst = results[k-1].Distance
			}
			continue
		}
		na, err := load(it.a)
		if err != nil {
			return nil, st, err
		}
		nb, err := load(it.b)
		if err != nil {
			return nil, st, err
		}
		expandPair(h, it, na, nb, lowerBound, worst, len(results) == k)
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

// expandPair pushes the children pairs of (na, nb). Mixed depths (one
// leaf, one internal) expand only the internal side, bounding against the
// whole leaf node, so no pair is enqueued twice.
func expandPair(h *pairHeap, it pairItem, na, nb *nodeCache, lowerBound func(a, b geom.Rect) float64, worst float64, full bool) {
	push := func(lb float64, item pairItem) {
		if full && lb > worst {
			return
		}
		item.bound = lb
		heap.Push(h, item)
	}
	switch {
	case na.leaf && nb.leaf:
		same := it.a == it.b
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
				push(lowerBound(na.rects[i], nb.rects[j]), pairItem{resolved: true, ra: ra, rb: rb})
			}
		}
	case !na.leaf && !nb.leaf:
		same := it.a == it.b
		for i := range na.rects {
			jStart := 0
			if same {
				jStart = i // (i, i): pairs within one subtree
			}
			for j := jStart; j < len(nb.rects); j++ {
				push(lowerBound(na.rects[i], nb.rects[j]),
					pairItem{a: na.children[i], b: nb.children[j]})
			}
		}
	case na.leaf: // nb internal
		aMBR := geom.MBRRects(na.rects)
		for j := range nb.rects {
			push(lowerBound(aMBR, nb.rects[j]), pairItem{a: it.a, b: nb.children[j]})
		}
	default: // na internal, nb leaf
		bMBR := geom.MBRRects(nb.rects)
		for i := range na.rects {
			push(lowerBound(na.rects[i], bMBR), pairItem{a: na.children[i], b: it.b})
		}
	}
}
