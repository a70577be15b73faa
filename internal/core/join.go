package core

import (
	"fmt"
	"math"
	"sort"

	"tsq/internal/geom"
	"tsq/internal/rtree"
	"tsq/internal/storage"
	"tsq/internal/transform"
)

// JoinMatch is one answer of a transformed spatial join (Query 2): a pair
// of records and a transformation bringing them within the threshold.
// IDA < IDB always.
type JoinMatch struct {
	IDA, IDB     int64
	TransformIdx int
	Distance     float64
}

// SeqScanJoin answers Query 2 by evaluating the predicate on every pair of
// records and every transformation. It holds every live record's spectrum
// for the length of the call.
func SeqScanJoin(src RecordSource, ts []transform.Transform, eps float64) ([]JoinMatch, QueryStats, error) {
	var st QueryStats
	var out []JoinMatch
	recs, err := liveSpectra(src)
	if err != nil {
		return nil, st, err
	}
	for i, a := range recs {
		for _, b := range recs[i+1:] {
			st.Candidates++
			for ti, t := range ts {
				if d, _ := st.evaluate(t, a, b, math.Inf(1), false); d <= eps {
					out = append(out, JoinMatch{IDA: a.ID, IDB: b.ID, TransformIdx: ti, Distance: d})
				}
			}
		}
	}
	return out, st, nil
}

// STIndexJoin runs the index join once per transformation (singleton
// groups).
func (s *Sharded) STIndexJoin(ts []transform.Transform, eps float64, opts RangeOptions) ([]JoinMatch, QueryStats, error) {
	opts.Groups = SingletonGroups(len(ts))
	return s.MTIndexJoin(ts, eps, opts)
}

// MTIndexJoin answers Query 2 with a synchronized traversal in which the
// transformation rectangle is applied to both data rectangles before the
// overlap test (Sec. 4.1). Per transformation group, each shard's tree is
// joined with itself and every shard pair (a < b) with each other, all
// feeding one candidate-pair set that is verified exactly, against every
// transformation in the rectangle, in (IDA, IDB) order, by the pair
// kernel with eps as the abandoning cutoff (Abandoned counts the
// evaluations it cut short). One shard is the paper's self-join: the pair
// loop is empty.
func (s *Sharded) MTIndexJoin(ts []transform.Transform, eps float64, opts RangeOptions) ([]JoinMatch, QueryStats, error) {
	if len(ts) == 0 {
		return nil, QueryStats{}, nil
	}
	groups := opts.Groups
	if groups == nil {
		groups = [][]int{identityIndexes(len(ts))}
	}
	ix0 := s.shards[0]
	sc := ix0.acquireScratch()
	defer ix0.releaseScratch(sc)
	pair := &sc.pair
	var st QueryStats
	var out []JoinMatch
	for _, g := range groups {
		if len(g) == 0 {
			continue
		}
		sub := make([]transform.Transform, len(g))
		for i, idx := range g {
			if idx < 0 || idx >= len(ts) {
				return nil, st, fmt.Errorf("core: group index %d out of range", idx)
			}
			sub[i] = ts[idx]
		}
		// The lifted MBRs and gap bounds depend only on the transform
		// set and index options, which are identical across shards.
		mult, add := ix0.fullMBRs(sub, nil)
		bounds := ix0.joinBounds(sub, eps, opts.Mode)

		pairs := make(map[[2]int64]bool) // global id pairs, a < b
		for a, ixa := range s.shards {
			for b := a; b < len(s.shards); b++ {
				st.IndexSearches++
				err := crossJoinWalk(ixa, s.shards[b], mult, add, bounds, &st, func(ra, rb int64) {
					ga, gb := s.globalID(a, ra), s.globalID(b, rb)
					if ga > gb {
						ga, gb = gb, ga
					}
					pairs[[2]int64{ga, gb}] = true
				})
				if err != nil {
					if a == b {
						return nil, st, s.shardErr(a, err)
					}
					return nil, st, fmt.Errorf("shards %d x %d: %w", a, b, err)
				}
			}
		}

		// Verify each candidate pair, deterministically ordered.
		pair.Init(sub, false)
		keys := make([][2]int64, 0, len(pairs))
		for k := range pairs {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i][0] != keys[j][0] {
				return keys[i][0] < keys[j][0]
			}
			return keys[i][1] < keys[j][1]
		})
		for _, k := range keys {
			a, err := s.Record(k[0])
			if err != nil {
				return nil, st, err
			}
			b, err := s.Record(k[1])
			if err != nil {
				return nil, st, err
			}
			if a == nil || b == nil { // deleted
				continue
			}
			st.Candidates++
			pair.Set(a.Mags, a.Phases, b.Mags, b.Phases)
			for i := range sub {
				if d, _ := st.evaluatePair(pair, i, eps); d <= eps {
					out = append(out, JoinMatch{IDA: k[0], IDB: k[1], TransformIdx: g[i], Distance: d})
				}
			}
		}
	}
	return out, st, nil
}

// joinBounds holds the per-dimension gap limits used by the join filter:
// two transformed rectangles can contain a qualifying pair only if, in
// every dimension, the gap between their intervals is at most the bound.
type joinBounds struct {
	perDim []float64
	epsC   float64
}

// joinBounds computes per-dimension gap limits for the transformed join:
// mean/std unconstrained; magnitudes within epsC, eps scaled by the
// group's symmetry factor (the join is two-sided); phases within epsC
// (paper mode) or within the safe angular bound (resolved per node pair
// with the magnitude information available there, so here only the mode
// and epsC are recorded via sentinel values). The gap test compares
// signed magnitudes and unwrapped phases as the query box does, so a
// coefficient the box may not constrain (intervalSafe, two-sided) is left
// unbounded here too.
func (ix *Index) joinBounds(ts []transform.Transform, eps float64, mode QRectMode) joinBounds {
	epsC := epsScale(eps, ix.symmetry(ts, false))
	jb := joinBounds{perDim: make([]float64, ix.dim)}
	jb.perDim[0], jb.perDim[1] = math.Inf(1), math.Inf(1)
	for j := 1; j <= ix.opts.K; j++ {
		jb.perDim[2*j] = epsC
		switch {
		case !intervalSafe(ts, j, false):
			jb.perDim[2*j], jb.perDim[2*j+1] = math.Inf(1), math.Inf(1)
		case mode == QRectSafe:
			// Resolved per pair of rectangles in joinGapOK; the sentinel
			// NaN requests the magnitude-aware, wrap-aware bound.
			jb.perDim[2*j+1] = math.NaN()
		default:
			jb.perDim[2*j+1] = epsC
		}
	}
	jb.epsC = epsC
	return jb
}

// joinGapOK reports whether two transformed rectangles may contain a
// qualifying pair.
func (ix *Index) joinGapOK(a, b geom.Rect, jb joinBounds) bool {
	for d := 0; d < ix.dim; d++ {
		bound := jb.perDim[d]
		if math.IsInf(bound, 1) {
			continue
		}
		gap := intervalGap(a.Lo[d], a.Hi[d], b.Lo[d], b.Hi[d])
		if math.IsNaN(bound) {
			// Safe phase bound from the corresponding magnitude dimension
			// (d-1): both sides' transformed magnitudes are at least their
			// interval lows.
			magLo := math.Min(a.Lo[d-1], b.Lo[d-1])
			bound = phaseBound(jb.epsC, magLo)
			if bound >= math.Pi {
				continue
			}
			// A qualifying pair has angular difference <= bound, which in
			// the unwrapped linear values means a difference <= bound or
			// >= 2*pi - bound (branch-cut wrap). Prune only when no pair
			// of interval values can land in either region: the closest
			// pair is farther than bound AND the farthest pair is closer
			// than 2*pi - bound.
			maxDiff := math.Max(a.Hi[d]-b.Lo[d], b.Hi[d]-a.Lo[d])
			if gap > bound && maxDiff < 2*math.Pi-bound {
				return false
			}
			continue
		}
		if gap > bound {
			return false
		}
	}
	return true
}

func intervalGap(alo, ahi, blo, bhi float64) float64 {
	switch {
	case ahi < blo:
		return blo - ahi
	case bhi < alo:
		return alo - bhi
	default:
		return 0
	}
}

// crossJoinWalk synchronously traverses the trees of ixA and ixB — two
// shards, or one tree against itself — applying the transformation
// rectangle to both sides before the gap test, and emits every
// qualifying leaf pair as (record id in A, record id in B). A tree joined
// with itself emits each unordered pair of distinct records once.
func crossJoinWalk(ixA, ixB *Index, mult, add geom.Rect, jb joinBounds, st *QueryStats, emit func(ra, rb int64)) error {
	// Two sets of slots even when ixA == ixB: each depth holds a node of
	// either side.
	slotsA, slotsB := ixA.tree.AcquireSlots(), ixB.tree.AcquireSlots()
	defer slotsA.Release()
	defer slotsB.Release()
	return crossJoinNodes(ixA, ixB, slotsA, slotsB, 0, ixA.tree.Root(), ixB.tree.Root(), mult, add, jb, st, emit)
}

// crossJoinNodes joins the subtree at a of ixA with the subtree at b of
// ixB. Each recursion depth holds one node of either tree, in slot depth
// of that tree's slots, while it iterates them around the deeper calls. A
// node paired with itself is read once and joined above the diagonal.
func crossJoinNodes(ixA, ixB *Index, slotsA, slotsB *rtree.Slots, depth int, a, b storage.PageID, mult, add geom.Rect, jb joinBounds, st *QueryStats, emit func(ra, rb int64)) error {
	same := ixA == ixB && a == b
	na, err := ixA.tree.LoadInto(nil, a, slotsA.At(depth))
	if err != nil {
		return err
	}
	st.DAAll++
	if na.Leaf {
		st.DALeaf++
	}
	ta := ixA.transformEntries(na, mult, add)
	nb, tb := na, ta
	if !same {
		if nb, err = ixB.tree.LoadInto(nil, b, slotsB.At(depth)); err != nil {
			return err
		}
		st.DAAll++
		if nb.Leaf {
			st.DALeaf++
		}
		tb = ixB.transformEntries(nb, mult, add)
	}
	if len(na.Entries) == 0 || len(nb.Entries) == 0 {
		return nil // an empty shard joins nothing
	}
	switch {
	case na.Leaf && nb.Leaf:
		for i := range na.Entries {
			jStart := 0
			if same {
				jStart = i + 1
			}
			for j := jStart; j < len(nb.Entries); j++ {
				if ixA.joinGapOK(ta[i], tb[j], jb) {
					emit(na.Entries[i].Rec, nb.Entries[j].Rec)
				}
			}
		}
	case !na.Leaf && !nb.Leaf:
		for i := range na.Entries {
			jStart := 0
			if same {
				jStart = i // (i, i): pairs within one subtree
			}
			for j := jStart; j < len(nb.Entries); j++ {
				if ixA.joinGapOK(ta[i], tb[j], jb) {
					if err := crossJoinNodes(ixA, ixB, slotsA, slotsB, depth+1, na.Entries[i].Child, nb.Entries[j].Child, mult, add, jb, st, emit); err != nil {
						return err
					}
				}
			}
		}
	case na.Leaf: // internal b
		for j := range nb.Entries {
			if err := crossJoinNodes(ixA, ixB, slotsA, slotsB, depth+1, a, nb.Entries[j].Child, mult, add, jb, st, emit); err != nil {
				return err
			}
		}
	default: // internal a, leaf b
		for i := range na.Entries {
			if err := crossJoinNodes(ixA, ixB, slotsA, slotsB, depth+1, na.Entries[i].Child, b, mult, add, jb, st, emit); err != nil {
				return err
			}
		}
	}
	return nil
}

// transformEntries applies the transformation rectangle to every entry of
// a node.
func (ix *Index) transformEntries(n *rtree.Node, mult, add geom.Rect) []geom.Rect {
	out := make([]geom.Rect, len(n.Entries))
	for i, e := range n.Entries {
		out[i] = transform.ApplyMBRs(mult, add, e.Rect)
	}
	return out
}
