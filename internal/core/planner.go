package core

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"tsq/internal/obs"
	"tsq/internal/storage"
	"tsq/internal/transform"
)

// This file implements a small cost-based planner on top of the Eq. 18/20
// model: given a query and a transformation set, it estimates the cost of
// the sequential scan, the ST-index plan, and MT-index plans with a few
// candidate packings (one rectangle, fixed-size rectangles, cluster-aware
// rectangles), running each plan's filter stage for the disk-access and
// candidate terms, and picks the cheapest.

// PlanKind identifies a plan family.
type PlanKind int

const (
	// PlanSeqScan scans the relation.
	PlanSeqScan PlanKind = iota
	// PlanSTIndex probes the index once per transformation.
	PlanSTIndex
	// PlanMTIndex probes the index once per transformation rectangle.
	PlanMTIndex
)

// String names the plan family.
func (k PlanKind) String() string {
	switch k {
	case PlanSeqScan:
		return "seqscan"
	case PlanSTIndex:
		return "st-index"
	case PlanMTIndex:
		return "mt-index"
	default:
		return fmt.Sprintf("PlanKind(%d)", int(k))
	}
}

// Plan is a planner decision.
type Plan struct {
	Kind PlanKind
	// Groups is the transformation packing for PlanMTIndex (nil for a
	// single rectangle).
	Groups [][]int
	// Cost is the estimated Eq. 18/20 cost of the chosen plan.
	Cost float64
	// Considered lists every estimated alternative, cheapest first.
	Considered []PlanCost
}

// PlanCost is one estimated alternative.
type PlanCost struct {
	Description string
	Cost        float64
	Kind        PlanKind
	// Groups is the packing of a PlanMTIndex alternative. DAAll and
	// Candidates are what its probes measured, summed over the
	// rectangles: the node reads and record fetches an execution of it
	// under the same options reports in QueryStats.
	Groups     [][]int
	DAAll      int
	Candidates int
}

// String renders the plan and its alternatives.
func (p *Plan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chosen: %s (cost %.0f)", p.Kind, p.Cost)
	if p.Kind == PlanMTIndex && p.Groups != nil {
		fmt.Fprintf(&b, " with %d rectangles", len(p.Groups))
	}
	for _, alt := range p.Considered {
		fmt.Fprintf(&b, "\n  %-24s %12.0f", alt.Description, alt.Cost)
	}
	return b.String()
}

// PlanRange estimates the alternatives for a range query and returns the
// cheapest. Probing costs a handful of filter stages, each exactly the one
// the executor would run under opts (same rectangles, same lower bound on
// nodes and leaf entries, none under NaiveVerify), so a plan is priced
// with the node reads and the record fetches it would really make; a
// plan is worth it when the same transformation set is queried repeatedly
// or the relation is large. When ctx carries a span, the probing
// traversals are recorded as one KindPlan span (node visits and page I/O
// attributed), so an EXPLAIN ANALYZE of an Auto query accounts for the
// planner's own disk accesses too.
func (ix *Index) PlanRange(ctx context.Context, q *Record, ts []transform.Transform, eps float64, opts RangeOptions, params CostParams) (_ *Plan, retErr error) {
	nT := len(ts)
	nS := ix.Len()
	if nT == 0 {
		return &Plan{Kind: PlanSeqScan}, nil
	}

	parent := obs.SpanFromContext(ctx)
	var psp *obs.Span
	var pst QueryStats
	if parent != nil {
		psp = parent.Child(obs.KindPlan, "plan")
		qio := &storage.QueryIO{}
		ctx = storage.WithQueryIO(ctx, qio)
		defer func() {
			psp.Set(obs.ANodes, int64(pst.DAAll))
			psp.Set(obs.ALeaves, int64(pst.DALeaf))
			psp.Set(obs.APagesRead, qio.Reads.Load())
			psp.Set(obs.ABufferHits, qio.Hits.Load())
			psp.EndErr(retErr)
		}()
	}

	var alts []PlanCost

	// Sequential scan: one retrieval per record plus |S|*|T| comparisons
	// (log |T| when the set is orderable).
	cmpPerRecord := float64(nT)
	if _, ok := transform.OrderableAsScales(ts); ok {
		cmpPerRecord = log2ceil(nT)
	}
	seqCost := params.CDA*float64(nS) + params.Ccmp*float64(nS)*cmpPerRecord
	alts = append(alts, PlanCost{Description: "seqscan", Cost: seqCost, Kind: PlanSeqScan})

	// probe runs one rectangle's filter stage: the nodes it reads and the
	// survivors verification would fetch.
	probe := func(sub []transform.Transform) (daAll int, candidates int, err error) {
		var st QueryStats
		sc := ix.acquireScratch()
		defer ix.releaseScratch(sc)
		stg := ix.newStage(sc, q, sub, eps, opts)
		cands, err := ix.filter(ctx, sc, &stg, &st, nil)
		if err != nil {
			return 0, 0, err
		}
		pst.Add(st)
		return st.DAAll, len(cands), nil
	}

	// ST-index: sample three singleton probes and extrapolate.
	samples := []int{0, nT / 2, nT - 1}
	var stDA, stCand float64
	seen := map[int]bool{}
	count := 0
	for _, i := range samples {
		if seen[i] {
			continue
		}
		seen[i] = true
		da, cand, err := probe(ts[i : i+1])
		if err != nil {
			return nil, err
		}
		stDA += float64(da)
		stCand += float64(cand)
		count++
	}
	stDA /= float64(count)
	stCand /= float64(count)
	stCost := float64(nT) * (params.CDA*(stDA+stCand) + params.Ccmp*stCand)
	alts = append(alts, PlanCost{Description: fmt.Sprintf("st-index (%d probes)", nT), Cost: stCost, Kind: PlanSTIndex})

	// MT-index packings: one rectangle, 8 per rectangle, cluster-aware.
	type packing struct {
		desc   string
		groups [][]int
	}
	packings := []packing{{desc: "mt-index one rectangle", groups: [][]int{identityIndexes(nT)}}}
	if nT > 8 {
		packings = append(packings, packing{desc: "mt-index 8 per rectangle", groups: EqualPartition(nT, 8)})
	}
	if clustered := ix.ClusterThenEqualPartition(ts, 8, 0); len(clustered) > 1 && nT > 8 {
		packings = append(packings, packing{desc: fmt.Sprintf("mt-index clustered (%d rects)", len(clustered)), groups: clustered})
	}
	for _, p := range packings {
		alt := PlanCost{Description: p.desc, Kind: PlanMTIndex, Groups: p.groups}
		for _, g := range p.groups {
			sub := make([]transform.Transform, len(g))
			for i, idx := range g {
				sub[i] = ts[idx]
			}
			da, cand, err := probe(sub)
			if err != nil {
				return nil, err
			}
			alt.DAAll += da
			alt.Candidates += cand
			alt.Cost += params.CDA*float64(da+cand) + params.Ccmp*float64(cand)*float64(len(g))
		}
		alts = append(alts, alt)
	}

	sort.SliceStable(alts, func(i, j int) bool { return alts[i].Cost < alts[j].Cost })
	return &Plan{Kind: alts[0].Kind, Groups: alts[0].Groups, Cost: alts[0].Cost, Considered: alts}, nil
}

func log2ceil(n int) float64 {
	c := 0.0
	for v := 1; v < n; v <<= 1 {
		c++
	}
	if c == 0 {
		c = 1
	}
	return c
}
