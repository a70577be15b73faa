package core

import (
	"math"
	"slices"

	"tsq/internal/geom"
	"tsq/internal/rtree"
)

// This file implements an analytical disk-access estimator of the
// Theodoridis-Sellis family that the paper's Sec. 4.3 discusses: the
// expected number of nodes a range query touches is modeled per level as
//
//	N_l * prod_d min(1, (s_{l,d} + q_d) / W_d)
//
// where N_l is the node count at level l, s_{l,d} the average node extent
// in dimension d, q_d the query extent, and W_d the data-space extent.
// The model uses only *extents* — it is blind to where the query and the
// node rectangles actually sit. That blindness is precisely the paper's
// point: with it, DA(q, r_i) is (nearly) independent of which
// transformations rectangle r_i holds, the first term of Eq. 20 grows
// linearly in the number of rectangles, and the model concludes a single
// rectangle is always best — which measurement refutes (Fig. 8). The
// estimator is kept here to reproduce that argument; the planner uses
// measured probes instead.

// LevelStats summarizes one tree level for the analytical model.
type LevelStats struct {
	Level   int // 1 = leaf
	Nodes   int
	AvgSide []float64 // average node-rectangle extent per dimension
}

// TreeStats collects per-level statistics and the data-space extent in
// one visit of every shard's tree, leaf-aligned: level 1 is the leaf
// level of each, node counts and extents sum per level, the averages are
// taken once at the end, and the world rectangle covers every node. The
// levels are listed root first.
func (s *Sharded) TreeStats() ([]LevelStats, geom.Rect, error) {
	dim := s.shards[0].dim
	var stats []LevelStats // stats[l-1] is level l
	var world geom.Rect
	for sh, ix := range s.shards {
		err := ix.tree.Visit(func(n *rtree.Node, level int) error {
			for len(stats) < level {
				stats = append(stats, LevelStats{Level: len(stats) + 1, AvgSide: make([]float64, dim)})
			}
			ls := &stats[level-1]
			ls.Nodes++
			if len(n.Entries) == 0 {
				return nil
			}
			rects := make([]geom.Rect, len(n.Entries))
			for i, e := range n.Entries {
				rects[i] = e.Rect
			}
			mbr := geom.MBRRects(rects)
			for d := 0; d < dim; d++ {
				ls.AvgSide[d] += mbr.Hi[d] - mbr.Lo[d]
			}
			if world.Lo == nil {
				world = mbr.Clone()
			} else {
				world = world.Union(mbr)
			}
			return nil
		})
		if err != nil {
			return nil, geom.Rect{}, s.shardErr(sh, err)
		}
	}
	for i := range stats {
		for d := range stats[i].AvgSide {
			stats[i].AvgSide[d] /= float64(stats[i].Nodes)
		}
	}
	slices.Reverse(stats)
	return stats, world, nil
}

// AnalyticalAccessEstimate returns the model's expected node accesses for
// a query rectangle. Only the query's per-dimension extents enter the
// formula; its position is deliberately ignored (see the file comment).
// Unbounded query dimensions count as covering the whole data space.
func (s *Sharded) AnalyticalAccessEstimate(qrect geom.Rect) (float64, error) {
	stats, world, err := s.TreeStats()
	if err != nil {
		return 0, err
	}
	total := float64(stats[0].Nodes) // the top level, the roots, is always read
	for li, ls := range stats {
		if li == 0 {
			continue // read above
		}
		p := 1.0
		for d := range world.Lo {
			w := world.Hi[d] - world.Lo[d]
			if w <= 0 {
				continue
			}
			qd := qrect.Hi[d] - qrect.Lo[d]
			if math.IsInf(qd, 1) || math.IsNaN(qd) {
				continue // unconstrained dimension: probability 1
			}
			p *= math.Min(1, (ls.AvgSide[d]+qd)/w)
		}
		total += float64(ls.Nodes) * p
	}
	return total, nil
}
