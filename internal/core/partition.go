package core

import (
	"fmt"
	"math"

	"tsq/internal/cluster"
	"tsq/internal/geom"
	"tsq/internal/rtree"
	"tsq/internal/transform"
)

// This file implements the Sec. 4.3 performance improvement: grouping the
// transformation set into several bounding rectangles, trading index
// traversals (first term of Eq. 20) against postprocessing comparisons
// (second term).

// CostParams are the constants of the paper's cost model. The paper's
// Sec. 5.2 experiment uses CDA = 1 and Ccmp = 0.4 (a sequence comparison
// costs 40% of a disk access).
type CostParams struct {
	// CDA is the cost of one disk access.
	CDA float64
	// Ccmp is the cost of one full-sequence comparison.
	Ccmp float64
	// CALeaf is the average capacity of a leaf node; when zero it is taken
	// from the index.
	CALeaf float64
}

// DefaultCostParams returns the constants used in the paper's Fig. 8/9.
func DefaultCostParams() CostParams {
	return CostParams{CDA: 1, Ccmp: 0.4}
}

// Cost evaluates Eq. 20 for one transformation rectangle from measured
// statistics: CDA*DA_all + CALeaf*Ccmp*DA_leaf*NT.
func (p CostParams) Cost(daAll, daLeaf, nt int, caLeaf float64) float64 {
	ca := p.CALeaf
	if ca == 0 {
		ca = caLeaf
	}
	return p.CDA*float64(daAll) + ca*p.Ccmp*float64(daLeaf)*float64(nt)
}

// CostOfStats evaluates Eq. 18 from a query's aggregate statistics, using
// the actual candidate count in place of the DA_leaf*CA_leaf estimate:
// CDA*DA_all + Ccmp*Comparisons.
func (p CostParams) CostOfStats(st QueryStats) float64 {
	return p.CDA*float64(st.DAAll) + p.Ccmp*float64(st.Comparisons)
}

// AvgLeafCapacity estimates CA_leaf for the index: records divided by the
// number of leaves (measured by one full traversal; not counted in query
// statistics).
func (ix *Index) AvgLeafCapacity() (float64, error) {
	leaves := 0
	err := ix.tree.Visit(func(n *rtree.Node, level int) error {
		if level == 1 {
			leaves++
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	if leaves == 0 {
		return 0, nil
	}
	return float64(ix.Len()) / float64(leaves), nil
}

// EqualPartition splits indices 0..n-1 into contiguous groups of size
// perGroup (the last group may be smaller) — the paper's Sec. 5.2
// "equally partitioned subsequent transformations".
func EqualPartition(n, perGroup int) [][]int {
	if perGroup < 1 {
		panic(fmt.Sprintf("core: perGroup %d < 1", perGroup))
	}
	var out [][]int
	for start := 0; start < n; start += perGroup {
		end := start + perGroup
		if end > n {
			end = n
		}
		g := make([]int, end-start)
		for i := range g {
			g[i] = start + i
		}
		out = append(out, g)
	}
	return out
}

// ClusterPartition groups transformations by CURE clustering of their
// parameter points over the index's transform-sensitive components (the
// Sec. 4.3/5.2 remedy for multi-cluster transformation sets: never pack
// two clusters into one rectangle). jumpFactor is the cluster.Detect
// merge-stop factor; <= 1 selects the default.
func (ix *Index) ClusterPartition(ts []transform.Transform, jumpFactor float64) [][]int {
	pts := make([]geom.Point, len(ts))
	for i, t := range ts {
		p := make(geom.Point, 0, 2*len(ix.comps))
		for _, c := range ix.comps {
			p = append(p, t.A[c], t.B[c])
		}
		pts[i] = p
	}
	return cluster.Detect(pts, jumpFactor, cluster.Options{})
}

// ClusterThenEqualPartition first separates the transformation set into
// clusters, then splits each cluster into contiguous groups of at most
// perGroup members. It combines the two Sec. 4.3 observations: rectangles
// should not span clusters, and within a cluster six-to-eight
// transformations per rectangle is the sweet spot.
func (ix *Index) ClusterThenEqualPartition(ts []transform.Transform, perGroup int, jumpFactor float64) [][]int {
	var out [][]int
	for _, c := range ix.ClusterPartition(ts, jumpFactor) {
		for start := 0; start < len(c); start += perGroup {
			end := start + perGroup
			if end > len(c) {
				end = len(c)
			}
			out = append(out, append([]int(nil), c[start:end]...))
		}
	}
	return out
}

// OptimalPartition chooses a contiguous partition of the transformation
// set minimizing the Eq. 20 cost, estimated by probing the index with a
// filter-only traversal for every candidate segment (O(|T|^2) probes, each
// a search without verification). The probe accesses are not charged to
// any query statistics; this is an offline optimizer. It returns the
// partition and its estimated cost.
func (ix *Index) OptimalPartition(q *Record, ts []transform.Transform, eps float64, mode QRectMode, params CostParams) ([][]int, float64, error) {
	n := len(ts)
	if n == 0 {
		return nil, 0, nil
	}
	caLeaf, err := ix.AvgLeafCapacity()
	if err != nil {
		return nil, 0, err
	}
	sc := ix.acquireScratch()
	defer ix.releaseScratch(sc)
	// segCost[i][j] = cost of one rectangle covering ts[i..j].
	segCost := make([][]float64, n)
	for i := 0; i < n; i++ {
		segCost[i] = make([]float64, n)
		for j := i; j < n; j++ {
			sub := ts[i : j+1]
			stg := ix.newStage(sc, q, sub, eps, RangeOptions{Mode: mode, NaiveVerify: true}) // no bound
			var probe QueryStats
			if _, err := ix.filter(nil, sc, &stg, &probe, nil); err != nil {
				return nil, 0, err
			}
			segCost[i][j] = params.Cost(probe.DAAll, probe.DALeaf, len(sub), caLeaf)
		}
	}
	// DP over split points: best[j] = min cost covering ts[0..j].
	best := make([]float64, n)
	prev := make([]int, n)
	for j := 0; j < n; j++ {
		best[j] = math.Inf(1)
		for i := 0; i <= j; i++ {
			c := segCost[i][j]
			if i > 0 {
				c += best[i-1]
			}
			if c < best[j] {
				best[j] = c
				prev[j] = i
			}
		}
	}
	var groups [][]int
	for j := n - 1; j >= 0; {
		i := prev[j]
		g := make([]int, j-i+1)
		for k := range g {
			g[k] = i + k
		}
		groups = append([][]int{g}, groups...)
		j = i - 1
	}
	return groups, best[n-1], nil
}
