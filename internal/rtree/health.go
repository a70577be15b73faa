package rtree

// OccupancyBuckets is the number of fill-fraction buckets in a level's
// occupancy histogram: bucket i counts nodes with fill in
// [i/10, (i+1)/10), the last bucket including exactly-full nodes.
const OccupancyBuckets = 10

// LevelHealth aggregates the quantities the R*-tree split heuristics
// optimize (Beckmann et al., SIGMOD '90 §4.1) over one tree level.
// Margin, overlap, and dead space are the criteria ChooseSubtree and
// the split algorithm minimize; reading them back per level shows how
// well the tree realized them — and hence predicts Fig. 5-style disk
// accesses, since every overlapping sibling rectangle is an extra
// subtree a range search must descend.
type LevelHealth struct {
	// Level counts from the root: 0 = root, Height-1 = leaves.
	Level int `json:"level"`
	// Nodes and Entries are the node and entry totals on this level.
	Nodes   int `json:"nodes"`
	Entries int `json:"entries"`
	// MinFill and MaxFill are (m, M) of this level's nodes: a leaf of
	// points holds more entries than a node of rectangles.
	MinFill int `json:"min_fill"`
	MaxFill int `json:"max_fill"`
	// Occupancy is a histogram of node fill fraction (entries / M) in
	// OccupancyBuckets equal buckets; underfilled nodes (legal only for
	// the root) land in the low buckets.
	Occupancy [OccupancyBuckets]int `json:"occupancy"`
	// AvgFill is Entries / (Nodes * MaxFill): the level's mean fill.
	AvgFill float64 `json:"avg_fill"`
	// MarginSum and AvgMargin total/average the node MBR margins
	// (perimeter sums) — the split-axis selection criterion.
	MarginSum float64 `json:"margin_sum"`
	AvgMargin float64 `json:"avg_margin"`
	// Overlap sums the pairwise overlap area between sibling entries
	// within each node — the split-distribution criterion. Zero means
	// a point query descends exactly one path through this level.
	Overlap float64 `json:"overlap"`
	// CoveredArea sums the node MBR areas; EntryArea sums the areas of
	// the entries inside them. CoveredArea - EntryArea is dead space:
	// volume a search must visit that can contain no answers.
	CoveredArea float64 `json:"covered_area"`
	EntryArea   float64 `json:"entry_area"`
	DeadSpace   float64 `json:"dead_space"`
	// ExtentShare is, per dimension, the mean side length of this level's
	// node MBRs as a share of the root MBR's (0 where the root has no
	// extent). A dimension a level's nodes span almost whole is one the
	// tree does not partition by: a query constrained only there reads
	// the entire level. Shares that differ widely between dimensions on
	// the leaf level mean the splits favoured some coordinates.
	ExtentShare []float64 `json:"extent_share"`
}

// TreeHealth is the read-only health report of a whole tree.
type TreeHealth struct {
	Dim    int   `json:"dim"`
	Height int   `json:"height"`
	Size   int64 `json:"size"` // record count (leaf entries)
	// PointLeaves reports leaves of points (meta "RST2") rather than of
	// rectangles ("RST1": older files and sub-trail trees).
	PointLeaves bool          `json:"point_leaves"`
	Nodes       int           `json:"nodes"`
	Entries     int           `json:"entries"`
	Levels      []LevelHealth `json:"levels"` // root first
}

// Health walks the tree read-only and computes per-level statistics.
// It costs one page read per node (buffered reads count as hits), so on
// a warm pool it is cheap enough to run on demand.
func (t *Tree) Health() (*TreeHealth, error) {
	h := &TreeHealth{
		Dim:         t.dim,
		Height:      t.height,
		Size:        t.size,
		PointLeaves: t.leafKind == kindPointLeaf,
		Levels:      make([]LevelHealth, t.height),
	}
	for i := range h.Levels {
		h.Levels[i].Level = i
		h.Levels[i].MinFill, h.Levels[i].MaxFill = t.Capacity(i == t.height-1)
		h.Levels[i].ExtentShare = make([]float64, t.dim)
	}
	rootExtent := make([]float64, t.dim) // the walk starts at the root
	err := t.Visit(func(n *Node, level int) error {
		// Visit levels count 1 = leaf upward; reports read root-down.
		lh := &h.Levels[t.height-level]
		lh.Nodes++
		lh.Entries += len(n.Entries)
		fill := float64(len(n.Entries)) / float64(lh.MaxFill)
		b := int(fill * OccupancyBuckets)
		if b >= OccupancyBuckets {
			b = OccupancyBuckets - 1
		}
		lh.Occupancy[b]++
		if len(n.Entries) == 0 {
			return nil // empty root
		}
		mbr := n.mbr()
		for d := range rootExtent {
			ext := mbr.Hi[d] - mbr.Lo[d]
			if n.ID == t.root {
				rootExtent[d] = ext
			}
			if rootExtent[d] > 0 {
				lh.ExtentShare[d] += ext / rootExtent[d]
			}
		}
		lh.MarginSum += mbr.Margin()
		lh.CoveredArea += mbr.Area()
		for i, e := range n.Entries {
			lh.EntryArea += e.Rect.Area()
			for j := i + 1; j < len(n.Entries); j++ {
				lh.Overlap += e.Rect.OverlapArea(n.Entries[j].Rect)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i := range h.Levels {
		lh := &h.Levels[i]
		h.Nodes += lh.Nodes
		h.Entries += lh.Entries
		if lh.Nodes > 0 {
			lh.AvgFill = float64(lh.Entries) / float64(lh.Nodes*lh.MaxFill)
			lh.AvgMargin = lh.MarginSum / float64(lh.Nodes)
			for d := range lh.ExtentShare {
				lh.ExtentShare[d] /= float64(lh.Nodes)
			}
		}
		if lh.DeadSpace = lh.CoveredArea - lh.EntryArea; lh.DeadSpace < 0 {
			// Overlapping entries can sum past the node MBR; dead space
			// is a lower-bound diagnostic, clamp at zero.
			lh.DeadSpace = 0
		}
	}
	return h, nil
}
