package core

import (
	"context"
	"fmt"
	"io"
	"strings"

	"tsq/internal/geom"
	"tsq/internal/heapfile"
	"tsq/internal/obs"
	"tsq/internal/rtree"
	"tsq/internal/storage"
	"tsq/internal/transform"
)

// GroupHealth describes one MT-index transformation group: its static
// geometry (how many transformations it covers and how large the lifted
// mult-/add-MBRs are — bigger rectangles inflate every query rectangle
// built from the group, Sec. 4.1) and the cumulative filter quality
// observed for it, folded in from traced queries (FoldTrace). A group
// whose FalsePositiveRate drifts up is over-wide: its transformations
// should be repartitioned.
type GroupHealth struct {
	Group int `json:"group"`
	// Size is the number of transformations the group's MBR covers.
	Size int `json:"size"`
	// MultVolume and AddVolume are the volumes of the lifted mult- and
	// add-MBRs over the transform-sensitive (DFT) dimensions; the mean
	// and std dimensions are transformation-invariant and excluded, as
	// are zero-extent dimensions (see dftVolume). 0 means the part is a
	// single point — e.g. AddVolume for a purely multiplicative family.
	MultVolume float64 `json:"mult_volume"`
	AddVolume  float64 `json:"add_volume"`
	// Cumulative per-group counters from traced queries.
	Probes         int64 `json:"probes"`
	Candidates     int64 `json:"candidates"`
	Matches        int64 `json:"matches"`
	FalsePositives int64 `json:"false_positives"`
	// FalsePositiveRate is FalsePositives / Candidates: the fraction of
	// records the group's rectangle admitted that verification rejected.
	FalsePositiveRate float64 `json:"false_positive_rate"`
}

// HealthReport aggregates everything the index health analyzer can see:
// the R*-tree's per-level structure, the heap file's space accounting,
// the storage manager's lifetime I/O counters, and per-transformation-
// group filter quality.
type HealthReport struct {
	Series       int               `json:"series"`
	SeriesLength int               `json:"series_length"`
	K            int               `json:"k"`
	Dim          int               `json:"dim"`
	PageSize     int               `json:"page_size"`
	Tree         *rtree.TreeHealth `json:"tree,omitempty"` // nil on a multi-shard rollup (see Shards)
	Heap         *heapfile.Health  `json:"heap,omitempty"` // nil when not paged
	Storage      storage.Stats     `json:"storage"`
	Groups       []GroupHealth     `json:"groups,omitempty"`

	// ShardCount and Shards carry the per-shard breakdown of a sharded
	// DB: the top-level report then holds the combined rollup (summed
	// storage counters, shard-independent group geometry) and one full
	// report per shard. Both are zero/empty for a single-shard report,
	// whose JSON is unchanged.
	ShardCount int             `json:"shard_count,omitempty"`
	Shards     []*HealthReport `json:"shards,omitempty"`
}

// Health walks every shard read-only and reports its structural health:
// per tree, one page read per node and, when paged, one per heap page.
// ts/groups describe the MT-index transformation partition to profile
// (both may be nil to skip the group section; groups nil with ts non-nil
// profiles one group covering all of ts). With one shard the report is
// that shard's; with more, the top level carries the summed storage
// counters and the group geometry, and Shards one structural report per
// shard.
func (s *Sharded) Health(ctx context.Context, ts []transform.Transform, groups [][]int) (*HealthReport, error) {
	reports := make([]*HealthReport, len(s.shards))
	for sh, ix := range s.shards {
		hr := &HealthReport{Series: ix.len(), SeriesLength: ix.n, K: ix.opts.K, Dim: ix.dim, PageSize: ix.mgr.PageSize()}
		var err error
		if hr.Tree, err = ix.tree.Health(); err != nil {
			return nil, s.shardErr(sh, err)
		}
		if ix.heap != nil {
			if hr.Heap, err = ix.heap.ComputeHealth(ctx); err != nil {
				return nil, s.shardErr(sh, err)
			}
		}
		hr.Storage = ix.mgr.Stats() // after the walks, which it counts
		reports[sh] = hr
	}
	hr := reports[0]
	if !s.single() {
		hr = &HealthReport{Series: s.Len(), SeriesLength: hr.SeriesLength, K: hr.K, Dim: hr.Dim, PageSize: hr.PageSize,
			ShardCount: len(s.shards), Shards: reports}
		for _, r := range reports {
			hr.Storage = addStats(hr.Storage, r.Storage)
		}
	}
	gh, err := s.groupHealth(ts, groups)
	if err != nil {
		return nil, err
	}
	hr.Groups = gh
	return hr, nil
}

// groupHealth computes the static geometry section of the report: one
// GroupHealth per transformation group with the lifted-MBR volumes. The
// result depends only on the transformation set and the index options,
// so shard 0 computes it for all.
func (s *Sharded) groupHealth(ts []transform.Transform, groups [][]int) ([]GroupHealth, error) {
	if len(ts) > 0 && groups == nil {
		groups = [][]int{identityIndexes(len(ts))}
	}
	ix := s.shards[0]
	sc := ix.acquireScratch()
	defer ix.releaseScratch(sc)
	var out []GroupHealth
	for gi, g := range groups {
		grp, err := newGroup(ix, ts, g, false, false, sc)
		if err != nil {
			return nil, fmt.Errorf("group %d: %w", gi, err)
		}
		out = append(out, GroupHealth{Group: gi, Size: len(g), MultVolume: dftVolume(grp.mult), AddVolume: dftVolume(grp.add)})
	}
	return out, nil
}

// dftVolume is the volume of a lifted rectangle over the transform-
// sensitive dimensions only (index 2 onward; mean/std are identity).
// Dimensions with zero extent are excluded — transformation families
// are routinely degenerate somewhere (a purely multiplicative family
// has a point add-part, moving averages pin the mult-part's phase
// dims), and a strict product would collapse every volume to zero. The
// result is the volume of the rectangle's affine hull face; 0 when the
// rectangle is a single point.
func dftVolume(r geom.Rect) float64 {
	v, spread := 1.0, 0
	for d := 2; d < r.Dim(); d++ {
		if e := r.Hi[d] - r.Lo[d]; e > 0 {
			v *= e
			spread++
		}
	}
	if spread == 0 {
		return 0
	}
	return v
}

// FoldTrace accumulates one traced query's per-group probe counters
// into the report: every completed KindProbe span carrying AGroupIndex
// (set by the MT-index range pipeline) adds its candidates, matches,
// and false positives to its group. Probes without a group ordinal
// (e.g. the NN best-first span) are skipped. Call once per trace; rates
// are recomputed after each fold.
func (hr *HealthReport) FoldTrace(tr *obs.Trace) {
	for _, sp := range tr.Spans() {
		if sp.Kind() != obs.KindProbe || !sp.Has(obs.AGroupIndex) {
			continue
		}
		gi := int(sp.Get(obs.AGroupIndex))
		if gi < 0 || gi >= len(hr.Groups) {
			continue
		}
		g := &hr.Groups[gi]
		g.Probes++
		g.Candidates += sp.Get(obs.ACandidates)
		g.Matches += sp.Get(obs.AMatches)
		g.FalsePositives += sp.Get(obs.AFalsePositives)
		if g.Candidates > 0 {
			g.FalsePositiveRate = float64(g.FalsePositives) / float64(g.Candidates)
		}
	}
}

// WriteText renders the report as the `tsquery -inspect` page. A
// sharded report prints the combined rollup (storage, groups) followed
// by one structural section per shard.
func (hr *HealthReport) WriteText(w io.Writer) {
	fmt.Fprintf(w, "index health: %d series of length %d, k=%d (%d-dim), page %d B\n",
		hr.Series, hr.SeriesLength, hr.K, hr.Dim, hr.PageSize)
	if hr.ShardCount > 1 {
		fmt.Fprintf(w, "sharded: %d shards, hash-partitioned by series id\n", hr.ShardCount)
		hr.writeStorage(w)
		hr.writeGroups(w)
		for i, sh := range hr.Shards {
			fmt.Fprintf(w, "\n--- shard %d: %d series ---\n", i, sh.Series)
			sh.writeStructure(w)
			sh.writeStorage(w)
		}
		return
	}
	hr.writeStructure(w)
	hr.writeStorage(w)
	hr.writeGroups(w)
}

// writeStructure renders the per-tree section: level table, leaf
// occupancy and heap accounting.
func (hr *HealthReport) writeStructure(w io.Writer) {
	t := hr.Tree
	if t == nil {
		return
	}
	root, leaves := t.Levels[0], t.Levels[t.Height-1]
	fmt.Fprintf(w, "\nR*-tree: height=%d entries=%d nodes=%d fill=[%d..%d] leaf fill=[%d..%d] point leaves=%v\n",
		t.Height, t.Entries, t.Nodes, root.MinFill, root.MaxFill, leaves.MinFill, leaves.MaxFill, t.PointLeaves)
	fmt.Fprintf(w, "%-6s %7s %9s %9s %11s %11s %13s %13s\n",
		"level", "nodes", "entries", "avg_fill", "avg_margin", "overlap", "covered", "dead")
	for _, l := range t.Levels {
		name := fmt.Sprintf("%d", l.Level)
		if l.Level == 0 {
			name = "root"
		} else if l.Level == t.Height-1 {
			name = "leaf"
		}
		fmt.Fprintf(w, "%-6s %7d %9d %9.2f %11.3g %11.3g %13.3g %13.3g\n",
			name, l.Nodes, l.Entries, l.AvgFill, l.AvgMargin, l.Overlap, l.CoveredArea, l.DeadSpace)
	}
	fmt.Fprintf(w, "leaf occupancy (fill deciles 0-100%%): %s\n", occupancyBar(leaves.Occupancy))
	shares := make([]string, len(leaves.ExtentShare))
	for d, s := range leaves.ExtentShare {
		shares[d] = fmt.Sprintf("%.1f", 100*s)
	}
	fmt.Fprintf(w, "leaf extent per dimension (mean, %% of the root's): %s\n", strings.Join(shares, " "))

	if hr.Heap != nil {
		fmt.Fprintf(w, "\nheap: %s\n", hr.Heap)
	}
}

// writeStorage renders the storage counter line.
func (hr *HealthReport) writeStorage(w io.Writer) {
	s := hr.Storage
	fmt.Fprintf(w, "\nstorage: reads=%d hits=%d writes=%d allocs=%d frees=%d",
		s.Reads, s.Hits, s.Writes, s.Allocs, s.Frees)
	if tot := s.Reads + s.Hits; tot > 0 {
		fmt.Fprintf(w, " (hit ratio %.1f%%)", 100*float64(s.Hits)/float64(tot))
	}
	fmt.Fprintln(w)
}

// writeGroups renders the transformation-group table.
func (hr *HealthReport) writeGroups(w io.Writer) {
	if len(hr.Groups) == 0 {
		return
	}
	fmt.Fprintf(w, "\ntransformation groups:\n")
	fmt.Fprintf(w, "%-6s %5s %12s %12s %8s %11s %9s %10s %8s\n",
		"group", "size", "mult_vol", "add_vol", "probes", "candidates", "matches", "false_pos", "fp_rate")
	for _, g := range hr.Groups {
		fmt.Fprintf(w, "%-6d %5d %12.3g %12.3g %8d %11d %9d %10d %8.2f\n",
			g.Group, g.Size, g.MultVolume, g.AddVolume, g.Probes, g.Candidates, g.Matches, g.FalsePositives, g.FalsePositiveRate)
	}
}

// String renders the report to a string.
func (hr *HealthReport) String() string {
	var b strings.Builder
	hr.WriteText(&b)
	return b.String()
}

// occupancyBar renders an occupancy histogram as counts per decile.
func occupancyBar(occ [rtree.OccupancyBuckets]int) string {
	parts := make([]string, len(occ))
	for i, c := range occ {
		parts[i] = fmt.Sprintf("%d", c)
	}
	return strings.Join(parts, " ")
}
