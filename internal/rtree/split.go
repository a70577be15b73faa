package rtree

import (
	"math"
	"slices"

	"tsq/internal/geom"
)

// splitScratch holds the buffers of one overflow decision (a split or a
// forced reinsertion). The tree owns one: writes are exclusive, so the
// 2·dim sort orders of a split and the splits of one insertion reuse the
// same memory instead of cloning rectangles per distribution.
type splitScratch struct {
	// work is the overfull node's entries in the sort order under test.
	work []Entry
	// prefix and suffix are the group extents of work, 2·dim floats per
	// position (lows then highs): prefix[i] bounds work[:i+1], suffix[i]
	// bounds work[i:].
	prefix, suffix []float64
	// inv is 1/extent of the overfull node per dimension, 0 for a
	// dimension in which it has no extent. Margins and centre distances
	// are measured in these units, which makes them independent of the
	// scale of each coordinate: with raw margins a dimension whose values
	// are a thousand times larger than the others' takes every split.
	inv []float64
	// dist is the reinsertion ranking: centre distance and entry index.
	dist []distEntry
	// box is the bounding rectangle bounds computes.
	box geom.Rect
	// removed holds, per level, the entries a forced reinsertion took out
	// of its node while they are inserted again.
	removed []held
	// orphans holds, per level from the leaves up, the entries of the
	// nodes a deletion removed while they are inserted again.
	orphans []held
}

// held is a set of entries copied out of a decode slot, rectangles
// included, so that it outlives the slot's next load.
type held struct {
	entries []Entry
	corners []float64
}

// keep copies src into h and returns the copy.
func (h *held) keep(src []Entry, dim int) []Entry {
	h.entries = resized(h.entries, len(src))
	h.corners = resized(h.corners, 2*dim*len(src))
	for i, e := range src {
		c := h.corners[2*dim*i : 2*dim*(i+1) : 2*dim*(i+1)]
		copy(c[:dim], e.Rect.Lo)
		copy(c[dim:], e.Rect.Hi)
		e.Rect = geom.Rect{Lo: c[:dim:dim], Hi: c[dim:]}
		h.entries[i] = e
	}
	return h.entries
}

// bounds returns n's minimum bounding rectangle in the scratch's box,
// valid until the next call.
func (s *splitScratch) bounds(n *Node, dim int) geom.Rect {
	if len(s.box.Lo) != dim {
		s.box = geom.Rect{Lo: make(geom.Point, dim), Hi: make(geom.Point, dim)}
	}
	n.refit(s.box)
	return s.box
}

type distEntry struct {
	d float64
	i int
}

// resized returns buf with length n, reusing its memory when it is large
// enough. The contents are the caller's to overwrite.
func resized[T any](buf []T, n int) []T {
	return slices.Grow(buf[:0], n)[:n]
}

// normalise fills inv from the extent of entries.
func (s *splitScratch) normalise(entries []Entry, dim int) {
	s.inv = resized(s.inv, dim)
	for d := 0; d < dim; d++ {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, e := range entries {
			lo = min(lo, e.Rect.Lo[d])
			hi = max(hi, e.Rect.Hi[d])
		}
		s.inv[d] = 0
		if ext := hi - lo; ext > 0 {
			s.inv[d] = 1 / ext
		}
	}
}

// splitEntries partitions an overfull entry slice into two groups using the
// R*-tree split algorithm: ChooseSplitAxis picks the axis minimizing the
// total margin over all distributions; ChooseSplitIndex picks the
// distribution on that axis with minimum overlap, ties broken by minimum
// combined area. Axes, margins, overlaps and areas are those of the
// dimensions from c on, the organised ones. Each group receives at least
// minE entries. left reuses the backing array of entries; right is the
// tail of work, valid until the scratch's next decision. Both share the
// rectangles of entries.
func (s *splitScratch) splitEntries(entries []Entry, minE, c, dim int) (left, right []Entry) {
	s.normalise(entries, dim)
	s.work = resized(s.work, len(entries))

	// ChooseSplitAxis: the axis and sort key (lower or upper bound) with
	// the minimum sum of margins over all legal distributions.
	bestMargin := math.Inf(1)
	axis, byLo := c, true
	for a := c; a < dim; a++ {
		for _, lo := range [2]bool{true, false} {
			s.sortWork(entries, a, lo, dim)
			if m := s.marginSum(minE, c, dim); m < bestMargin {
				bestMargin = m
				axis, byLo = a, lo
			}
		}
	}

	s.sortWork(entries, axis, byLo, dim)
	splitAt := s.chooseSplitIndex(minE, c, dim)
	return append(entries[:0], s.work[:splitAt]...), s.work[splitAt:]
}

// sortWork copies entries into work sorted along the axis by lower (byLo)
// or upper bound, the other bound as tie-breaker, and recomputes the
// prefix and suffix extents for that order.
func (s *splitScratch) sortWork(entries []Entry, axis int, byLo bool, dim int) {
	copy(s.work, entries)
	slices.SortStableFunc(s.work, func(a, b Entry) int {
		k1a, k2a, k1b, k2b := a.Rect.Lo[axis], a.Rect.Hi[axis], b.Rect.Lo[axis], b.Rect.Hi[axis]
		if !byLo {
			k1a, k2a, k1b, k2b = k2a, k1a, k2b, k1b
		}
		switch {
		case k1a != k1b:
			if k1a < k1b {
				return -1
			}
			return 1
		case k2a < k2b:
			return -1
		case k2b < k2a:
			return 1
		}
		return 0
	})

	n, w := len(s.work), 2*dim
	s.prefix = resized(s.prefix, n*w)
	s.suffix = resized(s.suffix, n*w)
	copy(s.prefix[:dim], s.work[0].Rect.Lo)
	copy(s.prefix[dim:w], s.work[0].Rect.Hi)
	for i := 1; i < n; i++ {
		extend(s.prefix[i*w:(i+1)*w], s.prefix[(i-1)*w:i*w], s.work[i], dim)
	}
	copy(s.suffix[(n-1)*w:(n-1)*w+dim], s.work[n-1].Rect.Lo)
	copy(s.suffix[(n-1)*w+dim:n*w], s.work[n-1].Rect.Hi)
	for i := n - 2; i >= 0; i-- {
		extend(s.suffix[i*w:(i+1)*w], s.suffix[(i+1)*w:(i+2)*w], s.work[i], dim)
	}
}

// extend writes into dst (lows then highs) the extent src grown to cover e.
func extend(dst, src []float64, e Entry, dim int) {
	for d := 0; d < dim; d++ {
		dst[d] = min(src[d], e.Rect.Lo[d])
		dst[dim+d] = max(src[dim+d], e.Rect.Hi[d])
	}
}

// marginSum sums the margins of both groups in the dimensions from c on
// over every legal distribution of work, each side length as a share of
// the overfull node's.
func (s *splitScratch) marginSum(minE, c, dim int) float64 {
	n, w := len(s.work), 2*dim
	var sum float64
	for k := minE; k <= n-minE; k++ {
		l, r := s.prefix[(k-1)*w:k*w], s.suffix[k*w:(k+1)*w]
		for d := c; d < dim; d++ {
			sum += ((l[dim+d] - l[d]) + (r[dim+d] - r[d])) * s.inv[d]
		}
	}
	return sum
}

// chooseSplitIndex returns the split position in work (entries before it
// go left) minimizing group overlap, ties broken by total area, both in
// the dimensions from c on. Both are products of side lengths, so the
// choice does not depend on the scale of any coordinate.
func (s *splitScratch) chooseSplitIndex(minE, c, dim int) int {
	n, w := len(s.work), 2*dim
	best := minE
	bestOverlap, bestArea := math.Inf(1), math.Inf(1)
	for k := minE; k <= n-minE; k++ {
		l, r := s.prefix[(k-1)*w:k*w], s.suffix[k*w:(k+1)*w]
		overlap, areaL, areaR := 1.0, 1.0, 1.0
		for d := c; d < dim; d++ {
			areaL *= l[dim+d] - l[d]
			areaR *= r[dim+d] - r[d]
			if side := min(l[dim+d], r[dim+d]) - max(l[d], r[d]); side > 0 {
				overlap *= side
			} else {
				overlap = 0
			}
		}
		area := areaL + areaR
		if overlap < bestOverlap || (overlap == bestOverlap && area < bestArea) {
			best, bestOverlap, bestArea = k, overlap, area
		}
	}
	return best
}
