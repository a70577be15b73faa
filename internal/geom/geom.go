// Package geom provides the n-dimensional points and rectangles shared by
// the R*-tree and the similarity engine: hyper-rectangles with the usual
// area/margin/overlap measures, the MINDIST metric, and minimum bounding
// rectangle construction.
package geom

import (
	"fmt"
	"math"
	"strings"
)

// Point is a point in n-dimensional space.
type Point []float64

// Clone returns an independent copy of p.
func (p Point) Clone() Point {
	out := make(Point, len(p))
	copy(out, p)
	return out
}

// Rect is an axis-aligned hyper-rectangle given by per-dimension closed
// intervals [Lo[i], Hi[i]].
type Rect struct {
	Lo, Hi Point
}

// NewRect returns a rectangle with the given bounds. It panics if the
// bounds have different lengths or are inverted in any dimension.
func NewRect(lo, hi Point) Rect {
	if len(lo) != len(hi) {
		panic(fmt.Sprintf("geom: bounds of dimension %d and %d", len(lo), len(hi)))
	}
	for i := range lo {
		if lo[i] > hi[i] {
			panic(fmt.Sprintf("geom: inverted bounds in dimension %d: [%v, %v]", i, lo[i], hi[i]))
		}
	}
	return Rect{Lo: lo, Hi: hi}
}

// PointRect returns the degenerate rectangle containing exactly p.
func PointRect(p Point) Rect {
	return Rect{Lo: p.Clone(), Hi: p.Clone()}
}

// Dim returns the dimensionality of the rectangle.
func (r Rect) Dim() int { return len(r.Lo) }

// Clone returns an independent copy of r.
func (r Rect) Clone() Rect {
	return Rect{Lo: r.Lo.Clone(), Hi: r.Hi.Clone()}
}

// Center returns the center point of r.
func (r Rect) Center() Point {
	c := make(Point, len(r.Lo))
	for i := range c {
		c[i] = (r.Lo[i] + r.Hi[i]) / 2
	}
	return c
}

// Area returns the volume of r (product of side lengths).
func (r Rect) Area() float64 {
	a := 1.0
	for i := range r.Lo {
		a *= r.Hi[i] - r.Lo[i]
	}
	return a
}

// Margin returns the sum of the side lengths of r (the R*-tree margin
// measure, up to the constant factor 2^(d-1)).
func (r Rect) Margin() float64 {
	var m float64
	for i := range r.Lo {
		m += r.Hi[i] - r.Lo[i]
	}
	return m
}

// Contains reports whether r fully contains p.
func (r Rect) Contains(p Point) bool {
	for i := range r.Lo {
		if p[i] < r.Lo[i] || p[i] > r.Hi[i] {
			return false
		}
	}
	return true
}

// ContainsRect reports whether r fully contains s.
func (r Rect) ContainsRect(s Rect) bool {
	for i := range r.Lo {
		if s.Lo[i] < r.Lo[i] || s.Hi[i] > r.Hi[i] {
			return false
		}
	}
	return true
}

// Intersects reports whether r and s share at least one point.
func (r Rect) Intersects(s Rect) bool {
	for i := range r.Lo {
		if r.Lo[i] > s.Hi[i] || s.Lo[i] > r.Hi[i] {
			return false
		}
	}
	return true
}

// OverlapArea returns the volume of the intersection of r and s
// (0 if they do not intersect).
func (r Rect) OverlapArea(s Rect) float64 {
	a := 1.0
	for i := range r.Lo {
		lo := max(r.Lo[i], s.Lo[i])
		hi := min(r.Hi[i], s.Hi[i])
		if hi <= lo {
			return 0
		}
		a *= hi - lo
	}
	return a
}

// UnionOverlapArea returns r.Union(t).OverlapArea(s), the volume s shares
// with the bounding rectangle of r and t, without building the union.
func (r Rect) UnionOverlapArea(t, s Rect) float64 {
	a := 1.0
	for i := range r.Lo {
		lo := max(min(r.Lo[i], t.Lo[i]), s.Lo[i])
		hi := min(max(r.Hi[i], t.Hi[i]), s.Hi[i])
		if hi <= lo {
			return 0
		}
		a *= hi - lo
	}
	return a
}

// Union returns the minimum bounding rectangle of r and s.
func (r Rect) Union(s Rect) Rect {
	lo := make(Point, len(r.Lo))
	hi := make(Point, len(r.Hi))
	for i := range lo {
		lo[i] = math.Min(r.Lo[i], s.Lo[i])
		hi[i] = math.Max(r.Hi[i], s.Hi[i])
	}
	return Rect{Lo: lo, Hi: hi}
}

// Enlargement returns the increase in area needed for r to cover s:
// r.Union(s).Area() - r.Area(), without building the union.
func (r Rect) Enlargement(s Rect) float64 {
	u := 1.0
	for i := range r.Lo {
		u *= max(r.Hi[i], s.Hi[i]) - min(r.Lo[i], s.Lo[i])
	}
	return u - r.Area()
}

// Expand returns r grown by eps on both sides of every dimension.
func (r Rect) Expand(eps float64) Rect {
	lo := make(Point, len(r.Lo))
	hi := make(Point, len(r.Hi))
	for i := range lo {
		lo[i] = r.Lo[i] - eps
		hi[i] = r.Hi[i] + eps
	}
	return Rect{Lo: lo, Hi: hi}
}

// ExpandPer returns r grown by eps[i] on both sides of dimension i.
func (r Rect) ExpandPer(eps []float64) Rect {
	lo := make(Point, len(r.Lo))
	hi := make(Point, len(r.Hi))
	for i := range lo {
		lo[i] = r.Lo[i] - eps[i]
		hi[i] = r.Hi[i] + eps[i]
	}
	return Rect{Lo: lo, Hi: hi}
}

// MinDist returns the minimum Euclidean distance between p and any point
// of r (the MINDIST metric of Roussopoulos et al.). Zero if p is inside r.
func (r Rect) MinDist(p Point) float64 {
	var ss float64
	for i := range p {
		var d float64
		switch {
		case p[i] < r.Lo[i]:
			d = r.Lo[i] - p[i]
		case p[i] > r.Hi[i]:
			d = p[i] - r.Hi[i]
		}
		ss += d * d
	}
	return math.Sqrt(ss)
}

// RectMinDist returns the minimum Euclidean distance between any point of
// r and any point of s. Zero if they intersect.
func RectMinDist(r, s Rect) float64 {
	var ss float64
	for i := range r.Lo {
		var d float64
		switch {
		case r.Hi[i] < s.Lo[i]:
			d = s.Lo[i] - r.Hi[i]
		case s.Hi[i] < r.Lo[i]:
			d = r.Lo[i] - s.Hi[i]
		}
		ss += d * d
	}
	return math.Sqrt(ss)
}

// MBR returns the minimum bounding rectangle of a non-empty set of points.
func MBR(points []Point) Rect {
	if len(points) == 0 {
		panic("geom: MBR of no points")
	}
	lo := points[0].Clone()
	hi := points[0].Clone()
	for _, p := range points[1:] {
		for i := range p {
			if p[i] < lo[i] {
				lo[i] = p[i]
			}
			if p[i] > hi[i] {
				hi[i] = p[i]
			}
		}
	}
	return Rect{Lo: lo, Hi: hi}
}

// MBRRects returns the minimum bounding rectangle of a non-empty set of
// rectangles.
func MBRRects(rects []Rect) Rect {
	if len(rects) == 0 {
		panic("geom: MBRRects of no rectangles")
	}
	out := rects[0].Clone()
	for _, r := range rects[1:] {
		out = out.Union(r)
	}
	return out
}

// Dist returns the Euclidean distance between two points.
func Dist(a, b Point) float64 {
	var ss float64
	for i := range a {
		d := a[i] - b[i]
		ss += d * d
	}
	return math.Sqrt(ss)
}

// String renders the rectangle as "[lo..hi] x [lo..hi] ...".
func (r Rect) String() string {
	var b strings.Builder
	for i := range r.Lo {
		if i > 0 {
			b.WriteString(" x ")
		}
		fmt.Fprintf(&b, "[%.4g, %.4g]", r.Lo[i], r.Hi[i])
	}
	return b.String()
}
