package transform

import (
	"fmt"

	"tsq/internal/geom"
)

// MBRs builds the minimum bounding rectangles of a transformation set over
// the chosen polar components (Sec. 4.1). comps lists indices into the
// 2n-component polar vector (component 2f = magnitude of coefficient f,
// component 2f+1 = its phase); the result is the decomposition of the
// 2·len(comps)-dimensional transformation MBR into a mult-MBR (over the A
// parts) and an add-MBR (over the B parts), each of dimension len(comps),
// written into mult and add, whose corners must have that dimension.
func MBRs(mult, add geom.Rect, ts []Transform, comps []int) {
	if len(ts) == 0 {
		panic("transform: MBRs of an empty transformation set")
	}
	if mult.Dim() != len(comps) || add.Dim() != len(comps) || len(mult.Hi) != len(comps) || len(add.Hi) != len(comps) {
		panic(fmt.Sprintf("transform: MBRs into rectangles of dimension %d and %d over %d components", mult.Dim(), add.Dim(), len(comps)))
	}
	for i, t := range ts {
		t.validate()
		for d, c := range comps {
			if c < 0 || c >= len(t.A) {
				panic(fmt.Sprintf("transform: component %d out of range for transform %q (2n=%d)", c, t.Name, len(t.A)))
			}
			a, b := t.A[c], t.B[c]
			if i == 0 {
				mult.Lo[d], mult.Hi[d], add.Lo[d], add.Hi[d] = a, a, b, b
				continue
			}
			widen(mult, d, a)
			widen(add, d, b)
		}
	}
}

// widen stretches dimension d of r to cover v.
func widen(r geom.Rect, d int, v float64) {
	if v < r.Lo[d] {
		r.Lo[d] = v
	}
	if v > r.Hi[d] {
		r.Hi[d] = v
	}
}

// ApplyMBRs applies a transformation rectangle (mult, add) to a data
// rectangle x, all of the same dimension, per the paper's Eq. 12: in each
// dimension i the result interval is
//
//	[ add.Lo[i] + min(products), add.Hi[i] + max(products) ]
//
// where products ranges over the four corner products of the mult interval
// and the data interval. The returned rectangle contains t(p) for every
// transformation t inside (mult, add) and every point p inside x (Lemma 1).
func ApplyMBRs(mult, add, x geom.Rect) geom.Rect {
	d := x.Dim()
	if mult.Dim() != d || add.Dim() != d {
		panic(fmt.Sprintf("transform: ApplyMBRs dimension mismatch: mult=%d add=%d x=%d", mult.Dim(), add.Dim(), d))
	}
	lo := make(geom.Point, d)
	hi := make(geom.Point, d)
	for i := 0; i < d; i++ {
		p1 := mult.Lo[i] * x.Lo[i]
		p2 := mult.Lo[i] * x.Hi[i]
		p3 := mult.Hi[i] * x.Lo[i]
		p4 := mult.Hi[i] * x.Hi[i]
		lo[i] = add.Lo[i] + min4(p1, p2, p3, p4)
		hi[i] = add.Hi[i] + max4(p1, p2, p3, p4)
	}
	return geom.Rect{Lo: lo, Hi: hi}
}

// ApplyMBRsInto is ApplyMBRs writing into caller-provided corner
// slices, so a traversal can reuse one scratch rectangle for every
// entry it inspects instead of allocating two points per entry. lo and
// hi must have the common dimension; the returned rectangle aliases
// them.
func ApplyMBRsInto(lo, hi geom.Point, mult, add, x geom.Rect) geom.Rect {
	d := x.Dim()
	if mult.Dim() != d || add.Dim() != d || len(lo) != d || len(hi) != d {
		panic(fmt.Sprintf("transform: ApplyMBRsInto dimension mismatch: mult=%d add=%d x=%d lo=%d hi=%d",
			mult.Dim(), add.Dim(), d, len(lo), len(hi)))
	}
	for i := 0; i < d; i++ {
		p1 := mult.Lo[i] * x.Lo[i]
		p2 := mult.Lo[i] * x.Hi[i]
		p3 := mult.Hi[i] * x.Lo[i]
		p4 := mult.Hi[i] * x.Hi[i]
		lo[i] = add.Lo[i] + min4(p1, p2, p3, p4)
		hi[i] = add.Hi[i] + max4(p1, p2, p3, p4)
	}
	return geom.Rect{Lo: lo, Hi: hi}
}

func min4(a, b, c, d float64) float64 {
	m := a
	if b < m {
		m = b
	}
	if c < m {
		m = c
	}
	if d < m {
		m = d
	}
	return m
}

func max4(a, b, c, d float64) float64 {
	m := a
	if b > m {
		m = b
	}
	if c > m {
		m = c
	}
	if d > m {
		m = d
	}
	return m
}
