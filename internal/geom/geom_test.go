package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randPoint(rng *rand.Rand, dim int) Point {
	p := make(Point, dim)
	for i := range p {
		p[i] = rng.NormFloat64() * 10
	}
	return p
}

func randRect(rng *rand.Rand, dim int) Rect {
	a, b := randPoint(rng, dim), randPoint(rng, dim)
	lo := make(Point, dim)
	hi := make(Point, dim)
	for i := range a {
		lo[i] = math.Min(a[i], b[i])
		hi[i] = math.Max(a[i], b[i])
	}
	return Rect{Lo: lo, Hi: hi}
}

func TestAreaMarginCenter(t *testing.T) {
	r := NewRect(Point{0, 0}, Point{2, 3})
	if r.Area() != 6 {
		t.Errorf("Area = %v, want 6", r.Area())
	}
	if r.Margin() != 5 {
		t.Errorf("Margin = %v, want 5", r.Margin())
	}
	c := r.Center()
	if c[0] != 1 || c[1] != 1.5 {
		t.Errorf("Center = %v", c)
	}
}

func TestContainsIntersects(t *testing.T) {
	r := NewRect(Point{0, 0}, Point{10, 10})
	if !r.Contains(Point{5, 5}) || !r.Contains(Point{0, 10}) {
		t.Error("Contains failed for interior/boundary point")
	}
	if r.Contains(Point{-0.001, 5}) {
		t.Error("Contains accepted an outside point")
	}
	s := NewRect(Point{10, 10}, Point{20, 20})
	if !r.Intersects(s) {
		t.Error("touching rectangles should intersect")
	}
	u := NewRect(Point{10.5, 10.5}, Point{20, 20})
	if r.Intersects(u) {
		t.Error("disjoint rectangles reported intersecting")
	}
	if !r.ContainsRect(NewRect(Point{1, 1}, Point{9, 9})) {
		t.Error("ContainsRect failed for contained rect")
	}
	if r.ContainsRect(NewRect(Point{1, 1}, Point{11, 9})) {
		t.Error("ContainsRect accepted a protruding rect")
	}
}

func TestOverlapArea(t *testing.T) {
	r := NewRect(Point{0, 0}, Point{4, 4})
	s := NewRect(Point{2, 2}, Point{6, 6})
	if got := r.OverlapArea(s); got != 4 {
		t.Errorf("OverlapArea = %v, want 4", got)
	}
	d := NewRect(Point{5, 5}, Point{6, 6})
	if got := r.OverlapArea(d); got != 0 {
		t.Errorf("OverlapArea disjoint = %v, want 0", got)
	}
}

func TestUnionProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := randRect(rng, 4)
		s := randRect(rng, 4)
		u := r.Union(s)
		return u.ContainsRect(r) && u.ContainsRect(s) &&
			u.Area() >= r.Area() && u.Area() >= s.Area() &&
			r.Enlargement(s) >= -1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestUnionFreeFormsAreTheUnionForms: the two measures ChooseSubtree takes
// of a rectangle grown to cover another, computed without building the
// union, are the same float64 as through Union.
func TestUnionFreeFormsAreTheUnionForms(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, s, o := randRect(rng, 5), randRect(rng, 5), randRect(rng, 5)
		return r.Enlargement(s) == r.Union(s).Area()-r.Area() &&
			r.UnionOverlapArea(s, o) == r.Union(s).OverlapArea(o)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestMinDist(t *testing.T) {
	r := NewRect(Point{0, 0}, Point{2, 2})
	if got := r.MinDist(Point{1, 1}); got != 0 {
		t.Errorf("MinDist inside = %v, want 0", got)
	}
	if got := r.MinDist(Point{5, 2}); got != 3 {
		t.Errorf("MinDist side = %v, want 3", got)
	}
	if got := r.MinDist(Point{5, 6}); math.Abs(got-5) > 1e-12 {
		t.Errorf("MinDist corner = %v, want 5", got)
	}
}

func TestMinDistLowerBoundsPointDistances(t *testing.T) {
	// MINDIST(p, r) <= dist(p, q) for every q inside r.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := randRect(rng, 3)
		p := randPoint(rng, 3)
		md := r.MinDist(p)
		for trial := 0; trial < 20; trial++ {
			q := make(Point, 3)
			for i := range q {
				q[i] = r.Lo[i] + rng.Float64()*(r.Hi[i]-r.Lo[i])
			}
			if Dist(p, q) < md-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRectMinDist(t *testing.T) {
	r := NewRect(Point{0, 0}, Point{1, 1})
	s := NewRect(Point{4, 5}, Point{6, 7})
	if got := r.RectMinDistTo(s); got != 5 {
		t.Errorf("RectMinDist = %v, want 5", got)
	}
	o := NewRect(Point{0.5, 0.5}, Point{2, 2})
	if got := RectMinDist(r, o); got != 0 {
		t.Errorf("RectMinDist overlapping = %v, want 0", got)
	}
}

// RectMinDistTo is a tiny shim so the test reads naturally.
func (r Rect) RectMinDistTo(s Rect) float64 { return RectMinDist(r, s) }

func TestRectMinDistLowerBound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := randRect(rng, 3)
		s := randRect(rng, 3)
		md := RectMinDist(r, s)
		for trial := 0; trial < 10; trial++ {
			p := make(Point, 3)
			q := make(Point, 3)
			for i := range p {
				p[i] = r.Lo[i] + rng.Float64()*(r.Hi[i]-r.Lo[i])
				q[i] = s.Lo[i] + rng.Float64()*(s.Hi[i]-s.Lo[i])
			}
			if Dist(p, q) < md-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMBR(t *testing.T) {
	pts := []Point{{1, 5}, {3, 2}, {-1, 4}}
	r := MBR(pts)
	if r.Lo[0] != -1 || r.Lo[1] != 2 || r.Hi[0] != 3 || r.Hi[1] != 5 {
		t.Errorf("MBR = %v", r)
	}
	for _, p := range pts {
		if !r.Contains(p) {
			t.Errorf("MBR does not contain %v", p)
		}
	}
}

func TestMBRRects(t *testing.T) {
	rects := []Rect{
		NewRect(Point{0, 0}, Point{1, 1}),
		NewRect(Point{5, -2}, Point{6, 0}),
	}
	u := MBRRects(rects)
	for _, r := range rects {
		if !u.ContainsRect(r) {
			t.Errorf("MBRRects does not contain %v", r)
		}
	}
}

func TestExpand(t *testing.T) {
	r := NewRect(Point{0, 0}, Point{1, 1}).Expand(0.5)
	if r.Lo[0] != -0.5 || r.Hi[1] != 1.5 {
		t.Errorf("Expand = %v", r)
	}
	per := NewRect(Point{0, 0}, Point{1, 1}).ExpandPer([]float64{1, 2})
	if per.Lo[0] != -1 || per.Lo[1] != -2 || per.Hi[0] != 2 || per.Hi[1] != 3 {
		t.Errorf("ExpandPer = %v", per)
	}
}

func TestPointRectAndClone(t *testing.T) {
	p := Point{1, 2}
	r := PointRect(p)
	if r.Area() != 0 || !r.Contains(p) {
		t.Errorf("PointRect = %v", r)
	}
	p[0] = 99
	if r.Lo[0] == 99 {
		t.Error("PointRect aliases the input point")
	}
	c := r.Clone()
	c.Lo[0] = -5
	if r.Lo[0] == -5 {
		t.Error("Clone aliases the original")
	}
}

func TestNewRectPanics(t *testing.T) {
	for _, tc := range []struct {
		name   string
		lo, hi Point
	}{
		{"mismatched dims", Point{0}, Point{1, 2}},
		{"inverted", Point{2}, Point{1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			NewRect(tc.lo, tc.hi)
		})
	}
}

func TestMBREmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	MBR(nil)
}

func TestStringRendering(t *testing.T) {
	r := NewRect(Point{0, -1.5}, Point{2, 3})
	s := r.String()
	if s == "" || len(s) < 10 {
		t.Errorf("String = %q", s)
	}
}
