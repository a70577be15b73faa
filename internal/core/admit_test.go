package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"tsq/internal/series"
	"tsq/internal/transform"
)

// intervalStage is one stage of TestPointIntervalsAreExact: a
// transformation group, its sidedness and eps, and which dimensions must
// take an interval (the others keep the per-entry formula).
type intervalStage struct {
	name     string
	ts       []transform.Transform
	oneSided bool
	eps      float64
	exact    func(d int) bool
}

// intervalStages are the stages TestPointIntervalsAreExact builds on an
// index of n-point walks with K = 2: the benchmark's moving averages,
// whose multipliers are positive; a negative magnitude multiplier and
// its inversion, which take the decreasing branch; a group mixing signs
// on the magnitudes, which must keep the formula there; one-sided
// queries, whose phase dimensions are compared modulo 2π; a magnitude
// offset intervalSafe leaves unbounded, whose query sides are ±Inf; and
// eps = 0.
func intervalStages(n int) []intervalStage {
	edited := func(name string, edit func(a, b []float64, f int)) transform.Transform {
		t := transform.MovingAverage(n, 5)
		for f := 0; f < n; f++ {
			edit(t.A, t.B, f)
		}
		return transform.New(name, t.A, t.B)
	}
	negScale := edited("scale-1.5", func(a, _ []float64, f int) { a[2*f] *= -1.5 })
	mvs := transform.MovingAverageSet(n, 10, 25)
	eps := series.DistanceForCorrelation(n, 0.96)
	all := func(int) bool { return true }
	notPhase := func(d int) bool { return d < 2 || d%2 == 0 }
	notMagnitude := func(d int) bool { return d < 2 || d%2 == 1 }
	return []intervalStage{
		{"MV(10..25)", mvs, false, eps, all},
		{"negative scale and inverted", []transform.Transform{negScale, transform.Inverted(negScale)}, false, eps, all},
		{"mixed-sign magnitudes", []transform.Transform{negScale, mvs[0]}, false, eps, notMagnitude},
		{"one-sided shifts", transform.TimeShiftSet(n, 1, 6), true, eps, notPhase},
		{"unbounded magnitude offset", []transform.Transform{edited("mag-3", func(a, b []float64, f int) { a[2*f], b[2*f] = 1, -3 }), mvs[0]}, false, eps, all},
		{"eps 0", mvs, false, 0, all},
		{"eps 0, one-sided", mvs, true, 0, notPhase},
	}
}

// TestPointIntervalsAreExact holds the interval newStage computes for a
// dimension to exactly the coordinates the per-entry test (stage.meets)
// admits there: at both edges and one ulp
// outside each, at the data's own coordinates, at random values, at the
// float64 extremes and at NaN. A dimension that may not take an interval
// (a one-sided phase, multipliers of both signs) must not, and the leaf
// scan runs every dimension but those whose interval is the whole line.
func TestPointIntervalsAreExact(t *testing.T) {
	const n = 64
	ds, ix := buildFixture(t, 31, 400, n, IndexOptions{K: 2, PageSize: 1024})
	rng := rand.New(rand.NewSource(5))
	special := []float64{math.Inf(-1), -math.MaxFloat64, -1, -math.SmallestNonzeroFloat64, math.Copysign(0, -1), 0,
		math.SmallestNonzeroFloat64, 1, math.MaxFloat64, math.Inf(1), math.NaN()}
	edges, wholeLines := 0, 0
	for _, c := range intervalStages(n) {
		for _, qid := range []int{3, 117, 250} {
			q := ds.Records[qid]
			s := stageOf(ix, q, c.ts, c.eps, RangeOptions{Mode: QRectSafe, OneSided: c.oneSided})
			// A leaf entry meets every dimension once, the intervals
			// first, but those whose interval is the whole line.
			met := make([]bool, len(s.dims))
			for k, a := range s.tests {
				if met[a.d] || a != s.dims[a.d] || a.exact != (k < s.byInterval) {
					t.Fatalf("%s, query %d: test %d of the leaf scan is %+v", c.name, qid, k, a)
				}
				met[a.d] = true
			}
			for d, a := range s.dims {
				wholeLine := a.exact && math.IsInf(a.lo, -1) && math.IsInf(a.hi, 1)
				if met[d] == wholeLine {
					t.Fatalf("%s, query %d: dimension %d (%+v) tested %v", c.name, qid, d, a, met[d])
				}
				if wholeLine {
					wholeLines++
				}
			}
			for d, a := range s.dims {
				where := fmt.Sprintf("%s, query %d, dimension %d", c.name, qid, d)
				if a.exact != c.exact(d) {
					t.Fatalf("%s: exact = %v", where, a.exact)
				}
				if !a.exact {
					continue
				}
				in := func(v float64) bool { return !(v < a.lo || v > a.hi) }
				check := func(v float64) {
					t.Helper()
					if in(v) != s.meets(d, v) {
						t.Fatalf("%s: interval [%v, %v] says %v at %v (bits %#x), the per-entry test %v",
							where, a.lo, a.hi, in(v), v, math.Float64bits(v), s.meets(d, v))
					}
				}
				for _, v := range special {
					check(v)
				}
				for _, r := range ds.Records {
					check(r.Feature(2)[d])
				}
				if a.lo > a.hi {
					continue // empty: the specials and the data were the test
				}
				for _, e := range []float64{a.lo, a.hi} {
					check(e)
					check(math.Nextafter(e, math.Inf(-1)))
					check(math.Nextafter(e, math.Inf(1)))
					for i := 0; i < 50; i++ {
						check(e + (rng.Float64()-0.5)*math.Abs(e)*1e-12)
					}
				}
				if !s.meets(d, a.lo) || !s.meets(d, a.hi) {
					t.Fatalf("%s: an edge of [%v, %v] is not admitted", where, a.lo, a.hi)
				}
				if !math.IsInf(a.lo, 0) || !math.IsInf(a.hi, 0) {
					edges++
				}
				width := math.Min(a.hi-a.lo, 10)
				for i := 0; i < 200; i++ {
					check(math.Max(a.lo, -10) + (1.4*rng.Float64()-0.2)*width)
				}
			}
		}
	}
	if edges < 40 || wholeLines == 0 {
		t.Fatalf("only %d finite intervals and %d whole lines met; the test is vacuous", edges, wholeLines)
	}
}
