package transform

import (
	"sort"

	"tsq/internal/dft"
)

// This file implements the ordering notion of Sec. 4.4 (Definition 1):
// an ordering t_l <= t_k of a transformation set such that for all values
// v_i, v_j in the domain, D(t_l(v_i), t_l(v_j)) <= D(t_k(v_i), t_k(v_j)).
// When such an ordering exists the largest qualifying transformation can
// be found by binary search and everything below it qualifies for free.

// OrderedSet is a transformation set together with a certified ordering:
// Transforms[i] precedes Transforms[j] (never yields larger distances)
// whenever i < j.
type OrderedSet struct {
	Transforms []Transform
}

// NewScaleOrderedSet returns the canonical ordered set of Lemma 2: scaling
// factors sorted ascending. Scaling by a smaller positive factor never
// yields a larger distance, so "<" on factors is an ordering per
// Definition 1.
func NewScaleOrderedSet(n int, factors []float64) OrderedSet {
	sorted := append([]float64(nil), factors...)
	sort.Float64s(sorted)
	return OrderedSet{Transforms: ScaleSet(n, sorted)}
}

// LargestQualifying returns the index of the largest transformation in the
// ordered set for which pred holds, or -1 if none does. pred takes the
// position in Transforms and must be monotone along the ordering (true
// for a distance-threshold predicate, by Definition 1: if t_k qualifies
// then so does every t_l <= t_k). It evaluates pred O(log |T|) times.
func (o OrderedSet) LargestQualifying(pred func(i int) bool) int {
	// Invariant: everything at or below lo-1 qualifies, everything at or
	// above hi+1 does not.
	lo, hi := 0, len(o.Transforms)-1
	ans := -1
	for lo <= hi {
		mid := (lo + hi) / 2
		if pred(mid) {
			ans = mid
			lo = mid + 1
		} else {
			hi = mid - 1
		}
	}
	return ans
}

// QualifyingByDistance returns every transformation in the ordered set
// that brings X within distance eps of Y, using binary search: by
// Definition 1 the qualifying transformations form a prefix of the order.
// The number of distance evaluations is O(log |T|) instead of |T|.
func (o OrderedSet) QualifyingByDistance(X, Y []complex128, eps float64) []Transform {
	k := o.LargestQualifying(func(i int) bool {
		return o.Transforms[i].Distance(X, Y) <= eps
	})
	return o.Transforms[:k+1]
}

// CheckOrdering verifies Definition 1 empirically: it reports whether, for
// every consecutive pair (t_i, t_{i+1}) in ts and every pair of sample
// spectra, D(t_i(x), t_i(y)) <= D(t_{i+1}(x), t_{i+1}(y)) + tol. It is the
// tool the tests use to certify Lemma 2 and to refute orderings of moving
// averages (Lemmas 3-4). A true result over samples is evidence, not
// proof; a false result is a definite counterexample.
func CheckOrdering(ts []Transform, samples [][]complex128, tol float64) bool {
	for i := 0; i+1 < len(ts); i++ {
		for a := 0; a < len(samples); a++ {
			for b := a + 1; b < len(samples); b++ {
				dl := ts[i].Distance(samples[a], samples[b])
				dk := ts[i+1].Distance(samples[a], samples[b])
				if dl > dk+tol {
					return false
				}
			}
		}
	}
	return true
}

// OrderableAsScales reports whether every transformation in ts is a pure
// positive scaling (A constant on magnitudes, identity on phases, zero B),
// in which case NewScaleOrderedSet applies. It returns the scale factors
// when orderable.
func OrderableAsScales(ts []Transform) ([]float64, bool) {
	factors := make([]float64, len(ts))
	for i, t := range ts {
		t.validate()
		n := t.N()
		c := t.A[0]
		if c <= 0 {
			return nil, false
		}
		for f := 0; f < n; f++ {
			if t.A[2*f] != c || t.B[2*f] != 0 || t.A[2*f+1] != 1 || t.B[2*f+1] != 0 {
				return nil, false
			}
		}
		factors[i] = c
	}
	return factors, true
}

// spectra is a convenience for tests and callers: transform a batch of
// real series to spectra.
func Spectra(seriesList [][]float64) [][]complex128 {
	out := make([][]complex128, len(seriesList))
	for i, s := range seriesList {
		out[i] = dft.TransformReal(s)
	}
	return out
}
