package core

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"tsq/internal/geom"
	"tsq/internal/transform"
)

// groupOf is the group of ts at positions idx (nil: all of ts) as a
// query under opts builds it, in a scratch of its own.
func groupOf(ix *Index, ts []transform.Transform, idx []int, opts RangeOptions) *group {
	g, err := newGroup(ix, ts, idx, opts.OneSided, opts.UseOrdering, new(scratch))
	if err != nil {
		panic(err)
	}
	return &g
}

// stageOf is the filter stage of the group of every transformation of ts
// under opts, in a scratch of its own.
func stageOf(ix *Index, q *Record, ts []transform.Transform, eps float64, opts RangeOptions) stage {
	sc := new(scratch)
	g, err := newGroup(ix, ts, nil, opts.OneSided, opts.UseOrdering, sc)
	if err != nil {
		panic(err)
	}
	return ix.newStage(sc, q, g, eps, opts)
}

// The predicates below are the reference TestGroupDecidesAsThePredicates
// holds newGroup to: each is the code that decided one fact about a
// transformation group before the group value did, as it read then.

// symmetry decides the symmetry factor of a transformation group: 2 when
// the index was built with UseSymmetry and every member of sub is
// classified as acting alike on mirror coefficients under the predicate's
// sidedness, 1 otherwise.
func (ix *Index) symmetry(sub []transform.Transform, oneSided bool) float64 {
	if !ix.opts.UseSymmetry {
		return 1
	}
	for _, t := range sub {
		if !t.Symmetric(oneSided) {
			return 1
		}
	}
	return 2
}

// intervalSafe reports whether the query rectangle may constrain
// coefficient j for every member of ts.
func intervalSafe(ts []transform.Transform, j int, oneSided bool) bool {
	for _, t := range ts {
		a, b := t.A[2*j], t.B[2*j]
		if oneSided && (a < 0 || b < 0) || !oneSided && (a*b < 0 || math.Abs(t.A[2*j+1]) > 1) {
			return false
		}
	}
	return true
}

// scaledGroup reports whether every member of a two-sided group only
// scales each indexed coefficient 1..k.
func scaledGroup(sub []transform.Transform, k int, oneSided bool) bool {
	if oneSided {
		return false
	}
	for _, t := range sub {
		for j := 1; j <= k; j++ {
			if t.B[2*j] != 0 || math.Abs(t.A[2*j+1]) != 1 {
				return false
			}
		}
	}
	return true
}

// orderedSet is an ordered set over a group's members with the
// permutation back into them.
type orderedSet struct {
	set  transform.OrderedSet
	perm []int // perm[i] = index into the original slice
}

// orderedPrefix returns an ordered set over ts when ordering is requested
// and ts is a pure positive scale set (Lemma 2); nil otherwise. Range
// asked it with UseOrdering && !OneSided.
func orderedPrefix(ts []transform.Transform, useOrdering bool) *orderedSet {
	if !useOrdering {
		return nil
	}
	factors, ok := transform.OrderableAsScales(ts)
	if !ok {
		return nil
	}
	perm := identityIndexes(len(ts))
	sort.Slice(perm, func(a, b int) bool { return factors[perm[a]] < factors[perm[b]] })
	sorted := make([]transform.Transform, len(ts))
	for i, p := range perm {
		sorted[i] = ts[p]
	}
	return &orderedSet{set: transform.OrderedSet{Transforms: sorted}, perm: perm}
}

// fullMBRs lifts the transformation MBRs of ts to index dimensionality.
func (ix *Index) fullMBRs(ts []transform.Transform) (mult, add geom.Rect) {
	buf := make([]float64, 4*ix.dim)
	mult, add = rectIn(buf[:2*ix.dim]), rectIn(buf[2*ix.dim:])
	transform.MBRs(geom.Rect{Lo: mult.Lo[2:], Hi: mult.Hi[2:]}, geom.Rect{Lo: add.Lo[2:], Hi: add.Hi[2:]}, ts, ix.comps)
	for d := 0; d < 2; d++ {
		mult.Lo[d], mult.Hi[d] = 1, 1
		add.Lo[d], add.Hi[d] = 0, 0
	}
	return mult, add
}

// groupTableSets are the transformation sets TestGroupDecidesAsThePredicates
// classifies at series length n: every kind of built-in, compositions
// whose phase offsets pass 4π, sets returned in full order, struct
// literals, and hand-made vectors edited at every coefficient or at
// coefficient 2 only (so the mask differs between coefficients):
// asymmetric, zero and negative magnitudes, a·m - 3, phase multipliers 2
// and -3.
func groupTableSets(n int) map[string][]transform.Transform {
	edited := func(name string, fs []int, edit func(a, b []float64, f int)) transform.Transform {
		t := transform.MovingAverage(n, 3)
		if fs == nil {
			for f := 0; f < n; f++ {
				fs = append(fs, f)
			}
		}
		for _, f := range fs {
			edit(t.A, t.B, f)
		}
		return transform.New(name, t.A, t.B)
	}
	scale := func(c float64) func(a, _ []float64, f int) { return func(a, _ []float64, f int) { a[2*f] *= c } }
	phaseMul := func(c float64) func(a, _ []float64, f int) { return func(a, _ []float64, f int) { a[2*f+1] = c } }
	minus3 := func(a, b []float64, f int) { a[2*f], b[2*f] = 1, -3 }
	asym := edited("asym", []int{2}, func(a, _ []float64, f int) { a[2*f] *= 1.5 })
	negScale := edited("scale-1.5", nil, func(a, b []float64, f int) { a[2*f], b[2*f], a[2*f+1], b[2*f+1] = -1.5, 0, 1, 0 })
	mv := transform.MovingAverageSet(n, 2, 9)
	shift7 := transform.TimeShift(n, 7)
	deep := shift7
	for i := 0; i < 4; i++ {
		deep = transform.Compose(shift7, deep)
	}
	var literals, full []transform.Transform
	for _, t := range mv[:4] {
		literals = append(literals, transform.Transform{Name: t.Name, A: t.A, B: t.B})
		full = append(full, t.FullOrder())
	}
	return map[string][]transform.Transform{
		"moving averages":          mv,
		"momentum":                 {transform.Momentum(n), transform.MomentumLag(n, 3)},
		"shifts":                   transform.TimeShiftSet(n, -3, 3),
		"approximate shifts":       {transform.TimeShiftApprox(n, 2), transform.TimeShiftApprox(n, 5)},
		"positive scales":          transform.ScaleSet(n, []float64{2, 0.5, 1.5, 1}),
		"one scale":                {transform.Scale(n, 3)},
		"negative scale":           {negScale, transform.Inverted(negScale)},
		"scales and negative":      {transform.Scale(n, 2), negScale},
		"reverse":                  {transform.Reverse(n), transform.Identity(n)},
		"invert":                   {transform.Invert(n), transform.Scale(n, 2)},
		"inverted":                 transform.WithInverted(mv[:3]),
		"ema and weighted":         {transform.EMA(n, 0.3), transform.WeightedMovingAverage(n, []float64{1, 2, 3})},
		"shifts past 4π":           {deep, transform.Compose(deep, deep), mv[0]},
		"composed":                 transform.ComposeSets(transform.TimeShiftSet(n, 0, 2), transform.ScaleSet(n, []float64{0.7, 1.3})),
		"full order":               full,
		"full-order scales":        {transform.Scale(n, 2).FullOrder(), transform.Scale(n, 0.5).FullOrder()},
		"struct literals":          literals,
		"literal scale":            {{Name: "lit2", A: transform.Scale(n, 2).A, B: transform.Scale(n, 2).B}},
		"asymmetric":               {asym, mv[1]},
		"zero magnitudes":          {edited("zero", nil, scale(0)), mv[2]},
		"zero at 2":                {edited("zero2", []int{2}, scale(0))},
		"negative magnitudes":      {edited("neg", nil, scale(-1)), mv[3]},
		"negative at 2":            {edited("neg2", []int{2}, scale(-2))},
		"a·m - 3":                  {edited("mag-3", nil, minus3), mv[0]},
		"a·m - 3 at 2":             {edited("mag-3@2", []int{2}, minus3)},
		"phase multiplier 2":       {edited("phase*2", nil, phaseMul(2))},
		"phase multiplier -3 at 2": {edited("phase*-3@2", []int{2}, phaseMul(-3)), mv[4]},
		"empty":                    {},
	}
}

// TestGroupDecidesAsThePredicates holds every decision newGroup makes to
// the predicate that made it before (the reference copies above): the
// symmetry factor, the factorized form, the mask of coefficients the box
// may constrain and the ordered set, and the lifted MBRs and the members
// with them, over the sets of groupTableSets, one-sided and two-sided,
// K = 1..4, UseSymmetry and UseOrdering on and off, in a new scratch and
// in a reused one, of the whole set and of a permuted subset. It checks
// that the sets exercise every branch of every rule, and that a group in
// a warm scratch allocates nothing.
func TestGroupDecidesAsThePredicates(t *testing.T) {
	const n = 32
	sets := groupTableSets(n)
	names := make([]string, 0, len(sets))
	for name := range sets {
		names = append(names, name)
	}
	sort.Strings(names)
	seen := map[string]bool{}
	for k := 1; k <= 4; k++ {
		for _, useSym := range []bool{false, true} {
			ix := newIndex(IndexOptions{K: k, UseSymmetry: useSym}, nil, n)
			sc := new(scratch)
			for _, name := range names {
				ts := sets[name]
				var perm []int
				for i := len(ts) - 1; i >= 0; i -= 2 {
					perm = append(perm, i)
				}
				for _, idx := range [][]int{nil, perm} {
					sub := ts
					if idx != nil {
						sub = make([]transform.Transform, len(idx))
						for i, p := range idx {
							sub[i] = ts[p]
						}
					}
					for _, oneSided := range []bool{false, true} {
						for _, ordering := range []bool{false, true} {
							label := fmt.Sprintf("K=%d sym=%v %s idx=%v oneSided=%v ordering=%v", k, useSym, name, idx, oneSided, ordering)
							for _, buf := range []*scratch{new(scratch), sc} {
								g, err := newGroup(ix, ts, idx, oneSided, ordering, buf)
								if err != nil {
									t.Fatalf("%s: %v", label, err)
								}
								if len(g.ts) != len(sub) || (len(sub) > 0 && !reflect.DeepEqual(g.ts, sub)) {
									t.Fatalf("%s: members %v, want %v", label, g.ts, sub)
								}
								for i := range sub {
									want := i
									if idx != nil {
										want = idx[i]
									}
									if g.index(i) != want {
										t.Fatalf("%s: member %d is the query's %d, want %d", label, i, g.index(i), want)
									}
								}
								if want := ix.symmetry(sub, oneSided); g.sym != want {
									t.Errorf("%s: symmetry factor %v, want %v", label, g.sym, want)
								}
								seen[fmt.Sprintf("sym %v", g.sym)] = true
								if want := scaledGroup(sub, k, oneSided); g.scaled != want {
									t.Errorf("%s: scaled %v, want %v", label, g.scaled, want)
								}
								seen[fmt.Sprintf("scaled %v", g.scaled)] = true
								for j := 1; j <= k; j++ {
									if want := intervalSafe(sub, j, oneSided); g.boxes(j) != want {
										t.Errorf("%s: coefficient %d boxed %v, want %v", label, j, g.boxes(j), want)
									}
									seen[fmt.Sprintf("boxes %v oneSided %v", g.boxes(j), oneSided)] = true
								}
								if want := orderedPrefix(sub, ordering && !oneSided); want == nil {
									if g.ordered != nil || g.perm != nil {
										t.Errorf("%s: ordered %v by %v, want no order", label, g.ordered, g.perm)
									}
								} else {
									for i := range want.perm {
										want.perm[i] = g.index(want.perm[i])
									}
									if !reflect.DeepEqual(g.ordered, want.set.Transforms) || !reflect.DeepEqual(g.perm, want.perm) {
										t.Errorf("%s: ordered %v by %v, want %v by %v", label, g.ordered, g.perm, want.set.Transforms, want.perm)
									}
								}
								seen[fmt.Sprintf("ordered %v", g.ordered != nil)] = true
								if len(sub) > 0 {
									mult, add := ix.fullMBRs(sub)
									if !reflect.DeepEqual(g.mult, mult) || !reflect.DeepEqual(g.add, add) {
										t.Errorf("%s: MBRs %v %v, want %v %v", label, g.mult, g.add, mult, add)
									}
								}
							}
						}
					}
				}
			}
		}
	}
	for _, want := range []string{"sym 1", "sym 2", "scaled false", "scaled true", "boxes false oneSided false",
		"boxes false oneSided true", "boxes true oneSided false", "boxes true oneSided true", "ordered false", "ordered true"} {
		if !seen[want] {
			t.Errorf("no set decides %q", want)
		}
	}

	ix := newIndex(IndexOptions{K: 2, UseSymmetry: true}, nil, n)
	if _, err := newGroup(ix, sets["moving averages"], []int{0, 8}, false, false, new(scratch)); err == nil {
		t.Error("group index 8 of 8 transformations accepted")
	}
	if _, err := newGroup(ix, sets["moving averages"], []int{-1}, false, false, new(scratch)); err == nil {
		t.Error("group index -1 accepted")
	}
	sc := new(scratch)
	mv, idx := sets["moving averages"], []int{1, 3, 5}
	build := func() {
		if _, err := newGroup(ix, mv, idx, false, false, sc); err != nil {
			t.Fatal(err)
		}
	}
	build()
	if allocs := testing.AllocsPerRun(20, build); allocs != 0 {
		t.Errorf("a group in a warm scratch allocates %v times", allocs)
	}
}
