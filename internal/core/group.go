package core

import (
	"fmt"
	"math"
	"sort"

	"tsq/internal/geom"
	"tsq/internal/transform"
)

// group is one transformation rectangle of a query (Sec. 4.3) with what
// Algorithm 1 and Query 2 rely on about the rectangle as a whole, decided
// once by newGroup and read by every query shape:
//
//   - sym, the symmetry factor (Eq. 6): 2 when the index was built with
//     UseSymmetry and every member is classified as acting alike on
//     mirror coefficients under the query's sidedness
//     (transform.Transform.Symmetric), so that on spectra of real series
//     term n-f of the distance equals term f and a squared sum over the
//     indexed coefficients 1..K may be doubled (and eps shrunk by sqrt(2)
//     per coefficient, epsScale); 1 otherwise. A struct literal, a
//     hand-made asymmetric vector or a set TransformQuery returned in full
//     order (its query point is no real spectrum) gets 1, and so does a
//     group mixing one with built-ins. The raw, untransformed spectra of
//     RawRange are the empty group.
//   - scaled: the group is two-sided and every member only scales each
//     indexed coefficient, with no magnitude offset and a phase
//     multiplier of ±1 (a phase offset cancels two-sided), so the
//     lower-bound cascade takes its factorized form (lowerbound.go).
//   - free, the coefficients the query box must leave unconstrained
//     (boxes). The box, the join's gap test and the closest-pairs bound
//     compare signed transformed magnitudes and unwrapped transformed
//     phases, interval with interval, which bounds the distance of two
//     complex numbers only while their magnitudes cannot differ in sign:
//     one-sided, the query's own magnitude is never negative, so no map
//     a·m + b may be negative for an m >= 0; two-sided, none may change
//     sign. Two-sided, a phase multiplier above 1 in absolute value wraps
//     a phase difference more than once, which the branch-cut test does
//     not see. Every built-in passes; a hand-made map that fails leaves
//     the coefficient unconstrained, and the bound on index rectangles,
//     which handles both, still prunes.
//   - whole: some member is not symmetric for the query's sidedness, so
//     its distances sum f = 0..n-1 and verification needs each record's
//     whole spectrum, rebuilt from its series on a paged index, where a
//     verify part holds f = 0..n/2 only (WholeSpectrum).
//   - ordered, when the query asks for ordering and the group is
//     two-sided and a pure positive scale set (Sec. 4.4, Lemma 2): the
//     members in ascending-factor order, which verification searches
//     instead of trying each (appendOrderedMatches), with perm their
//     positions in the query's set; nil otherwise.
//
// What holds of one transformation is the transform.Transform class New
// set; a group only combines it over its members.
type group struct {
	ts       []transform.Transform // the members
	idx      []int                 // ts[i] is the query's transformation idx[i]; nil: i
	oneSided bool
	// mult and add are the members' MBRs lifted to index dimensionality
	// (Sec. 4.1): the mean and std dimensions are untouched by
	// transformations (identity), the DFT dimensions carry the mult- and
	// add-MBR of the indexed coefficients. Zero for the empty group and
	// for the scan's.
	mult, add geom.Rect
	sym       float64
	scaled    bool
	whole     bool
	free      []bool // free[j-1]: the box leaves coefficient j unconstrained; nil when none
	ordered   []transform.Transform
	perm      []int
}

// newGroup builds the group of the transformations of ts at positions idx
// (nil: all of ts, in order) for a one-sided or two-sided query under
// ix's options, with the ordered set when ordering is asked for. ix is
// nil for the sequential scan, which indexes nothing: its group decides
// the ordered set only. The gathered members, the lifted MBRs and the
// mask live in sc's buffers until its next group, so a warm scratch
// allocates nothing but an ordered set; sc may be nil where there is
// nothing to keep, for the scan and the empty group.
func newGroup(ix *Index, ts []transform.Transform, idx []int, oneSided, ordering bool, sc *scratch) (group, error) {
	g := group{ts: ts, idx: idx, oneSided: oneSided, sym: 1}
	if idx != nil {
		sc.sub = sc.sub[:0]
		for _, i := range idx {
			if i < 0 || i >= len(ts) {
				return group{}, fmt.Errorf("core: group index %d out of range", i)
			}
			sc.sub = append(sc.sub, ts[i])
		}
		g.ts = sc.sub
	}
	g.whole = WholeSpectrum(g.ts, oneSided)
	if ordering && !oneSided {
		if factors, ok := transform.OrderableAsScales(g.ts); ok {
			perm := identityIndexes(len(g.ts))
			sort.Slice(perm, func(a, b int) bool { return factors[perm[a]] < factors[perm[b]] })
			sorted := make([]transform.Transform, len(g.ts))
			for i, p := range perm {
				sorted[i], perm[i] = g.ts[p], g.index(p)
			}
			g.ordered, g.perm = sorted, perm
		}
	}
	if ix == nil {
		return g, nil
	}
	if dim := ix.dim; len(g.ts) > 0 {
		sc.stageRects = resized(sc.stageRects, 6*dim) // the stage's query rectangle takes the last 2·dim
		g.mult, g.add = rectIn(sc.stageRects[:2*dim]), rectIn(sc.stageRects[2*dim:4*dim])
		transform.MBRs(geom.Rect{Lo: g.mult.Lo[2:], Hi: g.mult.Hi[2:]}, geom.Rect{Lo: g.add.Lo[2:], Hi: g.add.Hi[2:]}, g.ts, ix.comps)
		for d := 0; d < 2; d++ {
			g.mult.Lo[d], g.mult.Hi[d] = 1, 1
			g.add.Lo[d], g.add.Hi[d] = 0, 0
		}
	}
	if ix.opts.UseSymmetry {
		g.sym = 2
	}
	g.scaled = !oneSided
	for _, t := range g.ts {
		if !t.Symmetric(oneSided) {
			g.sym = 1
		}
		for j := 1; j <= ix.opts.K; j++ {
			a, b, aPh := t.A[2*j], t.B[2*j], t.A[2*j+1]
			if b != 0 || math.Abs(aPh) != 1 {
				g.scaled = false
			}
			if oneSided && (a < 0 || b < 0) || !oneSided && (a*b < 0 || math.Abs(aPh) > 1) {
				if g.free == nil {
					sc.free = resized(sc.free, ix.opts.K)
					clear(sc.free)
					g.free = sc.free
				}
				g.free[j-1] = true
			}
		}
	}
	return g, nil
}

// WholeSpectrum reports whether distances under ts, one- or two-sided,
// read the upper half of a spectrum: whether some member is not
// symmetric for that sidedness, so its sum runs over f = 0..n-1. A query
// under such a set needs whole records, and its query point's whole
// spectrum; any other reads f = 0..n/2, what a paged record's verify
// part holds.
func WholeSpectrum(ts []transform.Transform, oneSided bool) bool {
	for _, t := range ts {
		if !t.Symmetric(oneSided) {
			return true
		}
	}
	return false
}

// index returns the position in the query's set of member i.
func (g *group) index(i int) int {
	if g.idx == nil {
		return i
	}
	return g.idx[i]
}

// boxes reports whether the query box may constrain coefficient j.
func (g *group) boxes(j int) bool { return g.free == nil || !g.free[j-1] }

// comparisons is what verifying one record against the group costs in
// distance evaluations, as the planner prices it: one per member, or
// ⌈log2 |g|⌉ for an ordered group's binary search.
func (g *group) comparisons() float64 {
	if g.ordered != nil {
		return log2ceil(len(g.ts))
	}
	return float64(len(g.ts))
}
