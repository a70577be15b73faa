package core

import (
	"math"

	"tsq/internal/geom"
	"tsq/internal/transform"
)

// This file implements the DFT-prefix lower bound of the I/O-aware
// candidate pipeline: a distance bound computed from the indexed feature
// point alone, so a candidate whose bound already exceeds eps is
// rejected before its record page is fetched.
//
// Soundness is Parseval's theorem restricted to a coefficient subset.
// The predicate distance is D² = Σ_f |t(x)_f - t(y)_f|² over all n
// coefficients, every term non-negative, and the leaf entry stores
// exactly the inputs of terms 1..K (a point entry's Rect.Lo is the
// record's feature vector [mean, std, |F_1|, ∠F_1, ..., |F_K|, ∠F_K]).
// The partial sum over coefficients 1..K therefore lower-bounds D²; no
// qualifying record can be rejected. The partial sum is multiplied by the
// group's symmetry factor (group.sym), the same one the query
// rectangles are scaled by: 2 where the symmetry property (Eq. 6) is
// proven — for real series the mirror coefficient n-f conjugates
// coefficient f, and a transformation classified symmetric acts alike on
// mirror pairs, so term n-f equals term f — and 1 for any group holding a
// transformation that is not proven to. The comparison runs against
// transform.AbandonCutoff(eps), a hair above eps², so floating-point
// noise in the mirror coefficients can never turn the bound into a false
// dismissal.
//
// The bound is evaluated as a three-tier cascade (lbCascade below):
// each tier is a weakening of the next, costs less to evaluate, and
// runs only on the survivors of the previous tier, so the common case
// — a candidate far from the query — is dismissed by a handful of
// multiplications with no trigonometry at all. Every term of every tier
// is a form of the one per-coefficient term in
// internal/transform/term.go, which also states why each form bounds
// the next.
//
//	tier 0  magnitude-gap bound: per coefficient the squared gap between
//	        the moduli (transform.Term.Gap), at most the exact term, so
//	        anything the tier-0 sum dismisses, the full bound would
//	        dismiss too. No cosine, no phase access. (The mean/std
//	        feature slots cannot contribute a tier: the predicate
//	        distance is over normal forms, which the query rectangle
//	        reflects by leaving those dimensions unconstrained.)
//	tier 1  exact first-coefficient term: the tier-0 gap for
//	        coefficient 1 is replaced by the exact term
//	        (transform.Term.Exact), its cosine factored so that the
//	        whole transformation group shares one math.Sincos(φ₁) per
//	        candidate and the per-transformation work is multiply-add
//	        only (transform.Term.Cos).
//	tier 2  exact full prefix: coefficients 2..K replaced the same
//	        way, yielding exactly the sum prefixLB computes.
//
// Each replacement only grows the sum (exact term ≥ gap term), so a
// transformation dismissed at a tier stays dismissed at every later
// tier and the cascade's final dismissals equal the flat bound's. A
// candidate is skipped when every transformation of the group is
// dismissed; the tier at which the last one fell is reported so the
// per-tier counters (SkippedLB0/1/2) show where pruning pays.
//
// A two-sided group whose members only scale each indexed coefficient
// (group.scaled: B[2j] = 0 and phase multiplier ±1 for j = 1..K; moving
// averages, scalings, time shifts, Reverse, Inverted and their
// compositions) takes a factorized form: every term of every tier is
// a² times a term of the entry and the query alone (transform.Scaled),
// with a = A[2j] the member's magnitude multiplier. So an entry costs
// K gaps and, when some member survives tier 0, K exact terms (one
// Sincos per coefficient against the query's hoisted sine and cosine),
// and each tier is a K-term dot product of a member's weights a² with
// them. A member whose weights are coordinate-wise no smaller than
// another's is never the minimum of any tier: the terms are
// non-negative (an exact term is held at least at its gap), and rounding
// is monotone, so in floating point too a larger weight gives a product
// no smaller and a sum of such products, taken in the same order, no
// smaller. Such members are dropped when the cascade is built; of a
// moving-average set only the widest window, whose weights are the
// smallest at every low coefficient, survives.

// lbCascade evaluates the tiered DFT-prefix lower bound for one probe:
// one transformation group, one query, one eps. init hoists everything
// candidate-independent — the abandon cutoff, each member's term at each
// indexed coefficient (transform.NewTerm) and, for a scaled group, the
// query's side of the factored terms and the surviving members' weights
// — out of the per-candidate loop; skip then touches only the
// candidate's feature point. The scratch slices make a cascade single-goroutine; a probe
// arms the one in its scratch (rangeGroup, MTIndexNN) and its traversal
// is serial. init reuses the slices, so a warm probe allocates nothing.
type lbCascade struct {
	k    int
	nt   int
	cut  float64
	sym  float64
	term []transform.Term // transformation-major: term[ti*k + (j-1)]

	// Per-candidate scratch, four floats per coefficient (trig[4j:4j+4]).
	// The candidate's sin φ_j and cos φ_j are computed lazily — only when
	// some transformation survives its tier-0 bound — and shared by the
	// whole group through the factored phase constants, so a candidate
	// costs at most K Sincos calls no matter how many transformations the
	// group holds. rectLB keeps the sines and cosines of both ends of the
	// rectangle's phase intervals the same way (transform.SectorBound).
	trig    []float64
	havePhi []bool

	// The factorized form, set for a scaled group (see the file comment):
	// the weights A[2j]² of the nw members no other member dominates,
	// member-major (w[m*k + j-1]); the query's side of each coefficient's
	// term; and per candidate its gap terms and exact terms. slab backs
	// trig and the k-float slices.
	scaled     bool
	nw         int
	w          []float64
	query      []transform.Scaled
	gap, exact []float64
	keep       []bool // init's dominance marks, one per member
	slab       []float64
}

// resized returns s with length n, reusing its array when it holds n.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// init arms c for group g, query q and eps, with k indexed coefficients,
// reusing c's slices: the symmetry factor and the factorized form are the
// group's.
func (c *lbCascade) init(k int, g *group, q *Record, eps float64) {
	sub, oneSided := g.ts, g.oneSided
	c.k, c.nt, c.sym = k, len(sub), g.sym
	c.cut = transform.AbandonCutoff(eps)
	c.term = resized(c.term, len(sub)*k)
	c.slab = resized(c.slab, 6*k)
	c.trig, c.gap, c.exact = c.slab[:4*k], c.slab[4*k:5*k], c.slab[5*k:]
	c.havePhi = resized(c.havePhi, k)
	for ti, t := range sub {
		for j := 1; j <= k; j++ {
			c.term[ti*k+j-1] = transform.NewTerm(t, j, q.Mags[j], q.Phases[j], oneSided)
		}
	}
	c.scaled = g.scaled
	if !c.scaled {
		return
	}
	c.query = resized(c.query, k)
	for j := 1; j <= k; j++ {
		c.query[j-1] = transform.NewScaled(q.Mags[j], q.Phases[j])
	}
	c.w = resized(c.w, len(sub)*k)
	for i := range c.w {
		c.w[i] = c.term[i].Weight()
	}
	// Mark the dominated members first, then pack the others' rows to the
	// front: a row moves only over rows already decided.
	c.keep = resized(c.keep, len(sub))
	for ti := range sub {
		c.keep[ti] = true
		for o := range sub {
			if o != ti && dominates(c.w[o*k:(o+1)*k], c.w[ti*k:(ti+1)*k], o < ti) {
				c.keep[ti] = false
				break
			}
		}
	}
	c.nw = 0
	for ti := range sub {
		if c.keep[ti] {
			copy(c.w[c.nw*k:(c.nw+1)*k], c.w[ti*k:(ti+1)*k])
			c.nw++
		}
	}
}

// dominates reports whether weights w make every tier of the factorized
// cascade at most what weights v make it, so that a member with weights v
// never decides a skip: w <= v coordinate-wise. Of two equal rows one
// must stay, the one that comes first: first says whether w's does.
func dominates(w, v []float64, first bool) bool {
	for j := range w {
		if !(w[j] <= v[j]) { // a NaN dominates nothing and is dominated by nothing
			return false
		}
	}
	if first {
		return true
	}
	for j := range w {
		if w[j] < v[j] {
			return true
		}
	}
	return false
}

// rearm moves the cascade's cutoff to a new eps. Everything else it
// hoisted depends on the transformations and the query only, so a search
// whose threshold tightens as it runs (MTIndexNN: the k-th best distance
// so far) keeps one cascade. Like the kernels' cutoff it sits a hair
// above eps², so a dismissal proves d > eps strictly.
func (c *lbCascade) rearm(eps float64) { c.cut = transform.AbandonCutoff(eps) }

// skip reports whether the candidate at feature point feat is provably
// outside eps for every transformation of the group. The return value
// is the deepest tier (0, 1 or 2) any dismissal needed, or -1 when some
// transformation may still qualify and the candidate must be verified.
//
// The walk is transformation-major so the keep decision exits as early
// as the flat bound does: the first transformation whose exact prefix
// bound fits under the cutoff returns immediately, without touching the
// rest of the group. The tiers order the work per transformation — the
// cosine-free magnitude-gap bound first, the exact coefficient terms
// only for transformations that survive it — and the trigonometry that
// tier 1/2 work does need is shared: one lazily computed Sincos per
// coefficient serves every transformation through the factored phase
// constants. A scaled group takes the factorized form (skipScaled), every
// other group the per-transformation loop (skipEach); both decide alike
// and report the same tier.
func (c *lbCascade) skip(feat geom.Point) int {
	if c.scaled {
		return c.skipScaled(feat)
	}
	return c.skipEach(feat)
}

// skipScaled is skip in the factorized form: the entry's K gap terms once,
// then per surviving member a dot product of its weights with them; the K
// exact terms only when some member survives tier 0, the first of them
// alone for tier 1. Each exact term is held at least at its gap, so every
// tier is a non-negative combination of the weights and replacing a term
// never lowers a sum.
func (c *lbCascade) skipScaled(feat geom.Point) int {
	k := c.k
	gap, exact := c.gap, c.exact
	for j := 0; j < k; j++ {
		gap[j] = c.query[j].Gap(feat[2*(j+1)])
	}
	maxTier, haveExact := 0, 0
	for m := 0; m < c.nw; m++ {
		w := c.w[m*k : (m+1)*k]
		var s float64
		for j := 0; j < k; j++ {
			s += w[j] * gap[j]
		}
		if c.sym*s > c.cut {
			continue // dismissed at tier 0
		}
		if haveExact == 0 {
			c.exactTerm(feat, 0)
			haveExact = 1
		}
		s = w[0] * exact[0]
		for j := 1; j < k; j++ {
			s += w[j] * gap[j]
		}
		if c.sym*s > c.cut {
			maxTier = max(maxTier, 1)
			continue
		}
		for ; haveExact < k; haveExact++ {
			c.exactTerm(feat, haveExact)
		}
		s = 0
		for j := 0; j < k; j++ {
			s += w[j] * exact[j]
		}
		if c.sym*s > c.cut {
			maxTier = 2
			continue
		}
		return -1 // survives the full prefix bound: verify
	}
	return maxTier
}

// exactTerm computes the factorized exact term of coefficient j+1 with
// the cosine through the query's hoisted sine and cosine, held at least
// at the gap term, which it never falls below but by rounding.
func (c *lbCascade) exactTerm(feat geom.Point, j int) {
	m := feat[2*(j+1)]
	sinPhi, cosPhi := math.Sincos(feat[2*(j+1)+1])
	c.exact[j] = max(c.query[j].Exact(m, sinPhi, cosPhi), c.gap[j])
}

// skipEach is skip as a loop over the group's transformations, for a
// group that is not scaled.
func (c *lbCascade) skipEach(feat geom.Point) int {
	for j := 0; j < c.k; j++ {
		c.havePhi[j] = false
	}
	maxTier := 0
	for ti := 0; ti < c.nt; ti++ {
		tier, _ := c.member(feat, ti, c.cut)
		if tier < 0 {
			return -1 // survives the full prefix bound: verify
		}
		maxTier = max(maxTier, tier)
	}
	return maxTier
}

// member holds transformation ti's prefix sums at feat against cut, the
// way skipEach does: the tier whose sum first exceeds cut, or -1 when none
// does, and then the largest of the sums, the value member ti gives the
// entry. Lazily computed phase pairs are shared through c.havePhi, which
// the caller clears per entry.
func (c *lbCascade) member(feat geom.Point, ti int, cut float64) (tier int, v float64) {
	base := ti * c.k
	// Tier 0: magnitude gaps, no trigonometry and no stores — most
	// transformations die here, and the few that survive recompute the
	// gaps below.
	var s float64
	for j := 0; j < c.k; j++ {
		s += c.term[base+j].Gap(feat[2*(j+1)])
	}
	v = c.sym * s
	if v > cut {
		return 0, v
	}
	// Tiers 1 and 2: replace gap terms by exact terms, coefficient 1
	// first. Each replacement grows the sum but by rounding, so crossing
	// the cutoff mid-way proves the full prefix bound would cross it too.
	for j := 0; j < c.k; j++ {
		tm := &c.term[base+j]
		m, phi := feat[2*(j+1)], feat[2*(j+1)+1]
		if !c.havePhi[j] {
			c.trig[4*j], c.trig[4*j+1] = math.Sincos(phi)
			c.havePhi[j] = true
		}
		cosd := tm.Cos(phi, c.trig[4*j], c.trig[4*j+1])
		s += -tm.Gap(m) + tm.Exact(m, cosd)
		v = max(v, c.sym*s)
		if c.sym*s > cut {
			return min(j+1, 2), v
		}
	}
	return -1, v
}

// kept is skip's bound as a number, for the entry skip has just let
// through, and the key the NN search queues it under: the least over the
// group of what each member's sums give the entry, so that it exceeds a
// cutoff exactly when skip would dismiss the entry at that cutoff. A
// scaled member's sums only grow from tier to tier, so its value is its
// exact prefix sum; a looped member's is the largest of the sums
// member holds against the cutoff. skip leaves the terms at hand (a
// scaled group's exact terms, all of them; the loop's phase pairs), so
// the value costs no trigonometry of its own and is computed for the
// entries the NN search queues only.
func (c *lbCascade) kept(feat geom.Point) float64 {
	best := math.Inf(1)
	if c.scaled {
		for m := 0; m < c.nw; m++ {
			var s float64 // summed as skipScaled sums its tier 2
			for j, w := range c.w[m*c.k : (m+1)*c.k] {
				s += w * c.exact[j]
			}
			best = min(best, c.sym*s)
		}
		return best
	}
	// A member with a sum above best cannot lower it: member stops there.
	for ti := 0; ti < c.nt; ti++ {
		if tier, v := c.member(feat, ti, best); tier < 0 {
			best = v
		}
	}
	return best
}

// rectLB is the bound on an index rectangle: a lower bound, squared and
// times the symmetry factor like the sums skip compares, on the prefix
// bound of every feature point inside [lo, hi], hence on the distance of
// every record below the entry. Compare it with c.cut as skip does.
//
// Per coefficient a polar rectangle is an annular sector: magnitudes in
// an interval, phases in an interval. A member's bound is the sum of the
// least values its terms take over the sectors, times the symmetry
// factor, held first to the cosine-free gap sum as skip holds a point
// (transform.SectorBound); the least over the group is never above the
// point bound of any point of the rectangle. A transformation whose bound is
// at or below stop ends the evaluation: a range probe, which only asks
// whether the bound exceeds the cutoff, passes the cutoff; the NN
// search, which orders its queue by the value, passes a negative number.
func (c *lbCascade) rectLB(lo, hi geom.Point, stop float64) float64 {
	for j := 0; j < c.k; j++ {
		c.havePhi[j] = false
	}
	return transform.SectorBound(c.term[:c.nt*c.k], c.k, lo[2:], hi[2:], c.trig, c.havePhi, c.sym, c.cut, stop)
}

// prefixLB is the flat, single-tier form of the bound, the one of the
// original I/O-aware pipeline: for the candidate at feature point feat
// (Record.Feature layout), the least over the group of sym times the sum
// of the exact terms of coefficients 1..K that Verify sums, in its
// evaluation order (transform.Transform.PointTerm), never negative, in
// the squared units skip and rectLB compare with the cutoff. Like rectLB it stops at the first transformation at or
// below stop: a skip decision passes the cutoff, a caller that wants the
// least value a negative number. It recomputes the coefficient loads per
// call and is kept as the reference the cascade's dismissals are held to
// (RangeOptions.FlatLB, fused_test.go, ioaware_test.go,
// TestCascadeMatchesFlatDecisions); no query a user can write takes it.
func (ix *Index) prefixLB(feat geom.Point, sub []transform.Transform, q *Record, oneSided bool, sym, stop float64) float64 {
	best := math.Inf(1)
	for _, t := range sub {
		var s float64
		for j := 1; j <= ix.opts.K; j++ {
			s += t.PointTerm(j, feat[2*j], feat[2*j+1], q.Mags[j], q.Phases[j], oneSided)
		}
		if s = sym * max(s, 0); s <= stop {
			return s
		}
		best = min(best, s)
	}
	return best
}
