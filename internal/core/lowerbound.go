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
// group's symmetry factor (Index.symmetry), the same one the query
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
// multiplications with no trigonometry at all.
//
//	tier 0  magnitude-gap bound: per coefficient (|mu| - |mv|)², the
//	        reverse triangle inequality on the complex coefficients.
//	        Since cos ≤ 1, mu² + mv² - 2·mu·mv·cos(Δφ) ≥ (|mu|-|mv|)²,
//	        so the tier-0 sum never exceeds the exact prefix sum:
//	        anything it dismisses, the full bound would dismiss too.
//	        No cosine, no phase access. (The mean/std feature slots
//	        cannot contribute a tier: the predicate distance is over
//	        normal forms, which the query rectangle reflects by leaving
//	        those dimensions unconstrained.)
//	tier 1  exact first-coefficient term: the tier-0 gap for
//	        coefficient 1 is replaced by the exact polar term. The
//	        cosine is factored through the angle-addition identity —
//	        cos(±φ + c) = cos φ·cos c ∓ sin φ·sin c with c precomputed
//	        per transformation — so the whole transformation group
//	        shares one math.Sincos(φ₁) per candidate and the per-
//	        transformation work is multiply-add only. Every built-in
//	        transformation has phase multiplier ±1 (convolutions and
//	        shifts are pure offsets, Reverse negates); a general
//	        multiplier falls back to one direct math.Cos.
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
// (scaledGroup: B[2j] = 0 and phase multiplier ±1 for j = 1..K; moving
// averages, scalings, time shifts, Reverse, Inverted and their
// compositions) takes a factorized form. With a = A[2j], mu = a·m and
// mv = a·qm, and the phase difference ±(φ - qφ) whose cosine is the same
// either way, every term of every tier is a² times a term of the entry
// and the query alone:
//
//	tier 0  (|a·m| - |a·qm|)²             = a²·(|m| - |qm|)²
//	exact   |a·m·e^{iφ} - a·qm·e^{iqφ}|²  = a²·(m² + qm² - 2·m·qm·cos(φ - qφ))
//
// So an entry costs K gaps and, when some member survives tier 0, K
// exact terms (one Sincos per coefficient against the query's hoisted
// sine and cosine), and each tier is a K-term dot product of a member's
// weights a² with them. A member whose weights are coordinate-wise no
// smaller than another's is never the minimum of any tier: the terms are
// non-negative (an exact term is held at least at its gap), and rounding
// is monotone, so in floating point too a larger weight gives a product
// no smaller and a sum of such products, taken in the same order, no
// smaller. Such members are dropped when the cascade is built; of a
// moving-average set only the widest window, whose weights are the
// smallest at every low coefficient, survives.

// lbTerm is the hoisted per-(transformation, coefficient) state of the
// cascade: the magnitude coefficients, the transformed query magnitude
// (candidate-independent), and the factored phase constants.
type lbTerm struct {
	aMag, bMag float64 // t.A[2j], t.B[2j]
	mv         float64 // transformed query magnitude for coefficient j
	absMv      float64 // |mv|, the tier-0 comparand
	aPh        float64 // t.A[2j+1], used only on the direct path
	cPh        float64 // constant phase offset c in cos(aPh·φ + c)
	cosC, sinC float64 // cos c, sin c for the factored fast path
	neg        bool    // phase multiplier -1 (Reverse): flip the sin sign
	direct     bool    // general multiplier: evaluate math.Cos directly
}

// lbCascade evaluates the tiered DFT-prefix lower bound for one probe:
// one transformation group, one query, one eps. init hoists everything
// candidate-independent — the abandon cutoff, the A/B coefficient loads,
// the transformed query magnitudes, the factored phase constants and,
// for a scaled group, the surviving members' weights — out of the
// per-candidate loop; skip then touches only the candidate's feature
// point. The scratch slices make a cascade single-goroutine; a probe
// arms the one in its scratch (rangeGroup, MTIndexNN) and its traversal
// is serial. init reuses the slices, so a warm probe allocates nothing.
type lbCascade struct {
	k    int
	nt   int
	cut  float64
	sym  float64
	term []lbTerm // transformation-major: term[ti*k + (j-1)]

	// Per-candidate scratch. The candidate's (sin φ_j, cos φ_j) pairs
	// are computed lazily — only when some transformation survives its
	// tier-0 bound — and shared by the whole group through the factored
	// phase constants, so a candidate costs at most K Sincos calls no
	// matter how many transformations the group holds.
	// rectLB keeps the pairs of both ends of the rectangle's phase
	// intervals the same way. k floats each: sin φ, cos φ (the low end's
	// for a rectangle), then the high end's sin and cos.
	trig    []float64
	havePhi []bool

	// The factorized form, set for a scaled group (see the file comment):
	// the weights A[2j]² of the nw members no other member dominates,
	// member-major (w[m*k + j-1]); the query's magnitudes qm_j and the
	// sine and cosine of its phases; and per candidate its gap terms
	// (|m_j| - |qm_j|)² and exact terms. slab backs trig and the k-float
	// slices.
	scaled           bool
	nw               int
	w                []float64
	qMag, qSin, qCos []float64
	gap, exact       []float64
	keep             []bool // init's dominance marks, one per member
	slab             []float64
}

// resized returns s with length n, reusing its array when it holds n.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// init arms c for group sub, query q and eps under the symmetry factor
// sym, with k indexed coefficients, reusing c's slices.
func (c *lbCascade) init(k int, sub []transform.Transform, q *Record, eps float64, oneSided bool, sym float64) {
	c.k, c.nt, c.sym = k, len(sub), sym
	c.cut = transform.AbandonCutoff(eps)
	c.term = resized(c.term, len(sub)*k)
	c.slab = resized(c.slab, 9*k)
	c.trig = c.slab[:4*k]
	c.qMag, c.qSin, c.qCos = c.slab[4*k:5*k], c.slab[5*k:6*k], c.slab[6*k:7*k]
	c.gap, c.exact = c.slab[7*k:8*k], c.slab[8*k:]
	c.havePhi = resized(c.havePhi, k)
	for ti, t := range sub {
		for j := 1; j <= k; j++ {
			aPh := t.A[2*j+1]
			tm := lbTerm{aMag: t.A[2*j], bMag: t.B[2*j], aPh: aPh}
			if oneSided {
				// dp = aPh·φ + B[2j+1] - qPhase  =  aPh·φ + c
				tm.mv = q.Mags[j]
				tm.cPh = t.B[2*j+1] - q.Phases[j]
			} else {
				// dp = aPh·(φ - qPhase)  =  aPh·φ + c
				tm.mv = t.A[2*j]*q.Mags[j] + t.B[2*j]
				tm.cPh = -aPh * q.Phases[j]
			}
			tm.absMv = math.Abs(tm.mv)
			switch aPh {
			case 1:
				tm.sinC, tm.cosC = math.Sincos(tm.cPh)
			case -1:
				tm.neg = true
				tm.sinC, tm.cosC = math.Sincos(tm.cPh)
			default:
				tm.direct = true
			}
			c.term[ti*k+j-1] = tm
		}
	}
	c.scaled = scaledGroup(sub, k, oneSided)
	if !c.scaled {
		return
	}
	for j := 1; j <= k; j++ {
		c.qMag[j-1] = q.Mags[j]
		c.qSin[j-1], c.qCos[j-1] = math.Sincos(q.Phases[j])
	}
	c.w = resized(c.w, len(sub)*k)
	for ti := range sub {
		for j := 0; j < k; j++ {
			a := c.term[ti*k+j].aMag
			c.w[ti*k+j] = a * a
		}
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

// scaledGroup reports whether every member of a two-sided group only
// scales each indexed coefficient 1..k: no magnitude offset and a phase
// multiplier of ±1 (a phase offset cancels two-sided). Such a group
// takes the cascade's factorized form.
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

// cos evaluates cos(aPh·φ + c) from the candidate's shared
// (sin φ, cos φ) pair: cos(φ+c) = cosφ·cosc - sinφ·sinc and
// cos(-φ+c) = cosφ·cosc + sinφ·sinc. The direct path recomputes the
// cosine for a general phase multiplier.
func (tm *lbTerm) cos(phi, sinPhi, cosPhi float64) float64 {
	if tm.direct {
		return math.Cos(tm.aPh*phi + tm.cPh)
	}
	if tm.neg {
		return cosPhi*tm.cosC + sinPhi*tm.sinC
	}
	return cosPhi*tm.cosC - sinPhi*tm.sinC
}

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
		d := math.Abs(feat[2*(j+1)]) - math.Abs(c.qMag[j])
		gap[j] = d * d
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

// exactTerm computes the factorized exact term of coefficient j+1,
// m² + qm² - 2·m·qm·cos(φ - qφ) with the cosine through the query's
// hoisted sine and cosine, held at least at the gap term, which it never
// falls below but by rounding.
func (c *lbCascade) exactTerm(feat geom.Point, j int) {
	m := feat[2*(j+1)]
	sinPhi, cosPhi := math.Sincos(feat[2*(j+1)+1])
	qm := c.qMag[j]
	v := m*m + qm*qm - 2*m*qm*(cosPhi*c.qCos[j]+sinPhi*c.qSin[j])
	c.exact[j] = max(v, c.gap[j])
}

// skipEach is skip as a loop over the group's transformations, for a
// group that is not scaled.
func (c *lbCascade) skipEach(feat geom.Point) int {
	for j := 0; j < c.k; j++ {
		c.havePhi[j] = false
	}
	maxTier := 0
	for ti := 0; ti < c.nt; ti++ {
		base := ti * c.k
		// Tier 0 for this transformation: magnitude gaps, no
		// trigonometry and no stores — most transformations die here,
		// and the few that survive recompute the two multiplies below.
		var s float64
		for j := 0; j < c.k; j++ {
			tm := &c.term[base+j]
			mu := tm.aMag*feat[2*(j+1)] + tm.bMag
			gap := math.Abs(mu) - tm.absMv
			s += gap * gap
		}
		if c.sym*s > c.cut {
			continue // dismissed at tier 0
		}
		// Tiers 1 and 2: replace gap terms by exact polar terms,
		// coefficient 1 first. Each replacement only grows the sum, so
		// crossing the cutoff mid-way proves the full prefix bound
		// would cross it too.
		dismissedAt := -1
		for j := 0; j < c.k; j++ {
			tm := &c.term[base+j]
			phi := feat[2*(j+1)+1]
			if !c.havePhi[j] {
				c.trig[j], c.trig[c.k+j] = math.Sincos(phi)
				c.havePhi[j] = true
			}
			cosd := tm.cos(phi, c.trig[j], c.trig[c.k+j])
			mu := tm.aMag*feat[2*(j+1)] + tm.bMag
			gap := math.Abs(mu) - tm.absMv
			s += -(gap * gap) + (mu*mu + tm.mv*tm.mv - 2*mu*tm.mv*cosd)
			if c.sym*s > c.cut {
				if j == 0 {
					dismissedAt = 1
				} else {
					dismissedAt = 2
				}
				break
			}
		}
		if dismissedAt < 0 {
			return -1 // survives the full prefix bound: verify
		}
		if dismissedAt > maxTier {
			maxTier = dismissedAt
		}
	}
	return maxTier
}

// rectLB is the bound on an index rectangle: a lower bound, squared and
// times the symmetry factor like the sums skip compares, on the prefix
// bound of every feature point inside [lo, hi], hence on the distance of
// every record below the entry. Compare it with c.cut as skip does.
//
// Per coefficient a polar rectangle is an annular sector: magnitudes in
// an interval, phases in an interval. The point term
// mu² + mv² - 2·mu·mv·cos(dp) is the squared distance between complex
// numbers of moduli |mu|, |mv| an angle dp apart (dp + π when mu and mv
// differ in sign, as under a negative scale compared one-sided), so its
// minimum over the sector takes the largest cosine the transformed phase
// interval allows — 1 when the interval holds a multiple of 2π, else the
// larger of its endpoint cosines, cosine having no other interior maximum
// — and the modulus nearest |mv|·cos, the vertex of the parabola in |mu|,
// clamped into the magnitude interval. Both intervals are images of the
// entry's under the affine maps a·m + b and aPh·φ + c, so every point
// term is at least the sector term, whatever the signs of a and aPh and
// for a general (direct) phase multiplier alike. A magnitude interval
// that straddles zero has no single sign to fold into the angle; its
// term falls back to the tier-0 gap. The sum over the indexed
// coefficients, times the symmetry factor, minimised over the group, is
// never above the point bound of any point of the rectangle.
//
// Transformations are first held to the cosine-free gap sum, as in skip:
// one already above the cutoff contributes that weaker sum and costs no
// trigonometry, which changes neither the comparison with the cutoff nor
// a value at or below it. A transformation whose bound is at or below
// stop ends the evaluation: a range probe, which only asks whether the
// bound exceeds the cutoff, passes the cutoff; the NN search, which
// orders its queue by the value, passes a negative number.
func (c *lbCascade) rectLB(lo, hi geom.Point, stop float64) float64 {
	for j := 0; j < c.k; j++ {
		c.havePhi[j] = false
	}
	best := math.Inf(1)
	for ti := 0; ti < c.nt; ti++ {
		base := ti * c.k
		var s float64
		for j := 0; j < c.k; j++ {
			tm := &c.term[base+j]
			aLo, aHi, _ := tm.absMu(lo[2*(j+1)], hi[2*(j+1)])
			gap := max(0, aLo-tm.absMv, tm.absMv-aHi)
			s += gap * gap
		}
		if c.sym*s <= c.cut {
			s = 0
			for j := 0; j < c.k; j++ {
				tm := &c.term[base+j]
				aLo, aHi, sign := tm.absMu(lo[2*(j+1)], hi[2*(j+1)])
				if sign == 0 {
					gap := max(0, tm.absMv-aHi)
					s += gap * gap
					continue
				}
				pLo, pHi := lo[2*(j+1)+1], hi[2*(j+1)+1]
				if !c.havePhi[j] {
					c.trig[j], c.trig[c.k+j] = math.Sincos(pLo)
					c.trig[2*c.k+j], c.trig[3*c.k+j] = math.Sincos(pHi)
					c.havePhi[j] = true
				}
				d1, d2 := tm.aPh*pLo+tm.cPh, tm.aPh*pHi+tm.cPh
				cos1, cos2 := tm.cos(pLo, c.trig[j], c.trig[c.k+j]), tm.cos(pHi, c.trig[2*c.k+j], c.trig[3*c.k+j])
				if (sign < 0) != (tm.mv < 0) {
					d1, d2, cos1, cos2 = d1+math.Pi, d2+math.Pi, -cos1, -cos2
				}
				cosd := max(cos1, cos2)
				if math.Ceil(min(d1, d2)/(2*math.Pi))*(2*math.Pi) <= max(d1, d2) {
					cosd = 1
				}
				mu := min(max(tm.absMv*cosd, aLo), aHi)
				s += mu*mu + tm.absMv*tm.absMv - 2*mu*tm.absMv*cosd
			}
		}
		v := c.sym * s
		if v <= stop {
			return v
		}
		best = min(best, v)
	}
	return best
}

// absMu returns the interval of |a·m + b| over m in [mLo, mHi] and the
// sign a·m + b has on it: 0 when the interval straddles zero, in which
// case aLo is 0.
func (tm *lbTerm) absMu(mLo, mHi float64) (aLo, aHi float64, sign int) {
	m1, m2 := tm.aMag*mLo+tm.bMag, tm.aMag*mHi+tm.bMag
	if m1 > m2 {
		m1, m2 = m2, m1
	}
	switch {
	case m1 >= 0:
		return m1, m2, 1
	case m2 <= 0:
		return -m2, -m1, -1
	}
	return 0, max(-m1, m2), 0
}

// prefixLB is the flat, single-tier form of the bound, the one of the
// original I/O-aware pipeline: for the candidate at feature point feat
// (Record.Feature layout), the least over the group of sym times the sum
// of the exact DistancePolar / DistancePolarLeft terms of coefficients
// 1..K, never negative, in the squared units skip and rectLB compare with
// the cutoff. Like rectLB it stops at the first transformation at or
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
			mu := t.A[2*j]*feat[2*j] + t.B[2*j]
			var mv, dp float64
			if oneSided {
				mv = q.Mags[j]
				dp = t.A[2*j+1]*feat[2*j+1] + t.B[2*j+1] - q.Phases[j]
			} else {
				mv = t.A[2*j]*q.Mags[j] + t.B[2*j]
				dp = t.A[2*j+1] * (feat[2*j+1] - q.Phases[j])
			}
			s += mu*mu + mv*mv - 2*mu*mv*math.Cos(dp)
		}
		if s = sym * max(s, 0); s <= stop {
			return s
		}
		best = min(best, s)
	}
	return best
}
