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
// one transformation group, one query, one eps. The
// constructor hoists everything candidate-independent — the abandon
// cutoff, the A/B coefficient loads, the transformed query magnitudes,
// and the factored phase constants — out of the per-candidate loop;
// skip then touches only the candidate's feature point. The scratch
// slices make a cascade single-goroutine; a probe builds its own
// (rangeGroup, MTIndexNN) and its traversal is serial.
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
	// intervals the same way. One slab, k floats each: sin φ, cos φ (the
	// low end's for a rectangle), then the high end's sin and cos.
	trig    []float64
	havePhi []bool
}

// newLBCascade builds the cascade for one transformation group under its
// symmetry factor sym (Index.symmetry).
func (ix *Index) newLBCascade(sub []transform.Transform, q *Record, eps float64, oneSided bool, sym float64) *lbCascade {
	k := ix.opts.K
	c := &lbCascade{
		k:       k,
		nt:      len(sub),
		cut:     transform.AbandonCutoff(eps),
		sym:     sym,
		term:    make([]lbTerm, len(sub)*k),
		trig:    make([]float64, 4*k),
		havePhi: make([]bool, k),
	}
	for ti, t := range sub {
		for j := 1; j <= k; j++ {
			tm := &c.term[ti*k+j-1]
			tm.aMag = t.A[2*j]
			tm.bMag = t.B[2*j]
			aPh := t.A[2*j+1]
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
			tm.aPh = aPh
			switch aPh {
			case 1:
				tm.sinC, tm.cosC = math.Sincos(tm.cPh)
			case -1:
				tm.neg = true
				tm.sinC, tm.cosC = math.Sincos(tm.cPh)
			default:
				tm.direct = true
			}
		}
	}
	return c
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
// constants.
func (c *lbCascade) skip(feat geom.Point) int {
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
