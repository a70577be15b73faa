package transform

import "math"

// This file holds the term of the distance, in every form a kernel or a
// bound takes it, and each form's arithmetic is written here only. Under
// a transformation t the squared distance is a sum over coefficients f
// of
//
//	|t(x)_f - t(y)_f|² = mu² + mv² - 2·mu·mv·cos(dp)
//
// the squared distance between complex numbers of signed magnitudes mu
// and mv whose arguments differ by dp. The mapping of t = (A, B) onto
// coefficient f gives mu = A[2f]·xm + B[2f] and, two-sided,
// mv = A[2f]·ym + B[2f] and dp = A[2f+1]·(xp - yp), the phase offsets
// cancelling; one-sided, t applies to x only, so mv = ym and
// dp = A[2f+1]·xp + B[2f+1] - yp.
//
// The mapping has two evaluation orders, each written once. The kernels
// take dp as written above (polar). The bounds hoist what does not depend
// on the entry they are taken at (NewTerm) and take dp as aPh·φ + c, with
// c = -aPh·yp two-sided; aPh·(xp - yp) and aPh·xp + c round differently,
// and the kernels' distances and the cascade's decisions are both pinned
// bit for bit.
//
// The forms:
//
//   - sqDiff, the point term with its cosine supplied, behind every
//     exact form (Verify, Pair, the cascade's exact tiers, prefixLB);
//   - gap and intervalGap, the tier-0 term for a point and for a modulus
//     known only to lie in an interval;
//   - Term, the hoisted state of one (transformation, coefficient) pair
//     against one query, with its factored cosine and its point forms;
//   - SectorBound, the least value of the term over an annular sector,
//     summed over a member's coefficients and minimised over a group;
//   - Scaled, the a²-factored form of a member that only scales the
//     coefficient.

// sqDiff is |u - v|² for u and v of signed magnitudes mu and mv whose
// arguments differ by an angle of cosine cosd: a coefficient's term.
func sqDiff(mu, mv, cosd float64) float64 {
	return mu*mu + mv*mv - 2*mu*mv*cosd
}

// gap is the tier-0 term (|mu| - |mv|)², which never exceeds the exact
// term at any cosine: since cos ≤ 1,
//
//	mu² + mv² - 2·mu·mv·cos(dp) ≥ mu² + mv² - 2·|mu|·|mv| = (|mu| - |mv|)²
//
// the reverse triangle inequality on the complex coefficients. So a sum
// of gaps is at most the sum of exact terms, and a bound that replaces
// gaps by exact terms only grows.
func gap(mu, mv float64) float64 {
	d := math.Abs(mu) - math.Abs(mv)
	return d * d
}

// intervalGap is gap for a modulus anywhere in [lo, hi] (0 ≤ lo ≤ hi)
// against the modulus v: the least of (u - v)² over u in that interval,
// the squared distance from v to it.
func intervalGap(lo, hi, v float64) float64 {
	d := max(0, lo-v, v-hi)
	return d * d
}

// cosDiff is cos(α - β) = cos α·cos β + sin α·sin β, from the sines and
// cosines of both angles.
func cosDiff(sinA, cosA, sinB, cosB float64) float64 {
	return cosA*cosB + sinA*sinB
}

// polar maps t = (A, B) onto coefficient f of the polar spectra x and
// y: the magnitudes and the phase difference its term is made of, in
// the kernels' evaluation order. It inlines, so a kernel's term costs
// the cosine and the arithmetic.
func polar(A, B []float64, f int, xm, xp, ym, yp float64, oneSided bool) (mu, mv, dp float64) {
	a, b, ap := A[2*f], B[2*f], A[2*f+1]
	mu = a*xm + b
	if oneSided {
		return mu, ym, ap*xp + B[2*f+1] - yp
	}
	return mu, a*ym + b, ap * (xp - yp)
}

// polarTerm is a coefficient's term given what polar returns for it.
func polarTerm(mu, mv, dp float64) float64 {
	return sqDiff(mu, mv, math.Cos(dp))
}

// termCos is the two-sided term of a coefficient whose magnitude
// component has multiplier a and offset b, with the cosine of its phase
// difference supplied: the form Pair sums from its cached cosines. It
// writes polar's two-sided magnitudes out rather than calling polar or
// a helper both share, because Pair's loop is four of these per block:
// polar would load a phase multiplier per term that the cached cosine
// does not need, and another nested inline leaves an inline mark per
// term in the loop, which costs it 7 % (BenchmarkKernelPolarPair16SharedSurvive
// on a 2-vCPU x86-64 host).
func termCos(a, b, xm, ym, cosd float64) float64 {
	return sqDiff(a*xm+b, a*ym+b, cosd)
}

// PointTerm is coefficient f's term under t of the polar coefficients
// (xm, xp) and (ym, yp), two-sided or one-sided: a term of the sum
// Verify takes, for a caller that holds one coefficient at a time.
func (t Transform) PointTerm(f int, xm, xp, ym, yp float64, oneSided bool) float64 {
	return polarTerm(polar(t.A, t.B, f, xm, xp, ym, yp, oneSided))
}

// Term is the hoisted state of one transformation's term at one
// coefficient j against one query: everything of it that does not
// depend on the entry the term is taken at. The entry's magnitude m maps
// to mu = aMag·m + bMag and its phase φ to dp = aPh·φ + cPh. Every
// built-in transformation has phase multiplier ±1 (convolutions and
// shifts are pure offsets, Reverse negates), and then the cosine is
// factored through the angle-addition identity,
// cos(±φ + c) = cos φ·cos c ∓ sin φ·sin c with c's sine and cosine
// hoisted, so that the members of a group share one math.Sincos(φ) per
// entry and the per-member work is multiply-add only; a general
// multiplier takes one direct math.Cos.
type Term struct {
	aMag, bMag float64 // t.A[2j], t.B[2j]
	mv, absMv  float64 // transformed query magnitude and its modulus
	aPh, cPh   float64 // dp = aPh·φ + cPh
	cosC, sinC float64 // cos cPh, sin cPh for the factored cosine
	neg        bool    // phase multiplier -1: flip the sine's sign
	direct     bool    // general multiplier: evaluate math.Cos directly
}

// NewTerm hoists coefficient j of t against the query coefficient
// (qm, qp), two-sided or one-sided, in the bounds' evaluation order.
func NewTerm(t Transform, j int, qm, qp float64, oneSided bool) Term {
	tm := Term{aMag: t.A[2*j], bMag: t.B[2*j], aPh: t.A[2*j+1]}
	if oneSided {
		// dp = aPh·φ + B[2j+1] - qp  =  aPh·φ + c
		tm.mv, tm.cPh = qm, t.B[2*j+1]-qp
	} else {
		// dp = aPh·(φ - qp)  =  aPh·φ + c
		tm.mv, tm.cPh = tm.mu(qm), -tm.aPh*qp
	}
	tm.absMv = math.Abs(tm.mv)
	switch tm.aPh {
	case 1:
		tm.sinC, tm.cosC = math.Sincos(tm.cPh)
	case -1:
		tm.neg = true
		tm.sinC, tm.cosC = math.Sincos(tm.cPh)
	default:
		tm.direct = true
	}
	return tm
}

// mu is the transformed magnitude of the entry magnitude m.
func (tm *Term) mu(m float64) float64 { return tm.aMag*m + tm.bMag }

// phase is the transformed phase difference dp at the entry phase phi.
func (tm *Term) phase(phi float64) float64 { return tm.aPh*phi + tm.cPh }

// Cos is cos(dp) at the entry phase phi, from phi's sine and cosine,
// which the caller computes once for every member of its group:
// cos(φ+c) = cosφ·cosc - sinφ·sinc and cos(-φ+c) = cos(φ-c).
func (tm *Term) Cos(phi, sinPhi, cosPhi float64) float64 {
	if tm.direct {
		return math.Cos(tm.phase(phi))
	}
	if tm.neg {
		return cosDiff(sinPhi, cosPhi, tm.sinC, tm.cosC)
	}
	return cosPhi*tm.cosC - sinPhi*tm.sinC
}

// Gap is the tier-0 term at the entry magnitude m.
func (tm *Term) Gap(m float64) float64 { return gap(tm.mu(m), tm.mv) }

// Exact is the exact term at the entry magnitude m, with the cosine of
// dp supplied (Cos).
func (tm *Term) Exact(m, cosd float64) float64 { return sqDiff(tm.mu(m), tm.mv, cosd) }

// Weight is the member's weight a² = aMag² in the factored form (Scaled).
func (tm *Term) Weight() float64 { return tm.aMag * tm.aMag }

// absMu returns the interval of |a·m + b| over m in [mLo, mHi] and the
// sign a·m + b has on it: 0 when the interval straddles zero, in which
// case aLo is 0.
func (tm *Term) absMu(mLo, mHi float64) (aLo, aHi float64, sign int) {
	m1, m2 := tm.mu(mLo), tm.mu(mHi)
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

// SectorBound is the bound of a group of members over a rectangle: the
// least over the members of sym times the sum of the term's least
// values over the annular sectors of the member's coefficients. terms
// holds k terms per member, member-major; term i of a member is taken
// over the entry magnitudes in [lo[2i], hi[2i]] and the entry phases in
// [lo[2i+1], hi[2i+1]], so lo and hi hold a (magnitude, phase) pair per
// coefficient. Each member's value is at most sym times the sum of its
// exact terms at every point of the rectangle. A member whose value is
// at or below stop ends the evaluation and is returned.
//
// A member is first held to the sum of the gaps over its magnitude
// intervals (intervalGap), which takes no cosine and is at most the
// sector sum, as gap is at most the exact term; when sym times it is
// above cut, that weaker sum is the member's value, which changes
// neither its comparison with cut nor a value at or below it.
//
// trig holds four floats per coefficient, the sines and cosines of the
// phase interval's ends (sin pLo, cos pLo, sin pHi, cos pHi);
// SectorBound computes them where have[i] is false and sets it, so that
// the members share them. It takes the whole group in one call because
// a term's body does not inline and the bound runs per tree entry.
//
// A term is the squared distance between complex numbers of moduli
// |mu|, |mv| an angle dp apart (dp + π when mu and mv differ in sign, as
// under a negative scale compared one-sided), so its minimum over the
// sector takes the largest cosine the transformed phase interval allows
// — 1 when the interval holds a multiple of 2π, else the larger of its
// endpoint cosines, cosine having no other interior maximum — and the
// modulus nearest |mv|·cos, the vertex of the parabola in |mu|, clamped
// into the modulus interval. Both intervals are images of the entry's
// under the affine maps a·m + b and aPh·φ + c, so every point term is at
// least the sector term, whatever the signs of a and aPh and for a
// general (direct) phase multiplier alike. A magnitude interval that
// straddles zero has no single sign to fold into the angle; its term
// falls back to the gap over the interval.
func SectorBound(terms []Term, k int, lo, hi, trig []float64, have []bool, sym, cut, stop float64) float64 {
	best := math.Inf(1)
	for base := 0; base < len(terms); base += k {
		var s float64
		for i := 0; i < k; i++ {
			tm := &terms[base+i]
			aLo, aHi, _ := tm.absMu(lo[2*i], hi[2*i])
			s += intervalGap(aLo, aHi, tm.absMv)
		}
		if sym*s <= cut {
			s = 0
			for i := 0; i < k; i++ {
				tm := &terms[base+i]
				v := tm.absMv
				aLo, aHi, sign := tm.absMu(lo[2*i], hi[2*i])
				if sign == 0 {
					s += intervalGap(aLo, aHi, v)
					continue
				}
				pLo, pHi := lo[2*i+1], hi[2*i+1]
				tr := trig[4*i : 4*i+4]
				if !have[i] {
					tr[0], tr[1] = math.Sincos(pLo)
					tr[2], tr[3] = math.Sincos(pHi)
					have[i] = true
				}
				d1, d2 := tm.phase(pLo), tm.phase(pHi)
				cos1, cos2 := tm.Cos(pLo, tr[0], tr[1]), tm.Cos(pHi, tr[2], tr[3])
				if (sign < 0) != (tm.mv < 0) {
					d1, d2, cos1, cos2 = d1+math.Pi, d2+math.Pi, -cos1, -cos2
				}
				cosd := max(cos1, cos2)
				if math.Ceil(min(d1, d2)/(2*math.Pi))*(2*math.Pi) <= max(d1, d2) {
					cosd = 1
				}
				mu := min(max(v*cosd, aLo), aHi)
				s += sqDiff(mu, v, cosd)
			}
		}
		v := sym * s
		if v <= stop {
			return v
		}
		best = min(best, v)
	}
	return best
}

// Scaled is the query's side of the term at one coefficient for a
// two-sided member that only scales it: B[2j] = 0 and phase multiplier
// ±1, so with a = A[2j] the magnitudes are mu = a·m and mv = a·qm and the
// phase difference is ±(φ - qφ), whose cosine is the same either way.
// Every form of the term is then a² times the same form of the entry and
// the query alone:
//
//	gap    (|a·m| - |a·qm|)²             = a²·(|m| - |qm|)²
//	exact  |a·m·e^{iφ} - a·qm·e^{iqφ}|²  = a²·(m² + qm² - 2·m·qm·cos(φ - qφ))
//
// so a group of such members costs one gap and at most one exact term
// per coefficient, and each member a dot product of its weights
// (Term.Weight) with them.
type Scaled struct {
	qm, sinQ, cosQ float64
}

// NewScaled hoists the query coefficient (qm, qp) of the factored form.
func NewScaled(qm, qp float64) Scaled {
	s := Scaled{qm: qm}
	s.sinQ, s.cosQ = math.Sincos(qp)
	return s
}

// Gap is the factored tier-0 term at the entry magnitude m.
func (s *Scaled) Gap(m float64) float64 { return gap(m, s.qm) }

// Exact is the factored exact term at the entry magnitude m and the
// entry phase whose sine and cosine are given.
func (s *Scaled) Exact(m, sinPhi, cosPhi float64) float64 {
	return sqDiff(m, s.qm, cosDiff(sinPhi, cosPhi, s.sinQ, s.cosQ))
}
