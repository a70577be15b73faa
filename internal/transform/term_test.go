package transform

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// The forms of the term in term.go are held here to the term computed in
// the complex domain, |t(x)_f - t(y)_f|² = cmplx.Abs(u - v)², with u and
// v the transformed coefficients built by cmplx.Rect: the point forms
// equal it, the gaps never exceed it, and the sector bound is at most it
// at every point of the sector and equal to it on a sector that is a
// point. The maps are drawn to reach every path no built-in reaches:
// negative scales, magnitude offsets that cross zero inside a sector,
// phase multipliers of -1 and general ones, one-sided forms, and phase
// intervals that wrap after the map.

// termCoef is one coefficient's map: mu = a·m + b, phase ap·p + bp.
type termCoef struct{ a, b, ap, bp float64 }

// randomCoef draws a coefficient map: scales of either sign, magnitude
// offsets that may cross zero, and phase multipliers 1, -1 or general.
func randomCoef(rng *rand.Rand) termCoef {
	c := termCoef{a: 0.2 + 2*rng.Float64(), bp: (2*rng.Float64() - 1) * 4}
	if rng.Intn(3) == 0 {
		c.a = -c.a
	}
	if rng.Intn(3) == 0 {
		c.b = (2*rng.Float64() - 1) * 6
	}
	switch rng.Intn(4) {
	case 0:
		c.ap = 1
	case 1:
		c.ap = -1
	case 2:
		c.ap = []float64{2, -0.5, 3.7, -2.3}[rng.Intn(4)]
	default:
		c.ap = 1
		c.bp = 0 // a pure scale: the factored form applies
	}
	return c
}

// transformOf is a transformation over n coefficients with map c at
// every coefficient.
func transformOf(c termCoef, n int) Transform {
	t := Transform{Name: "term", A: make([]float64, 2*n), B: make([]float64, 2*n)}
	for f := 0; f < n; f++ {
		t.A[2*f], t.B[2*f], t.A[2*f+1], t.B[2*f+1] = c.a, c.b, c.ap, c.bp
	}
	return t
}

// complexTerm is the reference: the squared modulus of the difference of
// the transformed entry coefficient (m, p) and the query's side, the
// query (qm, qp) transformed too when two-sided.
func complexTerm(c termCoef, m, p, qm, qp float64, oneSided bool) float64 {
	u := cmplx.Rect(c.a*m+c.b, c.ap*p+c.bp)
	v := cmplx.Rect(qm, qp)
	if !oneSided {
		v = cmplx.Rect(c.a*qm+c.b, c.ap*qp+c.bp)
	}
	d := cmplx.Abs(u - v)
	return d * d
}

// complexGap is the reference gap: the squared difference of the two
// transformed coefficients' moduli.
func complexGap(c termCoef, m, p, qm, qp float64, oneSided bool) float64 {
	u := cmplx.Abs(cmplx.Rect(c.a*m+c.b, c.ap*p+c.bp))
	v := math.Abs(qm)
	if !oneSided {
		v = math.Abs(c.a*qm + c.b)
	}
	return (u - v) * (u - v)
}

// termTol is the rounding the forms may differ from the reference by:
// relative to the squared size of the coefficients involved.
func termTol(c termCoef, m, qm float64) float64 {
	s := math.Abs(c.a*m+c.b) + math.Abs(c.a*qm+c.b) + math.Abs(qm)
	return 1e-11 * (s*s + 1)
}

// TestTermPointFormsMatchComplex: the kernels' term (polar and
// polarTerm, PointTerm, the cached-cosine termCos), the bounds' hoisted
// term (NewTerm with its factored or direct cosine) and the factored
// form of a pure scale (Scaled, times a²) all equal the complex term,
// and every gap equals the complex gap and never exceeds the term.
func TestTermPointFormsMatchComplex(t *testing.T) {
	const n, j = 8, 3
	rng := rand.New(rand.NewSource(56))
	for trial := 0; trial < 20000; trial++ {
		c := randomCoef(rng)
		tr := transformOf(c, n)
		oneSided := rng.Intn(2) == 0
		m, qm := 8*rng.Float64(), 8*rng.Float64()
		p, qp := (2*rng.Float64()-1)*math.Pi, (2*rng.Float64()-1)*math.Pi
		want, wantGap := complexTerm(c, m, p, qm, qp, oneSided), complexGap(c, m, p, qm, qp, oneSided)
		tol := termTol(c, m, qm)
		check := func(form string, got, want float64) {
			t.Helper()
			if math.Abs(got-want) > tol {
				t.Fatalf("trial %d, %+v one-sided=%v: %s = %v, complex %v", trial, c, oneSided, form, got, want)
			}
		}

		check("polarTerm", polarTerm(polar(tr.A, tr.B, j, m, p, qm, qp, oneSided)), want)
		check("PointTerm", tr.PointTerm(j, m, p, qm, qp, oneSided), want)
		if !oneSided {
			check("termCos", termCos(c.a, c.b, m, qm, math.Cos(c.ap*(p-qp))), want)
		}

		tm := NewTerm(tr, j, qm, qp, oneSided)
		sinP, cosP := math.Sincos(p)
		exact := tm.Exact(m, tm.Cos(p, sinP, cosP))
		check("Term.Exact", exact, want)
		check("Term.Gap", tm.Gap(m), wantGap)
		if g := tm.Gap(m); g > exact+tol {
			t.Fatalf("trial %d: gap %v above the exact term %v", trial, g, exact)
		}

		if !oneSided && c.b == 0 && math.Abs(c.ap) == 1 {
			s := NewScaled(qm, qp)
			w := tm.Weight()
			check("Scaled.Exact", w*s.Exact(m, sinP, cosP), want)
			check("Scaled.Gap", w*s.Gap(m), wantGap)
		}
	}
}

// sectorCase is one coefficient's sector: the entry magnitudes
// [mLo, mHi] and phases [pLo, pHi], against the query (qm, qp).
type sectorCase struct {
	c              termCoef
	mLo, mHi       float64
	pLo, pHi       float64
	qm, qp         float64
	oneSided, wrap bool
}

// randomSectorCase draws a sector: magnitude intervals from a point to
// most of the range, a third of them placed where a·m + b crosses zero;
// phase intervals from a point to the whole circle and, under a general
// multiplier, wider than a turn after the map.
func randomSectorCase(rng *rand.Rand) sectorCase {
	c := randomCoef(rng)
	s := sectorCase{c: c, qm: 8 * rng.Float64(), qp: (2*rng.Float64() - 1) * math.Pi, oneSided: rng.Intn(2) == 0}
	a, b := 8*rng.Float64(), 8*rng.Float64()
	if rng.Intn(4) == 0 {
		b = a + rng.Float64()*0.05
	}
	s.mLo, s.mHi = min(a, b), max(a, b)
	if rng.Intn(3) == 0 {
		// Straddle zero: an offset against the scale's sign puts the
		// zero z of a·m + b at a positive magnitude inside the interval.
		s.c.b = -math.Copysign(1+4*rng.Float64(), c.a)
		z, w := -s.c.b/c.a, 0.1+3*rng.Float64()
		s.mLo, s.mHi = max(0, z-w*rng.Float64()), z+w*rng.Float64()
	}
	p := (2*rng.Float64() - 1) * math.Pi
	w := rng.Float64() * 2 * math.Pi
	if rng.Intn(4) == 0 {
		w = 0
	}
	s.pLo, s.pHi = max(p-w/2, -math.Pi), min(p+w/2, math.Pi)
	d1, d2 := phaseDiff(s, s.pLo), phaseDiff(s, s.pHi)
	s.wrap = math.Floor(min(d1, d2)/math.Pi) != math.Floor(max(d1, d2)/math.Pi)
	return s
}

// phaseDiff is the transformed phase difference at the entry phase p.
func phaseDiff(s sectorCase, p float64) float64 {
	if s.oneSided {
		return s.c.ap*p + s.c.bp - s.qp
	}
	return s.c.ap * (p - s.qp)
}

// samplePhases are the entry phases the sector is probed at: the ends,
// every phase where the transformed difference is a multiple of π (the
// points of cosine ±1, where the rule for an interval holding 2πk
// matters) and interior points.
func samplePhases(rng *rand.Rand, s sectorCase) []float64 {
	ps := []float64{s.pLo, s.pHi}
	d1, d2 := phaseDiff(s, s.pLo), phaseDiff(s, s.pHi)
	for k := math.Ceil(min(d1, d2) / math.Pi); k*math.Pi <= max(d1, d2); k++ {
		// Invert the phase map: p with phaseDiff(s, p) = kπ.
		p := (k*math.Pi - phaseDiff(s, 0)) / s.c.ap
		ps = append(ps, min(max(p, s.pLo), s.pHi))
	}
	for i := 0; i < 6; i++ {
		ps = append(ps, s.pLo+rng.Float64()*(s.pHi-s.pLo))
	}
	return ps
}

// pointMinimum is the least of the complex term over the sampled points
// of the sector: at each sampled phase, the magnitude ends, the
// magnitude where a·m + b crosses zero, and the magnitude the term is
// least at for that phase (the vertex mv·cos(dp) of the parabola in the
// signed mu), each clamped into the interval.
func pointMinimum(rng *rand.Rand, s sectorCase) (least float64, at [2]float64) {
	mv := s.qm
	if !s.oneSided {
		mv = s.c.a*s.qm + s.c.b
	}
	least = math.Inf(1)
	for _, p := range samplePhases(rng, s) {
		ms := []float64{s.mLo, s.mHi, -s.c.b / s.c.a, (mv*math.Cos(phaseDiff(s, p)) - s.c.b) / s.c.a}
		for i := 0; i < 3; i++ {
			ms = append(ms, s.mLo+rng.Float64()*(s.mHi-s.mLo))
		}
		for _, m := range ms {
			m = min(max(m, s.mLo), s.mHi)
			if v := complexTerm(s.c, m, p, s.qm, s.qp, s.oneSided); v < least {
				least, at = v, [2]float64{m, p}
			}
		}
	}
	return least, at
}

// sectorOf is the bound of one member with s's sector at every one of
// its k coefficients, and the gap-only bound (cut below any value).
func sectorOf(s sectorCase, k int) (full, gaps float64) {
	tr := transformOf(s.c, k+1)
	terms := make([]Term, k)
	lo, hi := make([]float64, 2*k), make([]float64, 2*k)
	for i := range terms {
		terms[i] = NewTerm(tr, i+1, s.qm, s.qp, s.oneSided)
		lo[2*i], hi[2*i], lo[2*i+1], hi[2*i+1] = s.mLo, s.mHi, s.pLo, s.pHi
	}
	trig, have := make([]float64, 4*k), make([]bool, k)
	full = SectorBound(terms, k, lo, hi, trig, have, 1, math.Inf(1), -1)
	clear(have)
	gaps = SectorBound(terms, k, lo, hi, trig, have, 1, -1, -1)
	return full, gaps
}

// TestSectorBoundNeverAboveComplex: over random sectors (negative
// scales, straddled magnitude intervals, phase multipliers 1, -1 and
// general, one- and two-sided, phase intervals that wrap after the map)
// the sector bound is at most the complex term at every sampled point,
// the gap-only bound at most the sector bound, and on a sector that is a
// point the bound is the point's term. Each rule of the sector minimum
// is needed: taking the smaller endpoint cosine, dropping the cosine 1
// of an interval that holds 2πk, or folding a straddled magnitude
// interval into one sign puts the bound above some point of the sector.
func TestSectorBoundNeverAboveComplex(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	var straddled, wrapped int
	for trial := 0; trial < 20000; trial++ {
		s := randomSectorCase(rng)
		full, gaps := sectorOf(s, 1)
		least, at := pointMinimum(rng, s)
		tol := termTol(s.c, s.mHi, s.qm)
		if full > least+tol {
			t.Fatalf("trial %d, %+v: sector bound %v above the term %v at (m, p) = %v", trial, s, full, least, at)
		}
		if gaps > full+tol {
			t.Fatalf("trial %d, %+v: gap bound %v above the sector bound %v", trial, s, gaps, full)
		}
		if s.c.a*s.mLo+s.c.b < 0 && s.c.a*s.mHi+s.c.b > 0 || s.c.a*s.mLo+s.c.b > 0 && s.c.a*s.mHi+s.c.b < 0 {
			straddled++
		}
		if s.wrap {
			wrapped++
		}

		// A point sector: the bound is the term there.
		pt := s
		pt.mHi, pt.pHi = s.mLo, s.pLo
		got, _ := sectorOf(pt, 1)
		want := complexTerm(s.c, s.mLo, s.pLo, s.qm, s.qp, s.oneSided)
		if math.Abs(got-want) > tol {
			t.Fatalf("trial %d, %+v: point sector %v, term %v", trial, pt, got, want)
		}
	}
	if straddled < 2000 || wrapped < 2000 {
		t.Errorf("coverage: %d straddled and %d wrapped sectors, want 2000 of each", straddled, wrapped)
	}
}

// TestSectorBoundOverMembers: over a group, the bound is the least of
// its members' bounds, each a sum over coefficients; the members share
// the phase ends' sines and cosines; and stop ends the evaluation at the
// first member at or below it.
func TestSectorBoundOverMembers(t *testing.T) {
	const k = 3
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 2000; trial++ {
		nm := 1 + rng.Intn(4)
		oneSided := rng.Intn(2) == 0
		sym := []float64{1, 2}[rng.Intn(2)]
		terms := make([]Term, nm*k)
		lo, hi := make([]float64, 2*k), make([]float64, 2*k)
		qm, qp := make([]float64, k), make([]float64, k)
		for i := 0; i < k; i++ {
			s := randomSectorCase(rng)
			lo[2*i], hi[2*i], lo[2*i+1], hi[2*i+1] = s.mLo, s.mHi, s.pLo, s.pHi
			qm[i], qp[i] = s.qm, s.qp
		}
		each := make([]float64, nm)
		for mi := 0; mi < nm; mi++ {
			tr := transformOf(randomCoef(rng), k+1)
			for i := 0; i < k; i++ {
				terms[mi*k+i] = NewTerm(tr, i+1, qm[i], qp[i], oneSided)
			}
			each[mi] = SectorBound(terms[mi*k:mi*k+k], k, lo, hi, make([]float64, 4*k), make([]bool, k), sym, math.Inf(1), -1)
			var sum float64
			for i := 0; i < k; i++ {
				one := SectorBound(terms[mi*k+i:mi*k+i+1], 1, lo[2*i:2*i+2], hi[2*i:2*i+2], make([]float64, 4), make([]bool, 1), 1, math.Inf(1), -1)
				sum += one
			}
			if d := math.Abs(each[mi] - sym*sum); d > 1e-9*(each[mi]+1) {
				t.Fatalf("trial %d member %d: bound %v, sum of its coefficients' %v", trial, mi, each[mi], sym*sum)
			}
		}
		least := math.Inf(1)
		for _, v := range each {
			least = min(least, v)
		}
		trig, have := make([]float64, 4*k), make([]bool, k)
		if got := SectorBound(terms, k, lo, hi, trig, have, sym, math.Inf(1), -1); got != least {
			t.Fatalf("trial %d: group bound %v, least member %v (%v)", trial, got, least, each)
		}
		if got := SectorBound(terms, k, lo, hi, trig, have, sym, math.Inf(1), math.Inf(1)); got != each[0] {
			t.Fatalf("trial %d: stop above every value returned %v, want the first member's %v", trial, got, each[0])
		}
	}
}

// TestIntervalGapIsLeastGap: the gap over a modulus interval is the
// least point gap in it, zero when the interval holds the modulus.
func TestIntervalGapIsLeastGap(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10000; trial++ {
		a, b, v := 5*rng.Float64(), 5*rng.Float64(), 5*rng.Float64()
		lo, hi := min(a, b), max(a, b)
		got := intervalGap(lo, hi, v)
		least := math.Inf(1)
		for _, u := range []float64{lo, hi, min(max(v, lo), hi), lo + rng.Float64()*(hi-lo)} {
			least = min(least, gap(u, v))
		}
		if math.Abs(got-least) > 1e-12*(v*v+hi*hi) {
			t.Fatalf("intervalGap(%v, %v, %v) = %v, least point gap %v", lo, hi, v, got, least)
		}
		if v >= lo && v <= hi && got != 0 {
			t.Fatalf("intervalGap(%v, %v, %v) = %v with the modulus inside", lo, hi, v, got)
		}
	}
}
