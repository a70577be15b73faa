package transform

import (
	"fmt"
	"math"
)

// Pair is the verification kernel for one pair of polar spectra (x, y)
// under a transformation set: the distances D(t(x), t(y)) for t in the
// set, each with the early-abandoning contract of Verify.
//
// What it saves is the cosine. The two-sided term of coefficient f is
//
//	mu² + mv² - 2·mu·mv·cos(a_phase·(xp[f] - yp[f]))
//
// and every transformation built from a convolution, a shift, a scaling
// or an inversion has a_phase = 1 at every coefficient, so the cosine
// does not depend on the transformation at all: a rectangle of 16 moving
// averages evaluates the same cosines 16 times. Pair computes
// cos(xp[f] - yp[f]) once per pair, lazily, a four-coefficient block at
// a time as the deepest evaluation so far reaches it — an evaluation
// that abandons in its second block has paid for eight cosines (nine:
// the cache is filled from coefficient 0, which the loop of a symmetric
// sum skips), and the next transformation starts with those for free.
// Under symmetric transformations (see span) the loop never goes beyond
// coefficient n/2, so a pair costs at most ⌈n/2⌉+1 cosines.
//
// Sums are bit-identical to Verify's: 1·d == d exactly in IEEE
// arithmetic, so the cached cosine is the value polarTerm computes; the
// term itself is the one polarTermCos both share; and the loop below has
// Verify's span, accumulators, block width, cutoff checks and combine
// order. The abandon decisions are therefore Verify's too.
//
// A transformation with any other phase multiplier (Reverse, a
// hand-built one) and every one-sided evaluation, whose phase difference
// a_phase·xp + b_phase - yp keeps the transformation's offset, goes
// through Verify.
//
// A Pair is reused: Init binds a set, Set binds a pair, and neither
// allocates once the cosine buffer has the series length (a set of more
// than len(sharedBuf) transformations costs one more allocation, once).
// It is not safe for concurrent use and, pointing into itself, must not
// be copied after Init. The sequential scans that the index answers are
// checked against call Verify directly and share no cache with it.
type Pair struct {
	ts        []Transform
	shared    []bool // ts[i] reads the cached cosines
	sharedBuf [32]bool
	oneSided  bool

	xm, xp, ym, yp []float64
	cos            []float64 // cos[f] = math.Cos(xp[f]-yp[f]) for f < filled, and for f = n/2 once mid
	filled         int
	mid            bool
}

// Init binds the transformation set the distances are taken under, and
// the predicate form: two-sided D(t(x), t(y)) or one-sided D(t(x), y).
// It drops the pair of a previous Set. It reads the transformations'
// classification only, never their vectors.
func (p *Pair) Init(ts []Transform, oneSided bool) {
	p.Set(nil, nil, nil, nil)
	p.ts, p.oneSided = ts, oneSided
	if p.shared == nil {
		p.shared = p.sharedBuf[:0]
	}
	p.shared = p.shared[:0]
	for i := range ts {
		p.shared = append(p.shared, !oneSided && ts[i].class&unitPhase != 0)
	}
}

// Set binds the pair: x is the side a one-sided predicate transforms.
// The slices are read until the next Set or Init and never written.
func (p *Pair) Set(xm, xp, ym, yp []float64) {
	n := len(xm)
	if len(xp) != n || len(ym) != n || len(yp) != n {
		panic(fmt.Sprintf("transform: Pair.Set with lengths %d/%d/%d/%d", len(xm), len(xp), len(ym), len(yp)))
	}
	p.xm, p.xp, p.ym, p.yp = xm, xp, ym, yp
	p.filled, p.mid = 0, false
	if cap(p.cos) < n {
		p.cos = make([]float64, n)
	}
	p.cos = p.cos[:n]
}

// fill extends the cached cosines to coefficients [filled, to).
func (p *Pair) fill(to int) {
	for f := p.filled; f < to; f++ {
		p.cos[f] = math.Cos(p.xp[f] - p.yp[f])
	}
	p.filled = to
}

// edgeTerm is an edge term of a symmetric sum: coefficient 0 or n/2.
// The cosine of n/2 is cached apart from the blocks, which stop short of
// it, and that of 0 is there unless the loop was empty.
func (p *Pair) edgeTerm(t *Transform, f int) float64 {
	if cached := f < p.filled || (f > 0 && p.mid); !cached {
		p.cos[f] = math.Cos(p.xp[f] - p.yp[f])
		if f == 0 {
			p.filled = 1
		} else {
			p.mid = true
		}
	}
	return polarTermCos(t.A[2*f], t.B[2*f], p.xm[f], p.ym[f], p.cos[f])
}

// DistanceAbandon returns the distance of the bound pair under
// transformation i of the bound set, with the contract and the results
// of Verify: when the partial sums prove the distance exceeds eps it
// returns (lb, true, …) with lb a lower bound of the distance, otherwise
// the distance and false; terms is the number of coefficient terms it
// evaluated.
func (p *Pair) DistanceAbandon(i int, eps float64) (d float64, abandoned bool, terms int) {
	t := &p.ts[i]
	if !p.shared[i] {
		return t.Verify(p.xm, p.xp, p.ym, p.yp, p.oneSided, eps)
	}
	n := t.N()
	xm, ym, cos := p.xm, p.ym, p.cos
	if len(xm) != n {
		panic(fmt.Sprintf("transform: Pair.DistanceAbandon on %q (n=%d) with a pair of length %d", t.Name, n, len(xm)))
	}
	cut := AbandonCutoff(eps)
	A, B := t.A, t.B
	symmetric := t.class&symTwoSided != 0
	lo, hi, weight, mid := span(n, symmetric)
	var s0, s1, s2, s3 float64
	f := lo
	for ; f+4 <= hi; f += 4 {
		if f+4 > p.filled {
			p.fill(f + 4)
		}
		s0 += polarTermCos(A[2*f], B[2*f], xm[f], ym[f], cos[f])
		s1 += polarTermCos(A[2*f+2], B[2*f+2], xm[f+1], ym[f+1], cos[f+1])
		s2 += polarTermCos(A[2*f+4], B[2*f+4], xm[f+2], ym[f+2], cos[f+2])
		s3 += polarTermCos(A[2*f+6], B[2*f+6], xm[f+3], ym[f+3], cos[f+3])
		if s := weight * ((s0 + s1) + (s2 + s3)); s > cut {
			return math.Sqrt(s), true, f + 4 - lo
		}
	}
	for ; f < hi; f++ {
		if f >= p.filled {
			p.fill(f + 1)
		}
		s0 += polarTermCos(A[2*f], B[2*f], xm[f], ym[f], cos[f])
		if s := weight * ((s0 + s1) + (s2 + s3)); s > cut {
			return math.Sqrt(s), true, f + 1 - lo
		}
	}
	s := weight * ((s0 + s1) + (s2 + s3))
	if symmetric {
		s, terms = s+p.edgeTerm(t, 0), 1
		if mid > 0 {
			s, terms = s+p.edgeTerm(t, mid), 2
		}
	}
	if s < 0 {
		s = 0 // rounding noise on identical inputs
	}
	return math.Sqrt(s), s > cut, terms + hi - lo
}
