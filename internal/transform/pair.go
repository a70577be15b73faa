package transform

import (
	"fmt"
	"math"
)

// Pair is the verification kernel for one pair of polar spectra (x, y)
// under a transformation set: the distances D(t(x), t(y)) for t in the
// set, each with the early-abandoning contract of DistancePolarAbandon.
//
// What it saves is the cosine. The two-sided term of coefficient f is
//
//	mu² + mv² - 2·mu·mv·cos(a_phase·(xp[f] - yp[f]))
//
// and every transformation built from a convolution, a shift, a scaling
// or an inversion has a_phase = 1 at every coefficient, so the cosine
// does not depend on the transformation at all: a rectangle of 16 moving
// averages evaluates the same n cosines 16 times. Pair computes
// cos(xp[f] - yp[f]) once per pair, lazily, a four-coefficient block at
// a time as the deepest evaluation so far reaches it — an evaluation
// that abandons in its second block has paid for eight cosines, and the
// next transformation starts with those eight for free.
//
// Completed sums are bit-identical to DistancePolar's: 1·d == d exactly
// in IEEE arithmetic, so the cached cosine is the value polarTerm
// computes; the term itself is the one polarTermCos both share; and the
// loop below has DistancePolarAbandon's accumulators, block width,
// cutoff checks and combine order. The abandon decisions are therefore
// DistancePolarAbandon's too.
//
// A transformation with any other phase multiplier (Reverse, a
// hand-built one) and every one-sided evaluation, whose phase difference
// a_phase·xp + b_phase - yp keeps the transformation's offset, goes
// through the plain abandoning kernels.
//
// A Pair is reused: Init binds a set, Set binds a pair, and neither
// allocates once the cosine buffer has the series length (a set of more
// than len(sharedBuf) transformations costs one more allocation, once).
// It is not safe for concurrent use and, pointing into itself, must not
// be copied after Init. It is an index-side device only: the sequential
// scans that the index answers are checked against call the plain
// kernels and share no cache with it.
type Pair struct {
	ts        []Transform
	shared    []bool // ts[i] reads the cached cosines
	sharedBuf [32]bool
	oneSided  bool

	xm, xp, ym, yp []float64
	cos            []float64 // cos[f] = math.Cos(xp[f]-yp[f]) for f < filled
	filled         int
}

// Init binds the transformation set the distances are taken under, and
// the predicate form: two-sided D(t(x), t(y)) or one-sided D(t(x), y).
// It drops the pair of a previous Set.
func (p *Pair) Init(ts []Transform, oneSided bool) {
	p.Set(nil, nil, nil, nil)
	p.ts, p.oneSided = ts, oneSided
	if p.shared == nil {
		p.shared = p.sharedBuf[:0]
	}
	p.shared = p.shared[:0]
	for _, t := range ts {
		p.shared = append(p.shared, !oneSided && t.unitPhase())
	}
}

// unitPhase reports whether every phase multiplier of t is exactly 1.
func (t Transform) unitPhase() bool {
	for f := 1; f < len(t.A); f += 2 {
		if t.A[f] != 1 {
			return false
		}
	}
	return true
}

// Set binds the pair: x is the side a one-sided predicate transforms.
// The slices are read until the next Set or Init and never written.
func (p *Pair) Set(xm, xp, ym, yp []float64) {
	n := len(xm)
	if len(xp) != n || len(ym) != n || len(yp) != n {
		panic(fmt.Sprintf("transform: Pair.Set with lengths %d/%d/%d/%d", len(xm), len(xp), len(ym), len(yp)))
	}
	p.xm, p.xp, p.ym, p.yp = xm, xp, ym, yp
	p.filled = 0
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

// DistanceAbandon returns the distance of the bound pair under
// transformation i of the bound set, with the contract of
// DistancePolarAbandon (DistancePolarLeftAbandon when one-sided): when
// the partial sums prove the distance exceeds eps it returns (lb, true)
// with lb a lower bound of the distance, otherwise the bit-identical
// DistancePolar (DistancePolarLeft) value and false.
func (p *Pair) DistanceAbandon(i int, eps float64) (float64, bool) {
	t := p.ts[i]
	if !p.shared[i] {
		if p.oneSided {
			return t.DistancePolarLeftAbandon(p.xm, p.xp, p.ym, p.yp, eps)
		}
		return t.DistancePolarAbandon(p.xm, p.xp, p.ym, p.yp, eps)
	}
	n := t.N()
	xm, ym, cos := p.xm, p.ym, p.cos
	if len(xm) != n {
		panic(fmt.Sprintf("transform: Pair.DistanceAbandon on %q (n=%d) with a pair of length %d", t.Name, n, len(xm)))
	}
	cut := AbandonCutoff(eps)
	A, B := t.A, t.B
	var s0, s1, s2, s3 float64
	f := 0
	for ; f+4 <= n; f += 4 {
		if f+4 > p.filled {
			p.fill(f + 4)
		}
		s0 += polarTermCos(A[2*f], B[2*f], xm[f], ym[f], cos[f])
		s1 += polarTermCos(A[2*f+2], B[2*f+2], xm[f+1], ym[f+1], cos[f+1])
		s2 += polarTermCos(A[2*f+4], B[2*f+4], xm[f+2], ym[f+2], cos[f+2])
		s3 += polarTermCos(A[2*f+6], B[2*f+6], xm[f+3], ym[f+3], cos[f+3])
		if s := (s0 + s1) + (s2 + s3); s > cut {
			return math.Sqrt(s), true
		}
	}
	for ; f < n; f++ {
		if f >= p.filled {
			p.fill(f + 1)
		}
		s0 += polarTermCos(A[2*f], B[2*f], xm[f], ym[f], cos[f])
		if s := (s0 + s1) + (s2 + s3); s > cut {
			return math.Sqrt(s), true
		}
	}
	s := (s0 + s1) + (s2 + s3)
	if s < 0 {
		s = 0 // rounding noise on identical inputs
	}
	return math.Sqrt(s), false
}
