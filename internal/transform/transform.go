// Package transform implements the paper's transformation algebra: linear
// transformations t = (a, b) over the polar Fourier representation of a
// time series (Sec. 3), constructors for the operations the paper builds
// on them (moving average, momentum, time shift, scaling, inversion),
// composition of transformations and transformation sets (Sec. 3.3,
// Eqs. 10-11), and the ordering notion of Sec. 4.4 (Definition 1).
//
// # Representation
//
// A series of length n has n complex DFT coefficients. Following
// Sec. 3.1.1, each coefficient X_f is mapped to the real pair
// (|X_f|, angle(X_f)), so the whole spectrum becomes a real vector of
// length 2n with magnitudes at even positions and phases at odd positions.
// A transformation is a pair of real 2n-vectors (A, B); applying it maps
// component i of that vector to A[i]*v + B[i]. Convolution-style
// operations (moving average, momentum, shift) multiply magnitudes and add
// to phases, so for them A[2f] = sqrt(n)*|M_f|, B[2f] = 0, A[2f+1] = 1,
// B[2f+1] = angle(M_f) — the sqrt(n) comes from the unitary DFT
// convention (see dft.Convolve).
package transform

import (
	"fmt"
	"math"
	"math/cmplx"

	"tsq/internal/dft"
	"tsq/internal/series"
)

// Transform is a linear transformation over the polar Fourier
// representation of a length-n series. A and B have length 2n; component
// 2f acts on the magnitude of coefficient f and component 2f+1 on its
// phase.
//
// Build one with a constructor of this package, or with New from
// hand-made vectors: the constructors classify A and B (see class) and
// the distance kernels pick their summation from that classification. A
// struct literal is unclassified and always takes the full sum. Writing
// to A or B after construction is unsupported: the classification is not
// recomputed, and the kernels would act on what the vectors used to be.
type Transform struct {
	// Name identifies the transformation in query plans and test output,
	// e.g. "mv12" or "shift3".
	Name string
	A, B []float64

	class class
}

// class is what New established about a transformation's vectors, once,
// so that no query has to look at them again.
type class uint8

const (
	// unitPhase: every phase multiplier is exactly 1, so the two-sided
	// cosine cos(a_phase·(xp-yp)) is the same for every such
	// transformation and Pair may share it.
	unitPhase class = 1 << iota
	// symTwoSided: on spectra of real series, term n-f of the two-sided
	// sum equals term f. Magnitude multipliers and offsets are
	// mirror-equal within symTol, and the phase multipliers of a mirror
	// pair are integers of equal absolute value (the phases of a mirror
	// pair are negatives of each other modulo 2π, and only an integer
	// multiple of a phase is defined modulo 2π).
	symTwoSided
	// symOneSided: the same for the one-sided sum, whose phase difference
	// a_phase·xp + b_phase - yp keeps the offset. It needs, in addition,
	// equal phase multipliers and phase offsets that are negatives of
	// each other modulo 2π within symTol, except where both magnitude
	// entries vanish within the tolerance and the phase of the
	// transformed coefficient carries no weight (the nulls of a moving
	// average, whose phase is rounding noise).
	symOneSided
)

// symTol is the tolerance of the classification: mirror magnitude
// entries may differ by symTol times the largest magnitude entry of the
// transformation, mirror phase offsets by symTol radians. The built-ins
// are symmetric analytically and miss it by a few ulps of FFT rounding;
// anything further off keeps the full sum.
const symTol = 1e-10

// New returns the transformation with the given vectors, classified. It
// is how a hand-made or decoded (A, B) pair becomes a Transform; a and b
// are kept, not copied.
func New(name string, a, b []float64) Transform {
	t := Transform{Name: name, A: a, B: b}
	t.validate()
	n := t.N()
	t.class = unitPhase | symTwoSided | symOneSided
	var scale float64
	for f := 0; f < n; f++ {
		if a[2*f+1] != 1 {
			t.class &^= unitPhase
		}
		scale = max(scale, math.Abs(a[2*f]), math.Abs(b[2*f]))
	}
	tol := symTol * scale
	for f := 1; 2*f < n; f++ {
		g := n - f
		if math.Abs(a[2*f]-a[2*g]) > tol || math.Abs(b[2*f]-b[2*g]) > tol ||
			a[2*f+1] != math.Trunc(a[2*f+1]) || math.Abs(a[2*f+1]) != math.Abs(a[2*g+1]) {
			t.class &^= symTwoSided | symOneSided
			break
		}
		null := max(math.Abs(a[2*f]), math.Abs(b[2*f]), math.Abs(a[2*g]), math.Abs(b[2*g])) <= tol
		if a[2*f+1] != a[2*g+1] ||
			(!null && math.Abs(math.Remainder(b[2*f+1]+b[2*g+1], 2*math.Pi)) > symTol) {
			t.class &^= symOneSided
		}
	}
	return t
}

// Symmetric reports whether the two-sided (or one-sided) distance under
// t is summed over half the spectrum: whether t was classified as
// acting alike on the mirror coefficients of a real series' spectrum.
func (t Transform) Symmetric(oneSided bool) bool {
	if oneSided {
		return t.class&symOneSided != 0
	}
	return t.class&symTwoSided != 0
}

// FullOrder returns t with the symmetry classification dropped: the same
// vectors, summed over f = 0..n-1 in index order by every kernel. It is
// the distance as it was defined before the half sum, kept for replaying
// journals written then and for query points that are not spectra of
// real series.
func (t Transform) FullOrder() Transform {
	t.class &^= symTwoSided | symOneSided
	return t
}

// N returns the series length the transformation was built for.
func (t Transform) N() int { return len(t.A) / 2 }

// validate panics if the transformation is malformed.
func (t Transform) validate() {
	if len(t.A) != len(t.B) || len(t.A)%2 != 0 || len(t.A) == 0 {
		panic(fmt.Sprintf("transform: malformed transform %q: |A|=%d |B|=%d", t.Name, len(t.A), len(t.B)))
	}
}

// Identity returns the identity transformation for length-n series.
func Identity(n int) Transform { return identity("id", n).classified() }

// identity returns the vectors of the identity under the given name, for
// a constructor to fill in and classify.
func identity(name string, n int) Transform {
	t := Transform{Name: name, A: make([]float64, 2*n), B: make([]float64, 2*n)}
	for i := range t.A {
		t.A[i] = 1 // magnitude and phase multipliers alike
	}
	return t
}

// classified is New on the vectors a constructor has finished writing.
func (t Transform) classified() Transform { return New(t.Name, t.A, t.B) }

// FromKernel returns the transformation corresponding to circular
// convolution with the given time-domain kernel (Sec. 3.1: momentum and
// moving average are instances). The kernel must have length n.
func FromKernel(name string, kernel series.Series) Transform {
	n := len(kernel)
	M := dft.TransformReal(kernel)
	scale := math.Sqrt(float64(n)) // unitary-DFT convolution factor
	t := Transform{Name: name, A: make([]float64, 2*n), B: make([]float64, 2*n)}
	for f := 0; f < n; f++ {
		t.A[2*f] = scale * cmplx.Abs(M[f])
		t.B[2*f] = 0
		t.A[2*f+1] = 1
		t.B[2*f+1] = cmplx.Phase(M[f])
	}
	return t.classified()
}

// MovingAverage returns the circular m-day moving-average transformation
// for length-n series. It matches series.CircularMovingAverage exactly:
// output i is the mean of the trailing window i-m+1..i (indices mod n).
// With this convention the phase offsets at low coefficients are the small
// negative angles of the paper's Fig. 3.
func MovingAverage(n, m int) Transform {
	if m < 1 || m > n {
		panic(fmt.Sprintf("transform: MovingAverage window %d out of range for length %d", m, n))
	}
	kernel := make(series.Series, n)
	for j := 0; j < m; j++ {
		kernel[j] = 1 / float64(m)
	}
	return FromKernel(fmt.Sprintf("mv%d", m), kernel)
}

// Momentum returns the circular momentum transformation of Sec. 3.1.1 for
// length-n series: convolution with [1, -1, 0, ..., 0], i.e. output i is
// input i minus input i-1 (mod n). It matches series.CircularMomentum.
func Momentum(n int) Transform {
	kernel := make(series.Series, n)
	kernel[0] = 1
	if n > 1 {
		kernel[1] = -1
	}
	return FromKernel("momentum", kernel)
}

// MomentumLag returns the circular lag-k momentum (Example 1.2's "in
// general, t+n for some n"): output i is input i minus input i-k (mod n).
func MomentumLag(n, k int) Transform {
	if k < 1 || k >= n {
		panic(fmt.Sprintf("transform: momentum lag %d out of range for length %d", k, n))
	}
	kernel := make(series.Series, n)
	kernel[0] = 1
	kernel[k] = -1
	return FromKernel(fmt.Sprintf("momentum%d", k), kernel)
}

// TimeShift returns the exact circular s-day right-shift transformation
// for length-n series: coefficient f is multiplied by exp(-j*2*pi*f*s/n).
// If the series carries at least s trailing zeros of padding (the
// Sec. 3.1.2 trick) the circular shift coincides with the linear shift.
// Negative s shifts left.
func TimeShift(n, s int) Transform {
	t := identity(fmt.Sprintf("shift%d", s), n)
	for f := 0; f < n; f++ {
		t.B[2*f+1] = normalizeAngle(-2 * math.Pi * float64(f) * float64(s) / float64(n))
	}
	return t.classified()
}

// normalizeAngle reduces an angle to (-pi, pi]. Phase offsets are
// equivalence classes modulo 2*pi; keeping them reduced makes the
// transformation MBRs of shift sets as tight as possible.
func normalizeAngle(x float64) float64 {
	x = math.Mod(x, 2*math.Pi)
	if x <= -math.Pi {
		x += 2 * math.Pi
	} else if x > math.Pi {
		x -= 2 * math.Pi
	}
	return x
}

// TimeShiftApprox returns the paper's approximate s-day shift (Sec. 3.1.2),
// which keeps the original length but uses denominator n+s in the phase
// ramp: coefficient f is multiplied by exp(-j*2*pi*f*s/(n+s)). It converges
// to the exact shift for long series.
func TimeShiftApprox(n, s int) Transform {
	t := identity(fmt.Sprintf("shift~%d", s), n)
	for f := 0; f < n; f++ {
		t.B[2*f+1] = normalizeAngle(-2 * math.Pi * float64(f) * float64(s) / float64(n+s))
	}
	return t.classified()
}

// WeightedMovingAverage returns the circular weighted moving average with
// the given trailing weights: output i is
// sum_j weights[j] * input[i-j] / sum(weights). Weights[0] applies to the
// current sample. A uniform weight vector reduces to MovingAverage.
func WeightedMovingAverage(n int, weights []float64) Transform {
	if len(weights) == 0 || len(weights) > n {
		panic(fmt.Sprintf("transform: %d weights out of range for length %d", len(weights), n))
	}
	var sum float64
	for _, w := range weights {
		sum += w
	}
	if sum == 0 {
		panic("transform: weighted moving average with zero total weight")
	}
	kernel := make(series.Series, n)
	for j, w := range weights {
		kernel[j] = w / sum
	}
	return FromKernel(fmt.Sprintf("wma%d", len(weights)), kernel)
}

// EMA returns the circular exponential moving average with smoothing
// factor alpha in (0, 1]: the IIR filter y_t = alpha*x_t + (1-alpha)*
// y_{t-1}, realized circularly as convolution with the kernel
// alpha*(1-alpha)^j normalized over one period. Like every convolution it
// is a linear transformation over the Fourier representation.
func EMA(n int, alpha float64) Transform {
	if alpha <= 0 || alpha > 1 {
		panic(fmt.Sprintf("transform: EMA alpha %v out of (0, 1]", alpha))
	}
	kernel := make(series.Series, n)
	var sum float64
	w := alpha
	for j := 0; j < n; j++ {
		kernel[j] = w
		sum += w
		w *= 1 - alpha
	}
	for j := range kernel {
		kernel[j] /= sum
	}
	return FromKernel(fmt.Sprintf("ema%g", alpha), kernel)
}

// Reverse returns the time-reversal transformation x'_t = x_{-t mod n}.
// For a real series the spectrum conjugates, so in polar form the phase
// multiplier is -1 — the one built-in transformation whose phase action
// is not a pure offset, exercising the general (a, b) machinery.
func Reverse(n int) Transform {
	t := identity("reverse", n)
	for f := 0; f < n; f++ {
		t.A[2*f+1] = -1
	}
	return t.classified()
}

// Scale returns the transformation multiplying a series by the scalar
// c > 0 (magnitudes scale, phases unchanged). For negative scalars compose
// with Invert; Scale panics on c <= 0 because a negative magnitude
// multiplier would leave the polar domain.
func Scale(n int, c float64) Transform {
	if c <= 0 {
		panic(fmt.Sprintf("transform: Scale factor %v must be positive (compose with Invert for sign flips)", c))
	}
	t := identity(fmt.Sprintf("scale%g", c), n)
	for f := 0; f < n; f++ {
		t.A[2*f] = c
	}
	return t.classified()
}

// Invert returns the transformation multiplying a series by -1, expressed
// in polar form as adding pi to every phase (Sec. 5.2 uses inverted
// moving averages to create a second cluster).
func Invert(n int) Transform {
	t := identity("invert", n)
	for f := 0; f < n; f++ {
		t.B[2*f+1] = math.Pi
	}
	return t.classified()
}

// Inverted returns t composed with a sign flip (equivalent to multiplying
// every complex coefficient of the result by -1).
func Inverted(t Transform) Transform {
	out := Compose(Invert(t.N()), t)
	out.Name = t.Name + "-inv"
	return out
}

// Compose returns the transformation "first t1, then t2" (Eq. 10):
// a3 = a2*a1 and b3 = a2*b1 + b2, componentwise over the 2n polar
// components.
func Compose(t2, t1 Transform) Transform {
	t1.validate()
	t2.validate()
	if len(t1.A) != len(t2.A) {
		panic(fmt.Sprintf("transform: composing %q (n=%d) with %q (n=%d)", t2.Name, t2.N(), t1.Name, t1.N()))
	}
	out := Transform{
		Name: t2.Name + "(" + t1.Name + ")",
		A:    make([]float64, len(t1.A)),
		B:    make([]float64, len(t1.B)),
	}
	for i := range out.A {
		out.A[i] = t2.A[i] * t1.A[i]
		out.B[i] = t2.A[i]*t1.B[i] + t2.B[i]
	}
	return out.classified()
}

// ComposeSets returns T2(T1) = {t2(t1) : t1 in T1, t2 in T2} (Eq. 11),
// the set form used to rewrite a sequence of transformation sets into a
// single set (Sec. 3.3).
func ComposeSets(t2s, t1s []Transform) []Transform {
	out := make([]Transform, 0, len(t1s)*len(t2s))
	for _, t1 := range t1s {
		for _, t2 := range t2s {
			out = append(out, Compose(t2, t1))
		}
	}
	return out
}

// ApplySpectrum applies t to a complex spectrum X (length n) and returns
// the transformed spectrum: coefficient f becomes
// (A[2f]*|X_f| + B[2f]) * exp(j*(A[2f+1]*angle(X_f) + B[2f+1])).
func (t Transform) ApplySpectrum(X []complex128) []complex128 {
	t.validate()
	if len(X) != t.N() {
		panic(fmt.Sprintf("transform: %q built for n=%d applied to spectrum of length %d", t.Name, t.N(), len(X)))
	}
	out := make([]complex128, len(X))
	for f := range X {
		mag := t.A[2*f]*cmplx.Abs(X[f]) + t.B[2*f]
		phase := t.A[2*f+1]*cmplx.Phase(X[f]) + t.B[2*f+1]
		out[f] = cmplx.Rect(mag, phase)
	}
	return out
}

// ApplySeries applies t to a time-domain series by a round trip through
// the frequency domain.
func (t Transform) ApplySeries(s series.Series) series.Series {
	return dft.InverseReal(t.ApplySpectrum(dft.TransformReal(s)))
}

// Distance returns the Euclidean distance between t(x) and t(y), where x
// and y are given as complex spectra. By Parseval this equals the
// time-domain distance between the transformed series.
func (t Transform) Distance(X, Y []complex128) float64 {
	return dft.Distance(t.ApplySpectrum(X), t.ApplySpectrum(Y))
}

// span is the part of the spectrum a kernel sums, given whether the
// transformation is symmetric for the predicate form at hand. The sum is
// weight·Σ_{lo<=f<hi} term(f) + edge:
//
//	full:      lo 0, hi n,     weight 1, edge 0 — f = 0..n-1 in index order
//	symmetric: lo 1, hi ⌈n/2⌉, weight 2, edge = term(0), plus term(mid)
//	           for even n, where mid = n/2 (mid is 0 otherwise)
//
// The symmetric form is the full one with every mirror pair (f, n-f)
// taken as twice its first member, which is what the pair sums to when x
// and y are spectra of real series; coefficient 0, and n/2 when n is
// even, are their own mirrors. It halves a completed sum and, because a
// real series keeps its energy in the low frequencies, whose mirrors the
// index order meets last, it is also the order in which a partial sum
// passes a cutoff soonest. The edge is added when the loop has finished,
// not before it starts: coefficient 0 of a normal form is zero and n/2
// is the highest frequency, so they are the two terms least likely to
// decide an abandon, and a comparison that abandons in its first block
// pays for four terms, as in the full order, rather than six.
func span(n int, symmetric bool) (lo, hi int, weight float64, mid int) {
	if !symmetric {
		return 0, n, 1, 0
	}
	if n%2 == 0 {
		mid = n / 2
	}
	return 1, (n + 1) / 2, 2, mid
}

// AbandonCutoff returns the squared-distance threshold an
// early-abandoning kernel may compare its partial sums against to prove
// d > eps. It sits a hair above eps² so that the conclusion holds even
// though individual polar terms can carry rounding noise of either
// sign: a partial sum above the cutoff exceeds the full sum's possible
// downward drift, hence the exact kernel would also report d > eps.
// Non-abandoned computations are unaffected — they produce bit-identical
// distances — so abandonment can never disagree with the full
// computation about a match.
func AbandonCutoff(eps float64) float64 { return eps*eps*(1+1e-9) + 1e-9 }

// Verify is the verification kernel, the one loop behind DistancePolar,
// DistancePolarLeft and their abandoning forms: the distance
// D(t(x), t(y)), or D(t(x), y) when oneSided, of two polar spectra
// (magnitude and phase arrays of length n), with an early-abandoning
// cutoff. Per coefficient it costs one cosine: the term is polar's
// (term.go), in the kernels' evaluation order.
//
// Precondition: x and y are spectra of real series, coefficient n-f the
// conjugate of coefficient f. Under a transformation classified
// symmetric for the predicate form the sum is taken over half the
// spectrum (see span), and that half sum is the definition of the
// distance: every caller — index verification, NaiveVerify, the
// sequential scans, join, closest pairs — goes through this loop or
// through Pair, which sums in the same order, so they agree bit for bit.
// On spectra that break the precondition the half sum is not the
// Euclidean distance; FullOrder gives a transformation that never takes
// it. An unclassified or asymmetric transformation sums f = 0..n-1.
//
// The terms are non-negative, so the partial sums are non-decreasing and
// the loop stops as soon as weight·s proves the distance exceeds eps: it
// returns (lb, true, …) with lb a lower bound of the distance. Otherwise
// it returns the distance and false; eps = +Inf never abandons. The loop
// is blocked four coefficients wide over four independent accumulators,
// combined as (s0+s1)+(s2+s3), with the cutoff tested once per block,
// once per scalar-tail term and once on the whole sum with its edge, so
// abandoned is exactly "the whole sum exceeds the cutoff". terms is the
// number of coefficient terms evaluated.
func (t Transform) Verify(xm, xp, ym, yp []float64, oneSided bool, eps float64) (d float64, abandoned bool, terms int) {
	n := t.N()
	if len(xm) != n || len(xp) != n || len(ym) != n || len(yp) != n {
		panic(fmt.Sprintf("transform: distance under %q (n=%d) of spectra with lengths %d/%d/%d/%d",
			t.Name, n, len(xm), len(xp), len(ym), len(yp)))
	}
	cut := AbandonCutoff(eps)
	A, B := t.A, t.B
	symmetric := t.Symmetric(oneSided)
	lo, hi, weight, mid := span(n, symmetric)
	var s0, s1, s2, s3 float64
	f := lo
	for ; f+4 <= hi; f += 4 {
		s0 += polarTerm(polar(A, B, f, xm[f], xp[f], ym[f], yp[f], oneSided))
		s1 += polarTerm(polar(A, B, f+1, xm[f+1], xp[f+1], ym[f+1], yp[f+1], oneSided))
		s2 += polarTerm(polar(A, B, f+2, xm[f+2], xp[f+2], ym[f+2], yp[f+2], oneSided))
		s3 += polarTerm(polar(A, B, f+3, xm[f+3], xp[f+3], ym[f+3], yp[f+3], oneSided))
		if s := weight * ((s0 + s1) + (s2 + s3)); s > cut {
			return math.Sqrt(s), true, f + 4 - lo
		}
	}
	for ; f < hi; f++ {
		s0 += polarTerm(polar(A, B, f, xm[f], xp[f], ym[f], yp[f], oneSided))
		if s := weight * ((s0 + s1) + (s2 + s3)); s > cut {
			return math.Sqrt(s), true, f + 1 - lo
		}
	}
	s := weight * ((s0 + s1) + (s2 + s3))
	if symmetric {
		s, terms = s+polarTerm(polar(A, B, 0, xm[0], xp[0], ym[0], yp[0], oneSided)), 1
		if mid > 0 {
			s, terms = s+polarTerm(polar(A, B, mid, xm[mid], xp[mid], ym[mid], yp[mid], oneSided)), 2
		}
	}
	if s < 0 {
		s = 0 // rounding noise on identical inputs
	}
	// The loop has tested everything but the edge.
	return math.Sqrt(s), s > cut, terms + hi - lo
}

// DistancePolar returns D(t(x), t(y)) for polar spectra of real series:
// the value of Distance without its trigonometric round trips. It is
// Verify, two-sided, with no cutoff.
func (t Transform) DistancePolar(xm, xp, ym, yp []float64) float64 {
	d, _, _ := t.Verify(xm, xp, ym, yp, false, math.Inf(1))
	return d
}

// DistancePolarLeft returns D(t(x), y) — the transformation applied to
// the left spectrum only — for polar spectra of real series. This is the
// predicate of the one-sided query semantics (the literal form of the
// paper's Algorithm 1: "sequences that become within distance eps of q
// after being transformed"), which is the useful form for alignment
// transformations like time shifts: applied to both sides a shift is
// unitary and cancels. It is Verify, one-sided, with no cutoff.
func (t Transform) DistancePolarLeft(xm, xp, ym, yp []float64) float64 {
	d, _, _ := t.Verify(xm, xp, ym, yp, true, math.Inf(1))
	return d
}

// DistancePolarAbandon is DistancePolar with an early-abandoning cutoff
// (see Verify): (lb, true) when the partial sums prove the distance
// exceeds eps, otherwise the bit-identical DistancePolar value and
// false.
func (t Transform) DistancePolarAbandon(xm, xp, ym, yp []float64, eps float64) (float64, bool) {
	d, abandoned, _ := t.Verify(xm, xp, ym, yp, false, eps)
	return d, abandoned
}

// ApplyPolarSpectrum applies t to a polar spectrum, returning new
// magnitude and phase arrays.
func (t Transform) ApplyPolarSpectrum(mags, phases []float64) (outM, outP []float64) {
	n := t.N()
	if len(mags) != n || len(phases) != n {
		panic(fmt.Sprintf("transform: ApplyPolarSpectrum on %q (n=%d) with lengths %d/%d",
			t.Name, n, len(mags), len(phases)))
	}
	outM = make([]float64, n)
	outP = make([]float64, n)
	for f := 0; f < n; f++ {
		outM[f] = t.A[2*f]*mags[f] + t.B[2*f]
		outP[f] = t.A[2*f+1]*phases[f] + t.B[2*f+1]
	}
	return outM, outP
}

// MovingAverageSet returns the moving-average transformations for windows
// from..to inclusive, the workhorse transformation set of the paper's
// experiments.
func MovingAverageSet(n, from, to int) []Transform {
	if from < 1 || to < from {
		panic(fmt.Sprintf("transform: bad moving-average range [%d, %d]", from, to))
	}
	out := make([]Transform, 0, to-from+1)
	for m := from; m <= to; m++ {
		out = append(out, MovingAverage(n, m))
	}
	return out
}

// TimeShiftSet returns exact shift transformations for shifts from..to
// inclusive.
func TimeShiftSet(n, from, to int) []Transform {
	if to < from {
		panic(fmt.Sprintf("transform: bad shift range [%d, %d]", from, to))
	}
	out := make([]Transform, 0, to-from+1)
	for s := from; s <= to; s++ {
		out = append(out, TimeShift(n, s))
	}
	return out
}

// ScaleSet returns scaling transformations for the given factors.
func ScaleSet(n int, factors []float64) []Transform {
	out := make([]Transform, 0, len(factors))
	for _, c := range factors {
		out = append(out, Scale(n, c))
	}
	return out
}

// WithInverted returns ts followed by the inverted version of each element
// (the two-cluster set of Sec. 5.2).
func WithInverted(ts []Transform) []Transform {
	out := make([]Transform, 0, 2*len(ts))
	out = append(out, ts...)
	for _, t := range ts {
		out = append(out, Inverted(t))
	}
	return out
}
