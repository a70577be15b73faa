package transform

import (
	"math"
	"math/rand"
	"testing"

	"tsq/internal/dft"
)

// fullOrderReference is the verification sum as it was written before the
// half sum: f = 0..n-1 in index order, four accumulators over
// four-coefficient blocks, a scalar tail into the first, (s0+s1)+(s2+s3),
// the cutoff tested per block and per tail term. It is kept here, apart
// from Verify, as the independent reference: a symmetric transformation's
// half sum must agree with it to rounding, and an asymmetric or
// unclassified one must return its bits.
func fullOrderReference(t Transform, xm, xp, ym, yp []float64, oneSided bool, eps float64) (float64, bool) {
	term := func(f int) float64 {
		a, b, ap, bp := t.A[2*f], t.B[2*f], t.A[2*f+1], t.B[2*f+1]
		if oneSided {
			mu := a*xm[f] + b
			mv := ym[f]
			dp := ap*xp[f] + bp - yp[f]
			return mu*mu + mv*mv - 2*mu*mv*math.Cos(dp)
		}
		mu := a*xm[f] + b
		mv := a*ym[f] + b
		return mu*mu + mv*mv - 2*mu*mv*math.Cos(ap*(xp[f]-yp[f]))
	}
	n := t.N()
	cut := AbandonCutoff(eps)
	var s0, s1, s2, s3 float64
	f := 0
	for ; f+4 <= n; f += 4 {
		s0 += term(f)
		s1 += term(f + 1)
		s2 += term(f + 2)
		s3 += term(f + 3)
		if s := (s0 + s1) + (s2 + s3); s > cut {
			return math.Sqrt(s), true
		}
	}
	for ; f < n; f++ {
		s0 += term(f)
		if s := (s0 + s1) + (s2 + s3); s > cut {
			return math.Sqrt(s), true
		}
	}
	s := (s0 + s1) + (s2 + s3)
	if s < 0 {
		s = 0
	}
	return math.Sqrt(s), false
}

// complexReference is the predicate distance in the complex domain:
// Transform.Distance two-sided, D(t(x), y) one-sided.
func complexReference(t Transform, X, Y []complex128, oneSided bool) float64 {
	if oneSided {
		return dft.Distance(t.ApplySpectrum(X), Y)
	}
	return t.Distance(X, Y)
}

// realSpectrum returns the spectrum of a real series, complex and polar.
func realSpectrum(s []float64) (X []complex128, mags, phases []float64) {
	X = dft.TransformReal(s)
	mags, phases = make([]float64, len(X)), make([]float64, len(X))
	for f, p := range dft.ToPolar(X) {
		mags[f], phases[f] = p.Mag, p.Phase
	}
	return X, mags, phases
}

// walk is a seeded random walk with noise: a real series with its energy
// in the low frequencies, like the ones the kernels verify.
func walk(rng *rand.Rand, n int) []float64 {
	s := make([]float64, n)
	var v float64
	for i := range s {
		v += rng.NormFloat64()
		s[i] = v + 0.1*rng.NormFloat64()
	}
	return s
}

// classed is a transformation with the classification it must get.
type classed struct {
	t                  Transform
	twoSided, oneSided bool
}

// halfSumFixture returns, for length n, every built-in constructor, the
// composing functions over them, and hand-made vectors, each with the
// classification it must get: the built-ins are symmetric both ways,
// TimeShiftApprox (whose phase ramp over n+s does not wrap at n) and
// whatever is composed with it two-sided only.
func halfSumFixture(n int) []classed {
	var out []classed
	add := func(two, one bool, ts ...Transform) {
		for _, t := range ts {
			out = append(out, classed{t, two, one})
		}
	}
	w := func(m int) int { return max(1, min(m, n)) }
	mv := MovingAverageSet(n, w(2), w(7))
	add(true, true, Identity(n), Momentum(n), Reverse(n), Scale(n, 2.5), Invert(n),
		TimeShift(n, 3), TimeShift(n, -5), TimeShift(n, n+1),
		WeightedMovingAverage(n, []float64{3, 2, 1}[:w(3)]), EMA(n, 0.3), MovingAverage(n, w(16)))
	add(true, true, mv...)
	if n > 1 {
		add(true, true, MomentumLag(n, min(5, n-1)))
	}
	add(true, true, Inverted(mv[0]), Compose(mv[1%len(mv)], TimeShift(n, 2)), Compose(Reverse(n), mv[0]),
		Compose(TimeShift(n, -1), Compose(Scale(n, 0.5), Momentum(n))))
	add(true, true, WithInverted(mv[:2%len(mv)+1])...)
	add(true, true, ComposeSets(TimeShiftSet(n, -1, 1), mv[:1])...)
	add(true, n <= 2, TimeShiftApprox(n, 3), Compose(mv[0], TimeShiftApprox(n, 2)))

	// Hand-made: a phase multiplier of 0.5 is not defined modulo 2π, and
	// a vector one of whose mirror entries is off by 1e-6 is not
	// symmetric. With fewer than three coefficients there is no mirror
	// pair to break.
	half := identity("phase*0.5", n)
	for f := 0; f < n; f++ {
		half.A[2*f+1] = 0.5
	}
	add(n <= 2, n <= 2, half.classified())
	if n > 2 {
		mag := MovingAverage(n, w(4))
		mag = New("mv+1e-6", append([]float64(nil), mag.A...), append([]float64(nil), mag.B...))
		mag.A[2*(n-1)] += 1e-6
		add(false, false, mag.classified())
		off := identity("offset+1e-6", n)
		copy(off.B, TimeShift(n, 1).B)
		off.B[2*(n-1)+1] += 1e-6
		add(true, false, off.classified())
	}
	return out
}

var halfSumLengths = []int{1, 2, 3, 30, 31, 64, 128}

// TestClassification: the table of halfSumFixture, and the rule that a
// struct literal, FullOrder and a hand-made vector that fails the check
// keep the full sum.
func TestClassification(t *testing.T) {
	for _, n := range halfSumLengths {
		for _, c := range halfSumFixture(n) {
			if two, one := c.t.Symmetric(false), c.t.Symmetric(true); two != c.twoSided || one != c.oneSided {
				t.Errorf("n=%d %s: symmetric two-sided %v one-sided %v, want %v %v", n, c.t.Name, two, one, c.twoSided, c.oneSided)
			}
			lit := Transform{Name: c.t.Name, A: c.t.A, B: c.t.B}
			for _, u := range []Transform{lit, c.t.FullOrder()} {
				if u.Symmetric(false) || u.Symmetric(true) {
					t.Errorf("n=%d %s: a literal or FullOrder copy is classified symmetric", n, c.t.Name)
				}
			}
			if got := New(c.t.Name, c.t.A, c.t.B); got.class != c.t.class {
				t.Errorf("n=%d %s: New on the same vectors gives class %b, the constructor %b", n, c.t.Name, got.class, c.t.class)
			}
		}
	}
}

// TestHalfSumAgainstReferences holds Verify to both references over
// seeded real series, every fixture transformation, both predicate
// forms and lengths with and without a middle coefficient, a block
// remainder, or any loop at all: within 1e-12 relative of the full-order
// sum when the transformation is symmetric and equal to it bit for bit
// when it is not, and within 1e-9 of the complex-domain distance.
func TestHalfSumAgainstReferences(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, n := range halfSumLengths {
		fixture := halfSumFixture(n)
		for trial := 0; trial < 12; trial++ {
			X, xm, xp := realSpectrum(walk(rng, n))
			Y, ym, yp := realSpectrum(walk(rng, n))
			for _, c := range fixture {
				for _, oneSided := range []bool{false, true} {
					got, abandoned, terms := c.t.Verify(xm, xp, ym, yp, oneSided, math.Inf(1))
					ref, _ := fullOrderReference(c.t, xm, xp, ym, yp, oneSided, math.Inf(1))
					wantTerms := n
					if c.t.Symmetric(oneSided) {
						wantTerms = n/2 + 1
						if math.Abs(got-ref) > 1e-12*ref {
							t.Errorf("n=%d %s oneSided=%v: half sum %v, full order %v (off by %.3g relative)",
								n, c.t.Name, oneSided, got, ref, math.Abs(got-ref)/ref)
						}
					} else if got != ref {
						t.Errorf("n=%d %s oneSided=%v: full sum %v is not the reference's %v", n, c.t.Name, oneSided, got, ref)
					}
					if abandoned || terms != wantTerms {
						t.Errorf("n=%d %s oneSided=%v: abandoned=%v after %d terms, want a completed sum of %d",
							n, c.t.Name, oneSided, abandoned, terms, wantTerms)
					}
					if cx := complexReference(c.t, X, Y, oneSided); math.Abs(got-cx) > 1e-9*max(1, cx) {
						t.Errorf("n=%d %s oneSided=%v: polar %v, complex domain %v", n, c.t.Name, oneSided, got, cx)
					}
				}
			}
		}
	}
}

// The parent commit's values for TestAsymmetricBitsArePinned.
const (
	pinnedShiftApproxLeft = 125.18833972274216
	pinnedHalfPhase       = 95.26202070560004
	pinnedHalfPhaseLeft   = 104.2000266622311
	pinnedPerturbed       = 124.61007468046482
	pinnedPerturbedLeft   = 125.1410113633926
	pinnedFullOrderMV4    = 124.61005818850768
)

// TestAsymmetricBitsArePinned: what an asymmetric transformation returns
// is what it returned before the half sum existed. The literals were
// printed by the parent commit's DistancePolar and DistancePolarLeft on
// this fixture.
func TestAsymmetricBitsArePinned(t *testing.T) {
	const n = 64
	rng := rand.New(rand.NewSource(23))
	_, xm, xp := realSpectrum(walk(rng, n))
	_, ym, yp := realSpectrum(walk(rng, n))
	half := identity("phase*0.5", n)
	for f := 0; f < n; f++ {
		half.A[2*f+1] = 0.5
	}
	mag := identity("mv4+1e-6", n)
	copy(mag.A, MovingAverage(n, 4).A)
	copy(mag.B, MovingAverage(n, 4).B)
	mag.A[2*(n-1)] += 1e-6
	for _, c := range []struct {
		t        Transform
		oneSided bool
		want     float64
	}{
		{TimeShiftApprox(n, 3), true, pinnedShiftApproxLeft},
		{half.classified(), false, pinnedHalfPhase},
		{half.classified(), true, pinnedHalfPhaseLeft},
		{mag.classified(), false, pinnedPerturbed},
		{mag.classified(), true, pinnedPerturbedLeft},
		{MovingAverage(n, 4).FullOrder(), false, pinnedFullOrderMV4},
	} {
		if c.t.Symmetric(c.oneSided) {
			t.Errorf("%s oneSided=%v is classified symmetric", c.t.Name, c.oneSided)
		}
		got, _, _ := c.t.Verify(xm, xp, ym, yp, c.oneSided, math.Inf(1))
		if got != c.want {
			t.Errorf("%s oneSided=%v: %v (%#x), the parent commit returned %v (%#x)",
				c.t.Name, c.oneSided, got, math.Float64bits(got), c.want, math.Float64bits(c.want))
		}
	}
}

// TestHalfSumAbandonIsStrict: under the half sum an abandon still proves
// d > eps strictly, and a cutoff equal to the distance completes (NN
// passes the k-th best distance, and a tie must be computed to be
// ranked). Shrinking AbandonCutoff by one part in 1e7 fails the second
// half.
func TestHalfSumAbandonIsStrict(t *testing.T) {
	const n = 128
	rng := rand.New(rand.NewSource(24))
	fixture := halfSumFixture(n)
	var abandons, early int
	for trial := 0; trial < 300; trial++ {
		_, xm, xp := realSpectrum(walk(rng, n))
		_, ym, yp := realSpectrum(walk(rng, n))
		for _, c := range fixture {
			for _, oneSided := range []bool{false, true} {
				exact, _, full := c.t.Verify(xm, xp, ym, yp, oneSided, math.Inf(1))
				if d, abandoned, _ := c.t.Verify(xm, xp, ym, yp, oneSided, exact); abandoned || d != exact {
					t.Fatalf("%s oneSided=%v: eps = the distance %v: abandoned=%v d=%v", c.t.Name, oneSided, exact, abandoned, d)
				}
				eps := exact * (0.5 + rng.Float64())
				d, abandoned, terms := c.t.Verify(xm, xp, ym, yp, oneSided, eps)
				ref, _ := fullOrderReference(c.t, xm, xp, ym, yp, oneSided, math.Inf(1))
				switch {
				case !abandoned && d != exact:
					t.Fatalf("%s oneSided=%v: completed sum %v under a cutoff, %v without", c.t.Name, oneSided, d, exact)
				case abandoned && !(exact > eps && ref > eps && d > eps && d <= exact*(1+1e-12)):
					t.Fatalf("%s oneSided=%v: abandoned at eps=%v with bound %v, but the distance is %v (full order %v)",
						c.t.Name, oneSided, eps, d, exact, ref)
				case abandoned:
					abandons++
					if terms < full/2 {
						early++
					}
				}
			}
		}
	}
	if abandons == 0 || early == 0 {
		t.Fatalf("degenerate mix: %d abandons, %d of them in the first half of the sum", abandons, early)
	}
}

// TestInitReadsNoVectors: binding a set reads two flags per
// transformation, not its vectors. Poisoning A and B after construction
// (unsupported outside this test, which is the point) changes nothing
// Init decides, and Init allocates nothing.
func TestInitReadsNoVectors(t *testing.T) {
	const n = 128
	ts := append(MovingAverageSet(n, 5, 19), Reverse(n))
	var p Pair
	p.Init(ts, false)
	want := append([]bool(nil), p.shared...)
	poisoned := make([]Transform, len(ts))
	for i, tr := range ts {
		poisoned[i] = tr
		poisoned[i].A, poisoned[i].B = make([]float64, 2*n), make([]float64, 2*n)
		for j := range poisoned[i].A {
			poisoned[i].A[j], poisoned[i].B[j] = math.NaN(), math.NaN()
		}
	}
	for _, oneSided := range []bool{false, true} {
		p.Init(poisoned, oneSided)
		for i := range ts {
			if p.shared[i] != (want[i] && !oneSided) || poisoned[i].Symmetric(oneSided) != ts[i].Symmetric(oneSided) {
				t.Fatalf("%s oneSided=%v: Init or Symmetric read the poisoned vectors", ts[i].Name, oneSided)
			}
		}
	}
	if want[15] || !want[0] {
		t.Fatalf("shared flags %v: want every moving average and not Reverse", want)
	}
	if allocs := testing.AllocsPerRun(100, func() { p.Init(poisoned, false) }); allocs != 0 {
		t.Fatalf("Init allocates %v times, want 0", allocs)
	}
}

// fuzzSeries decodes bytes into a real series of the fuzz length: one
// int8 step per value, so every series is finite and moderately scaled.
func fuzzSeries(b []byte, n int) []float64 {
	s := make([]float64, n)
	var v float64
	for i := range s {
		if i < len(b) {
			v += float64(int8(b[i])) / 16
		}
		s[i] = v
	}
	return s
}

// FuzzHalfSum: for any two real series, any fixture transformation in
// either predicate form and any cutoff, the half sum is the full-order
// reference up to rounding and an abandon proves the reference above eps.
// Rounding is measured against the energy the terms are differences of:
// for near-equal series the distance itself is mostly cancellation, in
// both sums alike.
func FuzzHalfSum(f *testing.F) {
	seed := make([]byte, 64)
	for i := range seed {
		seed[i] = byte(i * 37)
	}
	f.Add(seed, seed[7:], uint8(0), false, 1.0)
	f.Add(seed[3:], seed, uint8(9), true, 0.0)
	f.Add([]byte{}, seed, uint8(200), false, math.Inf(1))
	f.Add(seed, []byte{1}, uint8(31), true, 4.5)
	f.Fuzz(func(t *testing.T, a, b []byte, choice uint8, oneSided bool, eps float64) {
		n := halfSumLengths[(len(a)+len(b))%len(halfSumLengths)]
		fixture := halfSumFixture(n)
		c := fixture[int(choice)%len(fixture)]
		_, xm, xp := realSpectrum(fuzzSeries(a, n))
		_, ym, yp := realSpectrum(fuzzSeries(b, n))
		ref, _ := fullOrderReference(c.t, xm, xp, ym, yp, oneSided, math.Inf(1))
		got, _, _ := c.t.Verify(xm, xp, ym, yp, oneSided, math.Inf(1))
		tx, _ := c.t.ApplyPolarSpectrum(xm, xp)
		ty := ym
		if !oneSided {
			ty, _ = c.t.ApplyPolarSpectrum(ym, yp)
		}
		// energy bounds what rounding can do to either sum: 1e-12 of the
		// energy the terms are differences of, plus the noise floor of the
		// spectra themselves, whose coefficients carry an absolute error
		// of about 1e-16 of the series' norm with a phase that is noise
		// (a constant series under a momentum is nothing else).
		var energy, in, gain float64
		for i := range tx {
			energy += tx[i]*tx[i] + ty[i]*ty[i]
			in += xm[i]*xm[i] + ym[i]*ym[i]
			gain += (math.Abs(c.t.A[2*i]) + 1) * (math.Abs(c.t.A[2*i]) + 1)
		}
		energy += 1e-16 * gain * (in + 1)
		if !c.t.Symmetric(oneSided) && got != ref {
			t.Fatalf("n=%d %s oneSided=%v: full sum %v, reference %v", n, c.t.Name, oneSided, got, ref)
		}
		if math.Abs(got*got-ref*ref) > 1e-12*energy {
			t.Fatalf("n=%d %s oneSided=%v: half sum %v, full order %v, energy %v", n, c.t.Name, oneSided, got, ref, energy)
		}
		if math.IsNaN(eps) {
			return
		}
		d, abandoned, _ := c.t.Verify(xm, xp, ym, yp, oneSided, eps)
		if abandoned && !(ref*ref+1e-12*energy > eps*eps && d*d <= got*got+1e-12*energy) {
			t.Fatalf("n=%d %s oneSided=%v: abandoned at eps=%v with bound %v; distance %v, reference %v", n, c.t.Name, oneSided, eps, d, got, ref)
		}
		if !abandoned && d != got {
			t.Fatalf("n=%d %s oneSided=%v: completed sum %v at eps=%v, %v without a cutoff", n, c.t.Name, oneSided, d, eps, got)
		}
	})
}
