package transform

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"tsq/internal/dft"
	"tsq/internal/geom"
	"tsq/internal/series"
)

func randSeries(rng *rand.Rand, n int) series.Series {
	s := make(series.Series, n)
	for i := range s {
		s[i] = rng.NormFloat64() * 10
	}
	return s
}

func seriesClose(a, b series.Series, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > tol {
			return false
		}
	}
	return true
}

func TestIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := randSeries(rng, 32)
	got := Identity(32).ApplySeries(s)
	if !seriesClose(got, s, 1e-9) {
		t.Errorf("identity transform changed the series")
	}
}

func TestMovingAverageMatchesTimeDomain(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{8, 32, 128} {
		s := randSeries(rng, n)
		for _, m := range []int{1, 2, 5, n / 2, n} {
			got := MovingAverage(n, m).ApplySeries(s)
			want := series.CircularMovingAverage(s, m)
			if !seriesClose(got, want, 1e-7) {
				t.Errorf("n=%d m=%d: frequency-domain MA disagrees with time domain", n, m)
			}
		}
	}
}

func TestMomentumMatchesTimeDomain(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{4, 17, 128} {
		s := randSeries(rng, n)
		got := Momentum(n).ApplySeries(s)
		want := series.CircularMomentum(s)
		if !seriesClose(got, want, 1e-7) {
			t.Errorf("n=%d: frequency-domain momentum disagrees with time domain", n)
		}
	}
}

func TestTimeShiftExact(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := 64
	s := randSeries(rng, n)
	for _, k := range []int{0, 1, 5, -3, n / 2} {
		got := TimeShift(n, k).ApplySeries(s)
		want := make(series.Series, n)
		for i := 0; i < n; i++ {
			want[i] = s[((i-k)%n+n)%n]
		}
		if !seriesClose(got, want, 1e-7) {
			t.Errorf("shift %d: frequency-domain shift disagrees with circular shift", k)
		}
	}
}

func TestTimeShiftWithPaddingIsLinearShift(t *testing.T) {
	// The Sec. 3.1.2 trick: pad s trailing zeros, then the circular shift
	// equals the linear (non-wrapping) shift.
	rng := rand.New(rand.NewSource(5))
	base := randSeries(rng, 60)
	k := 4
	padded := series.PadZeros(base, k)
	n := len(padded)
	got := TimeShift(n, k).ApplySeries(padded)
	want := series.Shift(padded, k)
	if !seriesClose(got, want, 1e-7) {
		t.Error("padded circular shift disagrees with linear shift")
	}
}

func TestTimeShiftApproxConverges(t *testing.T) {
	// The paper's approximate shift should approach the exact shift as n
	// grows: compare the distance between the two results relative to the
	// signal norm for n=64 vs n=1024.
	rng := rand.New(rand.NewSource(6))
	relErr := func(n int) float64 {
		s := randSeries(rng, n)
		exact := TimeShift(n, 1).ApplySeries(s)
		approx := TimeShiftApprox(n, 1).ApplySeries(s)
		return series.EuclideanDistance(exact, approx) / math.Sqrt(dft.EnergyReal(s))
	}
	small, large := relErr(64), relErr(1024)
	if large >= small {
		t.Errorf("approximate shift did not improve with length: err(64)=%v err(1024)=%v", small, large)
	}
}

func TestScaleAndInvert(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := randSeries(rng, 32)
	got := Scale(32, 2.5).ApplySeries(s)
	if !seriesClose(got, series.Scale(s, 2.5), 1e-8) {
		t.Error("Scale transform disagrees with time-domain scaling")
	}
	inv := Invert(32).ApplySeries(s)
	if !seriesClose(inv, series.Scale(s, -1), 1e-8) {
		t.Error("Invert transform disagrees with negation")
	}
	invMv := Inverted(MovingAverage(32, 4)).ApplySeries(s)
	want := series.Scale(series.CircularMovingAverage(s, 4), -1)
	if !seriesClose(invMv, want, 1e-7) {
		t.Error("Inverted moving average disagrees with negated moving average")
	}
}

func TestScalePanicsOnNonPositive(t *testing.T) {
	for _, c := range []float64{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Scale(%v) did not panic", c)
				}
			}()
			Scale(8, c)
		}()
	}
}

func TestComposeProperty(t *testing.T) {
	// Eq. 10: Compose(t2, t1) applied to x equals t2(t1(x)).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 32
		s := randSeries(rng, n)
		t1 := MovingAverage(n, 1+rng.Intn(n/2))
		t2 := TimeShift(n, rng.Intn(10))
		X := dft.TransformReal(s)
		composed := Compose(t2, t1).ApplySpectrum(X)
		sequential := t2.ApplySpectrum(t1.ApplySpectrum(X))
		return dft.Distance(composed, sequential) < 1e-7
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestComposeShiftThenMA(t *testing.T) {
	// The Sec. 3.3 example: a shift followed by a moving average, checked
	// against doing the two time-domain operations in order.
	rng := rand.New(rand.NewSource(8))
	n := 128
	s := randSeries(rng, n)
	tc := Compose(MovingAverage(n, 10), TimeShift(n, 2))
	got := tc.ApplySeries(s)
	shifted := make(series.Series, n)
	for i := range shifted {
		shifted[i] = s[((i-2)%n+n)%n]
	}
	want := series.CircularMovingAverage(shifted, 10)
	if !seriesClose(got, want, 1e-6) {
		t.Error("composed shift+MA disagrees with sequential time-domain application")
	}
}

func TestComposeSets(t *testing.T) {
	n := 32
	shifts := TimeShiftSet(n, 0, 3)
	mas := MovingAverageSet(n, 1, 5)
	composed := ComposeSets(mas, shifts)
	if len(composed) != len(shifts)*len(mas) {
		t.Fatalf("|T3| = %d, want %d", len(composed), len(shifts)*len(mas))
	}
	// Spot-check one element against direct composition.
	rng := rand.New(rand.NewSource(9))
	s := randSeries(rng, n)
	X := dft.TransformReal(s)
	found := false
	for _, tc := range composed {
		if tc.Name == "mv3(shift2)" {
			found = true
			want := MovingAverage(n, 3).ApplySpectrum(TimeShift(n, 2).ApplySpectrum(X))
			if dft.Distance(tc.ApplySpectrum(X), want) > 1e-7 {
				t.Error("composed set element disagrees with direct composition")
			}
		}
	}
	if !found {
		t.Error("expected composed transform mv3(shift2) not found")
	}
}

func TestDistanceInvariantUnderShift(t *testing.T) {
	// Shifts are unitary: they preserve pairwise distances.
	rng := rand.New(rand.NewSource(10))
	n := 64
	x := dft.TransformReal(randSeries(rng, n))
	y := dft.TransformReal(randSeries(rng, n))
	base := dft.Distance(x, y)
	for _, k := range []int{1, 7, 30} {
		if got := TimeShift(n, k).Distance(x, y); math.Abs(got-base) > 1e-7 {
			t.Errorf("shift %d changed the distance: %v vs %v", k, got, base)
		}
	}
}

func TestMovingAverageSetAndFig3Ranges(t *testing.T) {
	// Fig. 3: at the second DFT coefficient, the MV(1..40) transformations
	// have magnitude multipliers in roughly [0.84, 1] with zero additive
	// part, and phase additive parts in (-1, 0] with multiplier exactly 1.
	n := 128
	ts := MovingAverageSet(n, 1, 40)
	if len(ts) != 40 {
		t.Fatalf("|MV(1..40)| = %d", len(ts))
	}
	comps := []int{2, 3} // magnitude and phase of coefficient 1
	mult, add := mbrs(ts, comps)
	// Magnitude multiplier (Dirichlet kernel at f=1).
	if mult.Lo[0] < 0.8 || mult.Hi[0] > 1+1e-9 || mult.Hi[0] < 1-1e-9 {
		t.Errorf("mult magnitude range = [%v, %v], want ~[0.84, 1]", mult.Lo[0], mult.Hi[0])
	}
	// Phase multiplier is the horizontal line at 1.
	if mult.Lo[1] != 1 || mult.Hi[1] != 1 {
		t.Errorf("mult phase range = [%v, %v], want [1, 1]", mult.Lo[1], mult.Hi[1])
	}
	// Magnitude additive part is the vertical line at 0.
	if add.Lo[0] != 0 || add.Hi[0] != 0 {
		t.Errorf("add magnitude range = [%v, %v], want [0, 0]", add.Lo[0], add.Hi[0])
	}
	// Phase additive part lies in (-1, 0].
	if add.Lo[1] < -1 || add.Hi[1] > 1e-9 {
		t.Errorf("add phase range = [%v, %v], want within (-1, 0]", add.Lo[1], add.Hi[1])
	}
}

func TestApplyMBRsContainment(t *testing.T) {
	// The heart of Lemma 1: for every transformation t in the set and
	// every point p in the data rectangle, t(p) lies inside
	// ApplyMBRs(mult, add, rect).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 32
		var ts []Transform
		for i := 0; i < 5; i++ {
			switch rng.Intn(3) {
			case 0:
				ts = append(ts, MovingAverage(n, 1+rng.Intn(n)))
			case 1:
				ts = append(ts, TimeShift(n, rng.Intn(20)))
			default:
				ts = append(ts, Scale(n, 0.5+rng.Float64()*3))
			}
		}
		comps := []int{2, 3, 4, 5}
		mult, add := mbrs(ts, comps)
		// Random data rectangle, including negative coordinates (phases).
		lo := make([]float64, len(comps))
		hi := make([]float64, len(comps))
		for i := range lo {
			a, b := rng.NormFloat64()*3, rng.NormFloat64()*3
			lo[i], hi[i] = math.Min(a, b), math.Max(a, b)
		}
		rect := applyRect(lo, hi)
		out := ApplyMBRs(mult, add, rect)
		for trial := 0; trial < 30; trial++ {
			p := make([]float64, len(comps))
			for i := range p {
				p[i] = lo[i] + rng.Float64()*(hi[i]-lo[i])
			}
			tr := ts[rng.Intn(len(ts))]
			q := applyToPoint(tr, comps, p)
			for i := range q {
				if q[i] < out.Lo[i]-1e-9 || q[i] > out.Hi[i]+1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestApplyMBRsWorkedExample(t *testing.T) {
	// A Fig. 4-style worked example: mult interval [0.85, 1] x {1},
	// add interval {0} x [-0.96, 0], data rect [3, 7] x [1, 3].
	mult := applyRect([]float64{0.85, 1}, []float64{1, 1})
	add := applyRect([]float64{0, -0.96}, []float64{0, 0})
	data := applyRect([]float64{3, 1}, []float64{7, 3})
	out := ApplyMBRs(mult, add, data)
	if math.Abs(out.Lo[0]-0.85*3) > 1e-12 || math.Abs(out.Hi[0]-1*7) > 1e-12 {
		t.Errorf("magnitude interval = [%v, %v], want [2.55, 7]", out.Lo[0], out.Hi[0])
	}
	if math.Abs(out.Lo[1]-(1*1-0.96)) > 1e-12 || math.Abs(out.Hi[1]-3) > 1e-12 {
		t.Errorf("phase interval = [%v, %v], want [0.04, 3]", out.Lo[1], out.Hi[1])
	}
}

func TestLemma2ScaleOrdering(t *testing.T) {
	// Lemma 2: positive scale factors sorted ascending form an ordering
	// per Definition 1.
	rng := rand.New(rand.NewSource(11))
	n := 32
	factors := []float64{2, 3, 5, 10, 50, 100}
	o := NewScaleOrderedSet(n, factors)
	var samples [][]complex128
	for i := 0; i < 6; i++ {
		samples = append(samples, dft.TransformReal(randSeries(rng, n)))
	}
	if !CheckOrdering(o.Transforms, samples, 1e-9) {
		t.Error("scale factors violated Definition 1 on random samples")
	}
	if fs, ok := OrderableAsScales(o.Transforms); !ok || len(fs) != len(factors) {
		t.Error("OrderableAsScales rejected a pure scale set")
	}
	if _, ok := OrderableAsScales([]Transform{MovingAverage(n, 3)}); ok {
		t.Error("OrderableAsScales accepted a moving average")
	}
}

// applyToPoint applies t, restricted to the components comps, to a
// feature point: out[d] = A[comps[d]]*p[d] + B[comps[d]]. It is the point
// Lemma 1 says the transformed MBR contains.
func applyToPoint(t Transform, comps []int, p geom.Point) geom.Point {
	out := make(geom.Point, len(p))
	for d, c := range comps {
		out[d] = t.A[c]*p[d] + t.B[c]
	}
	return out
}

// appendixSeries are s1, s2, s3 from Appendix A.
func appendixSeries() [][]float64 {
	return [][]float64{
		{10, 12, 10, 12},
		{10, 11, 12, 11},
		{11, 11, 11, 11},
	}
}

func TestLemma3CircularMACounterexample(t *testing.T) {
	// Lemma 3: circular moving averages admit no ordering. The appendix
	// counterexample: both candidate orderings between mv2 and mv3 fail.
	n := 4
	mv2 := MovingAverage(n, 2)
	mv3 := MovingAverage(n, 3)
	var samples [][]complex128
	for _, s := range appendixSeries() {
		samples = append(samples, dft.TransformReal(s))
	}
	if CheckOrdering([]Transform{mv2, mv3}, samples, 1e-9) {
		t.Error("mv2 <= mv3 unexpectedly held on the appendix counterexample")
	}
	if CheckOrdering([]Transform{mv3, mv2}, samples, 1e-9) {
		t.Error("mv3 <= mv2 unexpectedly held on the appendix counterexample")
	}
	// The concrete distances driving the contradiction. Note: the appendix
	// prints D(mv3(s2), mv3(s3)) = 0.75; the exact value for these series
	// is sqrt(2)/3 ~= 0.4714 (two components off by 1/3), which still
	// contradicts mv2 <= mv3 since D(mv2(s2), mv2(s3)) = 1.
	d22 := mv2.Distance(samples[1], samples[2])
	d32 := mv3.Distance(samples[1], samples[2])
	if math.Abs(d22-1) > 1e-7 {
		t.Errorf("D(mv2(s2), mv2(s3)) = %v, want 1", d22)
	}
	if math.Abs(d32-math.Sqrt(2)/3) > 1e-7 {
		t.Errorf("D(mv3(s2), mv3(s3)) = %v, want %v", d32, math.Sqrt(2)/3)
	}
	d21 := mv2.Distance(samples[0], samples[2])
	d31 := mv3.Distance(samples[0], samples[2])
	if d21 > 1e-7 {
		t.Errorf("D(mv2(s1), mv2(s3)) = %v, want 0", d21)
	}
	if math.Abs(d31-2.0/3.0) > 1e-7 {
		t.Errorf("D(mv3(s1), mv3(s3)) = %v, want 2/3", d31)
	}
}

func TestLemma4NonCircularMACounterexample(t *testing.T) {
	// Lemma 4: plain (non-circular) moving averages admit no ordering
	// either; verified in the time domain with the appendix numbers.
	ss := appendixSeries()
	mv := func(s []float64, m int) series.Series { return series.MovingAverage(series.Series(s), m) }
	d := series.EuclideanDistance
	// Case 1 violation: D(mv2(s2), mv2(s3)) = 0.87 > D(mv3(s2), mv3(s3)) = 0.33.
	if got := d(mv(ss[1], 2), mv(ss[2], 2)); math.Abs(got-math.Sqrt(0.75)) > 1e-7 {
		t.Errorf("D(mv2(s2), mv2(s3)) = %v, want %v", got, math.Sqrt(0.75))
	}
	if got := d(mv(ss[1], 3), mv(ss[2], 3)); math.Abs(got-1.0/3.0) > 1e-7 {
		t.Errorf("D(mv3(s2), mv3(s3)) = %v, want 1/3", got)
	}
	// Case 2 violation: D(mv3(s1), mv3(s3)) = 0.47 > D(mv2(s1), mv2(s3)) = 0.
	if got := d(mv(ss[0], 3), mv(ss[2], 3)); math.Abs(got-math.Sqrt(2)/3) > 1e-7 {
		t.Errorf("D(mv3(s1), mv3(s3)) = %v, want %v", got, math.Sqrt(2)/3)
	}
	if got := d(mv(ss[0], 2), mv(ss[2], 2)); got > 1e-12 {
		t.Errorf("D(mv2(s1), mv2(s3)) = %v, want 0", got)
	}
}

func TestOrderedBinarySearch(t *testing.T) {
	// Sec. 4.4: with an ordered set, the qualifying transformations form a
	// prefix found with O(log |T|) distance evaluations.
	rng := rand.New(rand.NewSource(12))
	n := 32
	factors := make([]float64, 64)
	for i := range factors {
		factors[i] = float64(i + 2)
	}
	o := NewScaleOrderedSet(n, factors)
	x := dft.TransformReal(randSeries(rng, n))
	y := dft.TransformReal(randSeries(rng, n))
	base := dft.Distance(x, y)
	// Choose eps so roughly half the scales qualify.
	eps := base * 33
	var evals int
	k := o.LargestQualifying(func(i int) bool {
		evals++
		return o.Transforms[i].Distance(x, y) <= eps
	})
	// Verify against linear scan.
	want := -1
	for i, tr := range o.Transforms {
		if tr.Distance(x, y) <= eps {
			want = i
		}
	}
	if k != want {
		t.Errorf("binary search found index %d, linear scan %d", k, want)
	}
	if maxEvals := 7; evals > maxEvals { // ceil(log2(64))+1
		t.Errorf("binary search used %d evaluations, want <= %d", evals, maxEvals)
	}
}

func TestLargestQualifyingEdges(t *testing.T) {
	o := NewScaleOrderedSet(8, []float64{1, 2, 3})
	if got := o.LargestQualifying(func(int) bool { return false }); got != -1 {
		t.Errorf("none qualifying: got %d, want -1", got)
	}
	if got := o.LargestQualifying(func(int) bool { return true }); got != 2 {
		t.Errorf("all qualifying: got %d, want 2", got)
	}
}

func TestWithInverted(t *testing.T) {
	n := 16
	ts := WithInverted(MovingAverageSet(n, 2, 4))
	if len(ts) != 6 {
		t.Fatalf("len = %d, want 6", len(ts))
	}
	rng := rand.New(rand.NewSource(13))
	s := randSeries(rng, n)
	a := ts[0].ApplySeries(s) // mv2
	b := ts[3].ApplySeries(s) // mv2 inverted
	if !seriesClose(b, series.Scale(a, -1), 1e-7) {
		t.Error("inverted half is not the negation of the original half")
	}
}

func TestMBRsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for empty set")
		}
	}()
	mbrs(nil, []int{0})
}

// mbrs returns the MBRs of ts over comps in new rectangles.
func mbrs(ts []Transform, comps []int) (mult, add geom.Rect) {
	mult = geom.Rect{Lo: make(geom.Point, len(comps)), Hi: make(geom.Point, len(comps))}
	add = geom.Rect{Lo: make(geom.Point, len(comps)), Hi: make(geom.Point, len(comps))}
	MBRs(mult, add, ts, comps)
	return mult, add
}

func applyRect(lo, hi []float64) geom.Rect {
	return geom.NewRect(geom.Point(lo), geom.Point(hi))
}

func TestWeightedMovingAverageMatchesTimeDomain(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	n := 64
	s := randSeries(rng, n)
	weights := []float64{3, 2, 1}
	got := WeightedMovingAverage(n, weights).ApplySeries(s)
	want := make(series.Series, n)
	for i := 0; i < n; i++ {
		var acc float64
		for j, w := range weights {
			acc += w * s[((i-j)%n+n)%n]
		}
		want[i] = acc / 6
	}
	if !seriesClose(got, want, 1e-7) {
		t.Error("weighted moving average disagrees with time domain")
	}
	// Uniform weights reduce to the plain moving average.
	uniform := WeightedMovingAverage(n, []float64{1, 1, 1, 1}).ApplySeries(s)
	plain := series.CircularMovingAverage(s, 4)
	if !seriesClose(uniform, plain, 1e-7) {
		t.Error("uniform WMA differs from MovingAverage")
	}
}

func TestWeightedMovingAveragePanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"empty", func() { WeightedMovingAverage(8, nil) }},
		{"too many", func() { WeightedMovingAverage(2, []float64{1, 1, 1}) }},
		{"zero sum", func() { WeightedMovingAverage(8, []float64{1, -1}) }},
		{"ema low", func() { EMA(8, 0) }},
		{"ema high", func() { EMA(8, 1.5) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			tc.fn()
		})
	}
}

func TestEMAMatchesTimeDomain(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	n := 64
	s := randSeries(rng, n)
	alpha := 0.3
	got := EMA(n, alpha).ApplySeries(s)
	// Direct circular convolution with the normalized geometric kernel.
	kernel := make(series.Series, n)
	var sum float64
	w := alpha
	for j := 0; j < n; j++ {
		kernel[j] = w
		sum += w
		w *= 1 - alpha
	}
	want := make(series.Series, n)
	for i := 0; i < n; i++ {
		var acc float64
		for j := 0; j < n; j++ {
			acc += kernel[j] * s[((i-j)%n+n)%n]
		}
		want[i] = acc / sum
	}
	if !seriesClose(got, want, 1e-7) {
		t.Error("EMA disagrees with direct circular convolution")
	}
	// EMA smooths: the result's variance is below the input's.
	if got.Std() >= s.Std() {
		t.Error("EMA did not smooth")
	}
}

func TestReverseMatchesTimeDomain(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	n := 32
	s := randSeries(rng, n)
	got := Reverse(n).ApplySeries(s)
	want := make(series.Series, n)
	for i := range want {
		want[i] = s[((-i)%n+n)%n]
	}
	if !seriesClose(got, want, 1e-7) {
		t.Error("Reverse disagrees with time-domain reversal")
	}
	// Reversal is an involution.
	back := Reverse(n).ApplySeries(got)
	if !seriesClose(back, s, 1e-7) {
		t.Error("double reversal is not the identity")
	}
	// And an isometry.
	x := dft.TransformReal(randSeries(rng, n))
	y := dft.TransformReal(randSeries(rng, n))
	if math.Abs(Reverse(n).Distance(x, y)-dft.Distance(x, y)) > 1e-7 {
		t.Error("reversal changed pairwise distance")
	}
}

func TestReverseThroughIndexPath(t *testing.T) {
	// Reverse has phase multiplier -1: check DistancePolar and the MBR
	// machinery handle a non-unit phase multiplier.
	rng := rand.New(rand.NewSource(17))
	n := 32
	a := randSeries(rng, n)
	b := randSeries(rng, n)
	X, Y := dft.TransformReal(a), dft.TransformReal(b)
	rev := Reverse(n)
	polarOf := func(Z []complex128) (m, p []float64) {
		pol := dft.ToPolar(Z)
		m = make([]float64, len(pol))
		p = make([]float64, len(pol))
		for i, v := range pol {
			m[i], p[i] = v.Mag, v.Phase
		}
		return m, p
	}
	xm, xp := polarOf(X)
	ym, yp := polarOf(Y)
	got := rev.DistancePolar(xm, xp, ym, yp)
	want := rev.Distance(X, Y)
	if math.Abs(got-want) > 1e-7 {
		t.Errorf("DistancePolar %v vs Distance %v under reversal", got, want)
	}
	// MBR containment with a mixed set including Reverse.
	ts := []Transform{rev, MovingAverage(n, 3), Identity(n)}
	comps := []int{2, 3, 4, 5}
	mult, add := mbrs(ts, comps)
	p := geom.Point{1.5, 0.7, 2.2, -2.9}
	rect := geom.PointRect(p)
	out := ApplyMBRs(mult, add, rect)
	for _, tr := range ts {
		q := applyToPoint(tr, comps, p)
		for d := range q {
			if q[d] < out.Lo[d]-1e-9 || q[d] > out.Hi[d]+1e-9 {
				t.Fatalf("%s(p) dim %d = %v outside %v", tr.Name, d, q[d], out)
			}
		}
	}
}

func TestMomentumLagMatchesTimeDomain(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	n := 48
	s := randSeries(rng, n)
	for _, k := range []int{1, 2, 5, 20} {
		got := MomentumLag(n, k).ApplySeries(s)
		want := make(series.Series, n)
		for i := 0; i < n; i++ {
			want[i] = s[i] - s[((i-k)%n+n)%n]
		}
		if !seriesClose(got, want, 1e-7) {
			t.Errorf("lag %d momentum disagrees with time domain", k)
		}
	}
	// Lag 1 equals the classic momentum.
	a := MomentumLag(n, 1).ApplySeries(s)
	b := Momentum(n).ApplySeries(s)
	if !seriesClose(a, b, 1e-9) {
		t.Error("MomentumLag(1) differs from Momentum")
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic for lag 0")
		}
	}()
	MomentumLag(n, 0)
}
