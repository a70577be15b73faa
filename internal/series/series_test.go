package series

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randSeries(rng *rand.Rand, n int) Series {
	s := make(Series, n)
	for i := range s {
		s[i] = rng.NormFloat64()*25 + 100
	}
	return s
}

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanStd(t *testing.T) {
	s := Series{2, 4, 4, 4, 5, 5, 7, 9}
	if got := s.Mean(); !almostEqual(got, 5, 1e-12) {
		t.Errorf("Mean = %v, want 5", got)
	}
	// Sample std with divisor n-1: sqrt(32/7).
	if got, want := s.Std(), math.Sqrt(32.0/7.0); !almostEqual(got, want, 1e-12) {
		t.Errorf("Std = %v, want %v", got, want)
	}
}

func TestMeanStdDegenerate(t *testing.T) {
	if got := (Series{}).Mean(); got != 0 {
		t.Errorf("empty mean = %v", got)
	}
	if got := (Series{7}).Std(); got != 0 {
		t.Errorf("singleton std = %v", got)
	}
	if got := (Series{3, 3, 3}).Std(); got != 0 {
		t.Errorf("constant std = %v", got)
	}
}

// TestMeanStdScaleFree: the mean and std of a·s are a times those of s,
// and the normal form is s's, for a = 10^k over the whole finite range,
// where the plain sums overflow (k >= 150 here) or underflow (k <= -160).
func TestMeanStdScaleFree(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	s := randSeries(rng, 64)
	norm, mean, std := s.NormalForm()
	for k := -300; k <= 306; k += 6 {
		a := math.Pow(10, float64(k))
		as := make(Series, len(s))
		for i, v := range s {
			as[i] = a * v
		}
		gotNorm, gotMean, gotStd := as.NormalForm()
		if !almostEqual(gotMean/a, mean, 1e-12*mean) || !almostEqual(gotStd/a, std, 1e-12*std) {
			t.Fatalf("a=1e%d: mean %v, std %v; want a times %v and %v", k, gotMean, gotStd, mean, std)
		}
		for i := range norm {
			if !almostEqual(gotNorm[i], norm[i], 1e-12) {
				t.Fatalf("a=1e%d: normal form[%d] = %v, want %v", k, i, gotNorm[i], norm[i])
			}
		}
	}
}

func TestNormalFormProperties(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%100 + 2
		s := randSeries(rand.New(rand.NewSource(seed)), n)
		norm, mean, std := s.NormalForm()
		if std == 0 {
			return true
		}
		// Normal form has mean ~0 and sample std ~1.
		if !almostEqual(norm.Mean(), 0, 1e-9) || !almostEqual(norm.Std(), 1, 1e-9) {
			return false
		}
		// Denormalize reconstructs the original.
		back := Denormalize(norm, mean, std)
		for i := range s {
			if !almostEqual(back[i], s[i], 1e-9*(1+math.Abs(s[i]))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestNormalFormConstantSeries(t *testing.T) {
	norm, mean, std := (Series{5, 5, 5, 5}).NormalForm()
	if mean != 5 || std != 0 {
		t.Errorf("mean/std = %v/%v, want 5/0", mean, std)
	}
	for _, v := range norm {
		if v != 0 {
			t.Errorf("constant normal form = %v, want zeros", norm)
		}
	}
}

func TestNormalFormMinimizesShiftDistance(t *testing.T) {
	// Property 1 of Sec. 3.2: subtracting the mean minimizes the Euclidean
	// distance over all scalar shifts.
	rng := rand.New(rand.NewSource(42))
	x := randSeries(rng, 64)
	y := randSeries(rng, 64)
	base := func(sx, sy float64) float64 {
		var ss float64
		for i := range x {
			d := (x[i] - sx) - (y[i] - sy)
			ss += d * d
		}
		return math.Sqrt(ss)
	}
	best := base(x.Mean(), y.Mean())
	for trial := 0; trial < 200; trial++ {
		sx := x.Mean() + rng.NormFloat64()*5
		sy := y.Mean() + rng.NormFloat64()*5
		if base(sx, sy) < best-1e-9 {
			t.Fatalf("shift (%v,%v) beats the mean shift: %v < %v", sx, sy, base(sx, sy), best)
		}
	}
}

func TestDistanceCorrelationIdentity(t *testing.T) {
	// Eq. 9 (self-consistent form): for normal forms,
	// D^2 = 2(n-1)(1 - rho).
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%100 + 3
		rng := rand.New(rand.NewSource(seed))
		x := randSeries(rng, n)
		y := randSeries(rng, n)
		nx, _, sx := x.NormalForm()
		ny, _, sy := y.NormalForm()
		if sx == 0 || sy == 0 {
			return true
		}
		d := EuclideanDistance(nx, ny)
		rho := Correlation(x, y)
		want := 2 * float64(n-1) * (1 - rho)
		return almostEqual(d*d, want, 1e-6*(1+want))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCorrelationInvariantToAffine(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x := randSeries(rng, 50)
	y := randSeries(rng, 50)
	rho := Correlation(x, y)
	x2 := Add(Scale(x, 3.5), make(Series, 50))
	for i := range x2 {
		x2[i] += 42
	}
	if got := Correlation(x2, y); !almostEqual(got, rho, 1e-9) {
		t.Errorf("correlation changed under positive affine map: %v vs %v", got, rho)
	}
	// Negative scaling flips the sign.
	if got := Correlation(Scale(x, -2), y); !almostEqual(got, -rho, 1e-9) {
		t.Errorf("correlation under negation = %v, want %v", got, -rho)
	}
}

func TestCorrelationBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := randSeries(rng, 30)
		y := randSeries(rng, 30)
		rho := Correlation(x, y)
		return rho >= -1-1e-12 && rho <= 1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
	x := Series{1, 2, 3, 4}
	if got := Correlation(x, x); !almostEqual(got, 1, 1e-12) {
		t.Errorf("self correlation = %v", got)
	}
	if got := Correlation(x, Scale(x, -1)); !almostEqual(got, -1, 1e-12) {
		t.Errorf("anti correlation = %v", got)
	}
}

func TestThresholdTranslationRoundTrip(t *testing.T) {
	// Sec. 3.2: translating correlation -> distance -> correlation is the
	// identity; the paper's headline numbers hold (rho=0.96, n=128 => ~3.19).
	d := DistanceForCorrelation(128, 0.96)
	if !almostEqual(d, math.Sqrt(2*127*0.04), 1e-12) {
		t.Errorf("distance for rho=0.96,n=128 = %v", d)
	}
	if d < 3.18 || d > 3.20 {
		t.Errorf("distance for rho=0.96,n=128 = %v, want ~3.19 (paper: 'less than 3' ballpark)", d)
	}
	for _, rho := range []float64{-0.5, 0, 0.5, 0.9, 0.96, 0.99, 1} {
		back := CorrelationForDistance(100, DistanceForCorrelation(100, rho))
		if !almostEqual(back, rho, 1e-12) {
			t.Errorf("roundtrip rho %v -> %v", rho, back)
		}
	}
}

func TestDistances(t *testing.T) {
	a := Series{0, 0, 0}
	b := Series{3, 4, 0}
	if got := EuclideanDistance(a, b); !almostEqual(got, 5, 1e-12) {
		t.Errorf("Euclidean = %v, want 5", got)
	}
	if got := CityBlockDistance(a, b); !almostEqual(got, 7, 1e-12) {
		t.Errorf("CityBlock = %v, want 7", got)
	}
	// Triangle inequality property.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x, y, z := randSeries(rng, 20), randSeries(rng, 20), randSeries(rng, 20)
		return EuclideanDistance(x, z) <= EuclideanDistance(x, y)+EuclideanDistance(y, z)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMovingAverage(t *testing.T) {
	s := Series{1, 2, 3, 4, 5}
	got := MovingAverage(s, 3)
	want := Series{2, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if !almostEqual(got[i], want[i], 1e-12) {
			t.Errorf("MA[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	// Window 1 is the identity.
	id := MovingAverage(s, 1)
	for i := range s {
		if id[i] != s[i] {
			t.Errorf("MA1 not identity at %d", i)
		}
	}
	// Full window is the mean.
	full := MovingAverage(s, 5)
	if len(full) != 1 || !almostEqual(full[0], 3, 1e-12) {
		t.Errorf("MA5 = %v, want [3]", full)
	}
}

func TestMovingAverageMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := randSeries(rng, 100)
	for _, m := range []int{1, 2, 7, 40, 100} {
		got := MovingAverage(s, m)
		for i := range got {
			var sum float64
			for j := 0; j < m; j++ {
				sum += s[i+j]
			}
			if !almostEqual(got[i], sum/float64(m), 1e-9) {
				t.Fatalf("m=%d i=%d: %v vs naive %v", m, i, got[i], sum/float64(m))
			}
		}
	}
}

func TestCircularMovingAverage(t *testing.T) {
	s := Series{10, 12, 10, 12}
	got := CircularMovingAverage(s, 2)
	want := Series{11, 11, 11, 11}
	for i := range want {
		if !almostEqual(got[i], want[i], 1e-12) {
			t.Errorf("CMA2[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	// The appendix's mv2(s2) example (trailing windows).
	s2 := Series{10, 11, 12, 11}
	got2 := CircularMovingAverage(s2, 2)
	want2 := Series{10.5, 10.5, 11.5, 11.5}
	for i := range want2 {
		if !almostEqual(got2[i], want2[i], 1e-12) {
			t.Errorf("CMA2(s2)[%d] = %v, want %v", i, got2[i], want2[i])
		}
	}
}

func TestCircularMovingAverageMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	s := randSeries(rng, 37)
	for _, m := range []int{1, 2, 5, 36, 37} {
		got := CircularMovingAverage(s, m)
		for i := range got {
			var sum float64
			for j := 0; j < m; j++ {
				sum += s[((i-j)%len(s)+len(s))%len(s)]
			}
			if !almostEqual(got[i], sum/float64(m), 1e-9) {
				t.Fatalf("m=%d i=%d: %v vs naive %v", m, i, got[i], sum/float64(m))
			}
		}
	}
}

func TestMomentum(t *testing.T) {
	s := Series{1, 4, 9, 16}
	got := Momentum(s, 1)
	want := Series{3, 5, 7}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Momentum1[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	got2 := Momentum(s, 2)
	want2 := Series{8, 12}
	for i := range want2 {
		if got2[i] != want2[i] {
			t.Errorf("Momentum2[%d] = %v, want %v", i, got2[i], want2[i])
		}
	}
}

func TestCircularMomentum(t *testing.T) {
	s := Series{1, 4, 9, 16}
	got := CircularMomentum(s)
	want := Series{-15, 3, 5, 7}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("CircularMomentum[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestShift(t *testing.T) {
	s := Series{1, 2, 3, 4}
	right := Shift(s, 2)
	wantR := Series{0, 0, 1, 2}
	for i := range wantR {
		if right[i] != wantR[i] {
			t.Errorf("Shift+2[%d] = %v, want %v", i, right[i], wantR[i])
		}
	}
	left := Shift(s, -1)
	wantL := Series{2, 3, 4, 0}
	for i := range wantL {
		if left[i] != wantL[i] {
			t.Errorf("Shift-1[%d] = %v, want %v", i, left[i], wantL[i])
		}
	}
	if zero := Shift(s, 0); EuclideanDistance(zero, s) != 0 {
		t.Error("Shift 0 is not the identity")
	}
	allZero := Shift(s, 10)
	for _, v := range allZero {
		if v != 0 {
			t.Errorf("overlong shift = %v, want zeros", allZero)
		}
	}
}

func TestPadZerosAndClone(t *testing.T) {
	s := Series{1, 2}
	p := PadZeros(s, 3)
	if len(p) != 5 || p[0] != 1 || p[4] != 0 {
		t.Errorf("PadZeros = %v", p)
	}
	c := s.Clone()
	c[0] = 99
	if s[0] != 1 {
		t.Error("Clone aliases the original")
	}
}

func TestPanics(t *testing.T) {
	cases := []struct {
		name string
		fn   func()
	}{
		{"MovingAverage window 0", func() { MovingAverage(Series{1, 2}, 0) }},
		{"MovingAverage window too big", func() { MovingAverage(Series{1, 2}, 3) }},
		{"CircularMovingAverage window 0", func() { CircularMovingAverage(Series{1}, 0) }},
		{"Momentum lag 0", func() { Momentum(Series{1, 2}, 0) }},
		{"Momentum lag too big", func() { Momentum(Series{1, 2}, 2) }},
		{"Distance mismatch", func() { EuclideanDistance(Series{1}, Series{1, 2}) }},
		{"Add mismatch", func() { Add(Series{1}, Series{1, 2}) }},
		{"Sub mismatch", func() { Sub(Series{1}, Series{1, 2}) }},
	}
	for _, tc := range cases {
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

func TestTimeScale(t *testing.T) {
	s := Series{0, 1, 2, 3}
	// Identity length.
	same := TimeScale(s, 4)
	for i := range s {
		if !almostEqual(same[i], s[i], 1e-12) {
			t.Fatalf("identity rescale changed the series: %v", same)
		}
	}
	// Upsample a linear ramp: stays linear.
	up := TimeScale(s, 7)
	if len(up) != 7 || !almostEqual(up[0], 0, 1e-12) || !almostEqual(up[6], 3, 1e-12) {
		t.Fatalf("upsample = %v", up)
	}
	for i := 1; i < 7; i++ {
		if !almostEqual(up[i]-up[i-1], 0.5, 1e-12) {
			t.Fatalf("upsampled ramp not linear: %v", up)
		}
	}
	// Downsample keeps the endpoints.
	down := TimeScale(Series{5, 1, 9, 2, 8, 3}, 3)
	if len(down) != 3 || down[0] != 5 || down[2] != 3 {
		t.Fatalf("downsample = %v", down)
	}
	// A scaled sine still correlates strongly with a natively sampled one.
	long := make(Series, 200)
	for i := range long {
		long[i] = math.Sin(2 * math.Pi * float64(i) / 200)
	}
	short := make(Series, 50)
	for i := range short {
		short[i] = math.Sin(2 * math.Pi * float64(i) / 50 * (199.0 / 200.0) * (49.0 / 49.0))
	}
	rescaled := TimeScale(long, 50)
	if rho := Correlation(rescaled, short); rho < 0.99 {
		t.Errorf("rescaled sine correlation %v", rho)
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic for m=1")
		}
	}()
	TimeScale(s, 1)
}
