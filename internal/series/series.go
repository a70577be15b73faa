// Package series provides the time-series kernel: the Series value type,
// distance measures (Euclidean, city-block), Pearson cross-correlation,
// normal forms, and the time-domain operations the paper's motivating
// examples use (moving average, momentum, time shift).
//
// Conventions. A time series is a finite sequence of float64 samples. The
// normal form of a series subtracts its mean and divides by its sample
// standard deviation (divisor n-1), which is the convention that makes the
// distance/correlation identity of Eq. (9) come out exactly as
// D^2 = 2(n-1)(1 - rho) for Pearson rho.
package series

import (
	"fmt"
	"math"
)

// Series is a time series: one real value per time point.
type Series []float64

// Clone returns an independent copy of s.
func (s Series) Clone() Series {
	out := make(Series, len(s))
	copy(out, s)
	return out
}

// Mean returns the arithmetic mean of s. The mean of an empty series is 0.
// A sum of finite samples that overflows is taken again over the samples
// divided by the largest magnitude (scaledMean), so a finite series has a
// finite mean; any other sum keeps the plain loop's bits.
func (s Series) Mean() float64 {
	if len(s) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s {
		sum += v
	}
	if math.IsInf(sum, 0) {
		if m := s.maxAbs(); m < math.Inf(1) {
			return s.scaledMean(m) * m
		}
	}
	return sum / float64(len(s))
}

// Std returns the sample standard deviation of s (divisor n-1). Series
// shorter than two points have standard deviation 0.
//
// Squared deviations overflow past about 1e154 and underflow below about
// 1e-154 (to zero below about 1e-162): the plain sum then reads +Inf, or
// 0 or a subnormal that has lost its bits although the series is not
// constant, and a normal form taken from it would be all zeros. In those
// cases, and only then, the sum is taken again over the samples divided
// by the largest magnitude, as math.Hypot divides by the larger side, and
// scaled back; every other series keeps the plain loop's bits.
func (s Series) Std() float64 {
	n := len(s)
	if n < 2 {
		return 0
	}
	mu := s.Mean()
	var ss float64
	for _, v := range s {
		d := v - mu
		ss += d * d
	}
	if math.IsInf(ss, 0) || ss < minPlainSum && s.varies(mu) {
		if m := s.maxAbs(); m < math.Inf(1) {
			return s.scaledStd(m) * m
		}
	}
	return math.Sqrt(ss / float64(n-1))
}

// minPlainSum is the least sum of squared deviations Std trusts: each
// term below the smallest normal float64 keeps fewer bits than a normal
// one, and a sum at least 2^53 times that is off by no more than its own
// rounding.
const minPlainSum = 0x1p-969

// maxAbs is the largest magnitude of a sample of s.
func (s Series) maxAbs() float64 {
	var m float64
	for _, v := range s {
		m = max(m, math.Abs(v))
	}
	return m
}

// varies reports whether some sample of s differs from mu.
func (s Series) varies(mu float64) bool {
	for _, v := range s {
		if v != mu {
			return true
		}
	}
	return false
}

// scaledMean is the mean of s divided by m, m > 0 its largest magnitude:
// every scaled sample lies in [-1, 1], so the sum cannot overflow.
func (s Series) scaledMean(m float64) float64 {
	var sum float64
	for _, v := range s {
		sum += v / m
	}
	return sum / float64(len(s))
}

// scaledStd is the sample standard deviation of s divided by m, m > 0 its
// largest magnitude. The scaled samples lie in [-1, 1] and one of them
// has magnitude 1, so when they differ their spread is at least 2^-53:
// the largest deviation lies between 2^-54 and 2, and the sum of the
// squares neither overflows nor underflows.
func (s Series) scaledStd(m float64) float64 {
	mu := s.scaledMean(m)
	var ss float64
	for _, v := range s {
		d := v/m - mu
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(s)-1))
}

// Stats returns the mean and sample standard deviation in one pass pair.
func (s Series) Stats() (mean, std float64) {
	return s.Mean(), s.Std()
}

// NormalForm returns the normal form of s (Sec. 3.2): (s - mean)/std,
// together with the mean and std needed to reconstruct the original. A
// constant series (std == 0) normalizes to all zeros.
func (s Series) NormalForm() (norm Series, mean, std float64) {
	mean, std = s.Stats()
	norm = make(Series, len(s))
	if std == 0 {
		return norm, mean, std
	}
	for i, v := range s {
		norm[i] = (v - mean) / std
	}
	return norm, mean, std
}

// Denormalize reverses NormalForm: returns norm*std + mean.
func Denormalize(norm Series, mean, std float64) Series {
	out := make(Series, len(norm))
	for i, v := range norm {
		out[i] = v*std + mean
	}
	return out
}

// EuclideanDistance returns the L2 distance between two equal-length series.
//
// The loop is blocked four samples wide over four independent
// accumulators: the loop body is pure float arithmetic with no
// loop-carried dependency on a single running sum, the shape a
// vectorizing backend maps onto SIMD lanes and that on a scalar backend
// still overlaps the four chains. DistEuclideanAbandon uses the exact
// same shape and final combine order ((s0+s1)+(s2+s3)), so completed
// sums of the two kernels are bit-identical.
func EuclideanDistance(a, b Series) float64 {
	checkLen("EuclideanDistance", a, b)
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		d0 := a[i] - b[i]
		d1 := a[i+1] - b[i+1]
		d2 := a[i+2] - b[i+2]
		d3 := a[i+3] - b[i+3]
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
	}
	for ; i < len(a); i++ {
		d := a[i] - b[i]
		s0 += d * d
	}
	return math.Sqrt((s0 + s1) + (s2 + s3))
}

// DistEuclideanAbandon is EuclideanDistance with an early-abandoning
// cutoff: squared differences are non-negative, so the partial sums
// grow monotonically and the loop stops as soon as they prove the
// distance exceeds eps. When it abandons it returns (lb, true) with lb
// a lower bound on the true distance; otherwise the value is
// bit-identical to EuclideanDistance and abandoned is false. The
// cutoff sits slightly above eps² so the abandon decision can never
// disagree with the exact kernel at the boundary (sqrt rounding). The
// loop is blocked exactly like EuclideanDistance, with the cutoff
// checked once per four-sample block; partial sums only grow, so
// block-granular checking abandons on the same inputs as per-sample
// checking — whenever the full sum would exceed the cutoff.
func DistEuclideanAbandon(a, b Series, eps float64) (float64, bool) {
	checkLen("DistEuclideanAbandon", a, b)
	cut := eps*eps*(1+1e-9) + 1e-9
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		d0 := a[i] - b[i]
		d1 := a[i+1] - b[i+1]
		d2 := a[i+2] - b[i+2]
		d3 := a[i+3] - b[i+3]
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
		if ss := (s0 + s1) + (s2 + s3); ss > cut {
			return math.Sqrt(ss), true
		}
	}
	for ; i < len(a); i++ {
		d := a[i] - b[i]
		s0 += d * d
		if ss := (s0 + s1) + (s2 + s3); ss > cut {
			return math.Sqrt(ss), true
		}
	}
	return math.Sqrt((s0 + s1) + (s2 + s3)), false
}

// CityBlockDistance returns the L1 distance between two equal-length series.
func CityBlockDistance(a, b Series) float64 {
	checkLen("CityBlockDistance", a, b)
	var s float64
	for i := range a {
		s += math.Abs(a[i] - b[i])
	}
	return s
}

// Correlation returns the Pearson cross-correlation coefficient between two
// equal-length series, in [-1, 1]. If either series is constant the
// correlation is undefined and 0 is returned.
func Correlation(a, b Series) float64 {
	checkLen("Correlation", a, b)
	n := len(a)
	if n < 2 {
		return 0
	}
	ma, mb := a.Mean(), b.Mean()
	var sab, saa, sbb float64
	for i := range a {
		da, db := a[i]-ma, b[i]-mb
		sab += da * db
		saa += da * da
		sbb += db * db
	}
	if saa == 0 || sbb == 0 {
		return 0
	}
	return sab / math.Sqrt(saa*sbb)
}

// DistanceForCorrelation translates a correlation threshold into the
// equivalent Euclidean-distance threshold on normal forms (Eq. 9, with the
// self-consistent constant): D^2 = 2(n-1)(1-rho).
func DistanceForCorrelation(n int, rho float64) float64 {
	if n < 2 {
		return 0
	}
	d2 := 2 * float64(n-1) * (1 - rho)
	if d2 < 0 {
		return 0
	}
	return math.Sqrt(d2)
}

// CorrelationForDistance is the inverse translation of
// DistanceForCorrelation: given a distance threshold on normal forms it
// returns the corresponding correlation threshold.
func CorrelationForDistance(n int, d float64) float64 {
	if n < 2 {
		return 0
	}
	return 1 - d*d/(2*float64(n-1))
}

// MovingAverage returns the plain (non-circular) m-day moving average of s:
// output[i] = mean(s[i..i+m-1]). The result is m-1 points shorter than s.
// m must be in [1, len(s)].
func MovingAverage(s Series, m int) Series {
	if m < 1 || m > len(s) {
		panic(fmt.Sprintf("series: MovingAverage window %d out of range for length %d", m, len(s)))
	}
	out := make(Series, len(s)-m+1)
	var window float64
	for i := 0; i < m; i++ {
		window += s[i]
	}
	out[0] = window / float64(m)
	for i := 1; i < len(out); i++ {
		window += s[i+m-1] - s[i-1]
		out[i] = window / float64(m)
	}
	return out
}

// CircularMovingAverage returns the circular m-day moving average used by
// the frequency-domain moving-average transformation: output[i] is the mean
// of the trailing window s[i-m+1 mod n], ..., s[i]. The trailing convention
// is the one the paper's appendix uses (mv2 of [10 11 12 11] is
// [10.5 10.5 11.5 11.5]). The output has the same length as s. m must be
// in [1, len(s)].
func CircularMovingAverage(s Series, m int) Series {
	n := len(s)
	if m < 1 || m > n {
		panic(fmt.Sprintf("series: CircularMovingAverage window %d out of range for length %d", m, n))
	}
	out := make(Series, n)
	var window float64
	for j := 0; j < m; j++ {
		window += s[((0-j)%n+n)%n]
	}
	for i := 0; i < n; i++ {
		out[i] = window / float64(m)
		window += s[(i+1)%n] - s[((i+1-m)%n+n)%n]
	}
	return out
}

// Momentum returns the lag-k momentum of s: out[i] = s[i+k] - s[i]. The
// result is k points shorter than s. k must be in [1, len(s)-1].
func Momentum(s Series, k int) Series {
	if k < 1 || k >= len(s) {
		panic(fmt.Sprintf("series: Momentum lag %d out of range for length %d", k, len(s)))
	}
	out := make(Series, len(s)-k)
	for i := range out {
		out[i] = s[i+k] - s[i]
	}
	return out
}

// CircularMomentum returns the circular lag-1 momentum used by the
// frequency-domain momentum transformation: the circular convolution of s
// with [1, -1, 0, ..., 0] per Sec. 3.1.1. The output has the same length
// as s: out[i] = s[i] - s[i-1 mod n].
func CircularMomentum(s Series) Series {
	n := len(s)
	out := make(Series, n)
	for i := 0; i < n; i++ {
		out[i] = s[i] - s[((i-1)%n+n)%n]
	}
	return out
}

// Shift returns s shifted k points to the right, padded with zeros on the
// left and truncated to the original length (the Sec. 3.1.2 convention of
// forgetting overflow values). Negative k shifts left. |k| larger than the
// series length yields all zeros.
func Shift(s Series, k int) Series {
	n := len(s)
	out := make(Series, n)
	for i := 0; i < n; i++ {
		j := i - k
		if j >= 0 && j < n {
			out[i] = s[j]
		}
	}
	return out
}

// TimeScale resamples s to length m by linear interpolation, the
// g(t) = f(c*t) time-scaling operation of the companion paper. Unlike the
// other operations here it is not expressible as a linear transformation
// over the Fourier coefficients of a fixed length, so it is a series
// utility rather than an indexable transform: scale first, then query.
// m must be at least 2 and s at least 2 points long.
func TimeScale(s Series, m int) Series {
	if len(s) < 2 || m < 2 {
		panic(fmt.Sprintf("series: TimeScale from %d to %d points", len(s), m))
	}
	out := make(Series, m)
	scale := float64(len(s)-1) / float64(m-1)
	for i := 0; i < m; i++ {
		pos := float64(i) * scale
		j := int(pos)
		if j >= len(s)-1 {
			out[i] = s[len(s)-1]
			continue
		}
		frac := pos - float64(j)
		out[i] = s[j]*(1-frac) + s[j+1]*frac
	}
	return out
}

// PadZeros returns s extended with k trailing zeros.
func PadZeros(s Series, k int) Series {
	out := make(Series, len(s)+k)
	copy(out, s)
	return out
}

// Scale returns c*s.
func Scale(s Series, c float64) Series {
	out := make(Series, len(s))
	for i, v := range s {
		out[i] = c * v
	}
	return out
}

// Add returns a+b elementwise.
func Add(a, b Series) Series {
	checkLen("Add", a, b)
	out := make(Series, len(a))
	for i := range a {
		out[i] = a[i] + b[i]
	}
	return out
}

// Sub returns a-b elementwise.
func Sub(a, b Series) Series {
	checkLen("Sub", a, b)
	out := make(Series, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}

func checkLen(op string, a, b Series) {
	if len(a) != len(b) {
		panic(fmt.Sprintf("series: %s on mismatched lengths %d and %d", op, len(a), len(b)))
	}
}
