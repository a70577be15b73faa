package transform

import (
	"math/rand"
	"testing"
)

// Benchmarks for the blocked polar-distance kernels. Unlike the pure
// Euclidean kernel these are cosine-dominated (one math.Cos per
// coefficient), so no speedup assertion is attached — the blocked shape
// exists so the subtract/multiply traffic around the Cos calls
// pipelines, and so the plain and abandoning kernels stay structurally
// identical (the bit-identity contract lives in abandon_test.go).
//
// A moving average is symmetric, so the rows without a suffix sum half
// the spectrum; full runs the same vectors with the classification
// dropped (FullOrder), which is the loop every row ran before the half
// sum and the one an asymmetric transformation still takes.
func benchPolar(b *testing.B, left, abandon, early, full bool) {
	rng := rand.New(rand.NewSource(3))
	tr := MovingAverage(64, 7)
	if full {
		tr = tr.FullOrder()
	}
	xm, xp := randPolar(rng, 64)
	ym, yp := randPolar(rng, 64)
	eps := tr.DistancePolar(xm, xp, ym, yp) + 1
	if early {
		eps = 1e-3
	}
	var sink float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		switch {
		case left && abandon:
			d, _ := tr.DistancePolarLeftAbandon(xm, xp, ym, yp, eps)
			sink += d
		case left:
			sink += tr.DistancePolarLeft(xm, xp, ym, yp)
		case abandon:
			d, _ := tr.DistancePolarAbandon(xm, xp, ym, yp, eps)
			sink += d
		default:
			sink += tr.DistancePolar(xm, xp, ym, yp)
		}
	}
	if sink == 0 {
		b.Fatal("kernel returned zero on random input")
	}
}

func BenchmarkKernelPolar(b *testing.B)               { benchPolar(b, false, false, false, false) }
func BenchmarkKernelPolarAbandonSurvive(b *testing.B) { benchPolar(b, false, true, false, false) }
func BenchmarkKernelPolarAbandonEarly(b *testing.B)   { benchPolar(b, false, true, true, false) }
func BenchmarkKernelPolarLeft(b *testing.B)           { benchPolar(b, true, false, false, false) }
func BenchmarkKernelPolarLeftAbandon(b *testing.B)    { benchPolar(b, true, true, false, false) }
func BenchmarkKernelPolarLeftAbandonEarly(b *testing.B) {
	benchPolar(b, true, true, true, false)
}
func BenchmarkKernelPolarFullAbandonSurvive(b *testing.B) {
	benchPolar(b, false, true, false, true)
}
func BenchmarkKernelPolarFullAbandonEarly(b *testing.B) { benchPolar(b, false, true, true, true) }
func BenchmarkKernelPolarLeftFullAbandon(b *testing.B)  { benchPolar(b, true, true, false, true) }

// benchPolarPair16 is one verified candidate of the repo benchmark's
// range workloads: 16 moving averages evaluated on one (x, y) pair.
// shared runs them on a Pair, which computes each cosine once; otherwise
// every transformation calls DistancePolarAbandon and recomputes them.
// early sets the cutoff so every evaluation abandons in its first block
// (the Pair has nothing to amortize there: it must not be slower). full
// drops the set's classification, as in benchPolar.
func benchPolarPair16(b *testing.B, shared, early, full bool) {
	rng := rand.New(rand.NewSource(3))
	ts := MovingAverageSet(64, 5, 20)
	if full {
		for i := range ts {
			ts[i] = ts[i].FullOrder()
		}
	}
	xm, xp := randPolar(rng, 64)
	ym, yp := randPolar(rng, 64)
	eps := 1e-3
	if !early {
		for _, tr := range ts {
			eps = max(eps, tr.DistancePolar(xm, xp, ym, yp)+1)
		}
	}
	var p Pair
	p.Init(ts, false)
	var sink float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if shared {
			p.Set(xm, xp, ym, yp)
			for ti := range ts {
				d, _, _ := p.DistanceAbandon(ti, eps)
				sink += d
			}
			continue
		}
		for _, tr := range ts {
			d, _ := tr.DistancePolarAbandon(xm, xp, ym, yp, eps)
			sink += d
		}
	}
	if sink == 0 {
		b.Fatal("kernel returned zero on random input")
	}
}

func BenchmarkKernelPolarPair16SharedSurvive(b *testing.B) { benchPolarPair16(b, true, false, false) }
func BenchmarkKernelPolarPair16PerTransformSurvive(b *testing.B) {
	benchPolarPair16(b, false, false, false)
}
func BenchmarkKernelPolarPair16SharedEarly(b *testing.B) { benchPolarPair16(b, true, true, false) }
func BenchmarkKernelPolarPair16PerTransformEarly(b *testing.B) {
	benchPolarPair16(b, false, true, false)
}
func BenchmarkKernelPolarPair16SharedFullSurvive(b *testing.B) {
	benchPolarPair16(b, true, false, true)
}
func BenchmarkKernelPolarPair16SharedFullEarly(b *testing.B) { benchPolarPair16(b, true, true, true) }
