package transform

import (
	"math/rand"
	"testing"
)

func randPolar(rng *rand.Rand, k int) (mags, phases []float64) {
	mags = make([]float64, k)
	phases = make([]float64, k)
	for i := range mags {
		mags[i] = rng.Float64() * 10
		phases[i] = (rng.Float64() - 0.5) * 6
	}
	return mags, phases
}

// TestDistancePolarAbandonAgreesWithExact is the contract of the
// early-abandoning kernels against the exact ones, over random
// transformations and feature vectors:
//   - not abandoned => the returned distance is bit-identical to the
//     exact kernel (same summation order, no reordering);
//   - abandoned => the exact distance genuinely exceeds eps, so skipping
//     the candidate can never lose a match.
func TestDistancePolarAbandonAgreesWithExact(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ts := MovingAverageSet(64, 3, 30)
	const k = 64 // the kernels require full-length (n) polar spectra
	var abandons, passes int
	for trial := 0; trial < 4000; trial++ {
		tr := ts[rng.Intn(len(ts))]
		xm, xp := randPolar(rng, k)
		ym, yp := randPolar(rng, k)
		if rng.Intn(4) == 0 {
			copy(ym, xm) // near-identical pair: exercises the boundary
			copy(yp, xp)
			ym[rng.Intn(k)] += rng.Float64() * 1e-3
		}
		exact := tr.DistancePolar(xm, xp, ym, yp)
		eps := exact * (0.5 + rng.Float64()) // straddle the true distance
		d, abandoned := tr.DistancePolarAbandon(xm, xp, ym, yp, eps)
		if abandoned {
			abandons++
			if exact <= eps {
				t.Fatalf("trial %d: abandoned at eps=%v but exact distance %v qualifies", trial, eps, exact)
			}
		} else {
			passes++
			if d != exact {
				t.Fatalf("trial %d: non-abandoned distance %v != exact %v", trial, d, exact)
			}
		}

		exactL := tr.DistancePolarLeft(xm, xp, ym, yp)
		epsL := exactL * (0.5 + rng.Float64())
		dL, abandonedL, _ := tr.Verify(xm, xp, ym, yp, true, epsL)
		if abandonedL {
			if exactL <= epsL {
				t.Fatalf("trial %d: one-sided abandoned at eps=%v but exact %v qualifies", trial, epsL, exactL)
			}
		} else if dL != exactL {
			t.Fatalf("trial %d: one-sided non-abandoned %v != exact %v", trial, dL, exactL)
		}
	}
	if abandons == 0 || passes == 0 {
		t.Fatalf("degenerate trial mix: %d abandons, %d passes", abandons, passes)
	}
}

// TestAbandonCutoffAtBoundary: an eps exactly equal to the true distance
// must never abandon — the cutoff slack absorbs the sqrt/summation
// rounding at the boundary.
func TestAbandonCutoffAtBoundary(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ts := MovingAverageSet(64, 3, 30)
	for trial := 0; trial < 2000; trial++ {
		tr := ts[rng.Intn(len(ts))]
		xm, xp := randPolar(rng, 64)
		ym, yp := randPolar(rng, 64)
		exact := tr.DistancePolar(xm, xp, ym, yp)
		if d, abandoned := tr.DistancePolarAbandon(xm, xp, ym, yp, exact); abandoned || d != exact {
			t.Fatalf("trial %d: eps=exact distance abandoned=%v d=%v exact=%v", trial, abandoned, d, exact)
		}
	}
}
