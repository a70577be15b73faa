package transform

import (
	"math"
	"math/rand"
	"testing"
)

// pairFixtureSets returns the transformation sets the pair kernel is
// held to the plain kernels on: the benchmark's shape (moving averages,
// every phase multiplier 1), a set with Reverse in it, a composed set
// (moving averages of shifts, inverted: offsets, but multipliers still
// 1, and more transformations than the inline flag buffer holds), and a
// set with a hand-made phase multiplier of 0.5. want[i] says whether
// transformation i may read the shared cosines.
func pairFixtureSets(n int) (sets [][]Transform, want [][]bool) {
	all := func(k int, v bool) []bool {
		out := make([]bool, k)
		for i := range out {
			out[i] = v
		}
		return out
	}
	mv := MovingAverageSet(n, 3, 18)
	sets, want = append(sets, mv), append(want, all(len(mv), true))

	rev := append(MovingAverageSet(n, 4, 9), Reverse(n), Compose(MovingAverage(n, 6), Reverse(n)), Momentum(n))
	w := all(len(rev), true)
	w[6], w[7] = false, false
	sets, want = append(sets, rev), append(want, w)

	comp := WithInverted(ComposeSets(MovingAverageSet(n, 2, 8), TimeShiftSet(n, -1, 1)))
	sets, want = append(sets, comp), append(want, all(len(comp), true))

	// Hand-made vectors go through New: a constructor's result is not
	// to be written to.
	half := identity("halfphase", n)
	for f := 0; f < n; f++ {
		half.A[2*f] = 1.5
		half.A[2*f+1] = 0.5
	}
	late := identity("late", n) // every multiplier 1 but the last coefficient's
	for f := 0; f < n; f++ {
		late.A[2*f] = 2
	}
	late.A[2*n-1] = 0.5
	hand := []Transform{Scale(n, 0.7), half.classified(), MovingAverage(n, 5), late.classified()}
	sets, want = append(sets, hand), append(want, []bool{true, false, true, false})
	return sets, want
}

// TestPairEqualsPlainKernels is the pair kernel's contract, over 5 000
// random pairs and the fixture sets, two-sided and one-sided, at a cutoff
// straddling the true distances: evaluating a whole set on one Pair,
//   - a completed sum is DistancePolar's (DistancePolarLeft's) value bit
//     for bit, whichever transformations filled the cache before it;
//   - an evaluation abandons only when the exact distance exceeds eps;
//   - the decision and the value are DistancePolarAbandon's, so swapping
//     the kernel in changes no statistic;
//   - transformations with a phase multiplier other than 1, and every
//     one-sided evaluation, take the fallback.
//
// One trial in five runs at a length that leaves a scalar tail.
func TestPairEqualsPlainKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	sets64, want64 := pairFixtureSets(64)
	sets30, want30 := pairFixtureSets(30) // not a multiple of the block width: the scalar tail
	var p Pair
	var abandons, passes int
	for trial := 0; trial < 5000; trial++ {
		n, sets, want := 64, sets64, want64
		if trial%5 == 4 {
			n, sets, want = 30, sets30, want30
		}
		si := trial % len(sets)
		ts := sets[si]
		oneSided := trial%7 == 3
		p.Init(ts, oneSided)
		for i := range ts {
			if p.shared[i] != (want[si][i] && !oneSided) {
				t.Fatalf("set %d oneSided=%v: %s shared=%v, want %v", si, oneSided, ts[i].Name, p.shared[i], want[si][i] && !oneSided)
			}
		}
		xm, xp := randPolar(rng, n)
		ym, yp := randPolar(rng, n)
		if trial%4 == 0 {
			copy(ym, xm) // near-identical pair: sums near zero
			copy(yp, xp)
			ym[rng.Intn(n)] += rng.Float64() * 1e-3
		}
		p.Set(xm, xp, ym, yp)
		exact := make([]float64, len(ts))
		for i, tr := range ts {
			if oneSided {
				exact[i] = tr.DistancePolarLeft(xm, xp, ym, yp)
			} else {
				exact[i] = tr.DistancePolar(xm, xp, ym, yp)
			}
		}
		// One cutoff for the whole set, inside the spread of its
		// distances, so some evaluations abandon early and leave the
		// cache short for the ones that complete.
		eps := exact[rng.Intn(len(ts))] * (0.5 + rng.Float64())
		for _, i := range rng.Perm(len(ts)) {
			d, abandoned, terms := p.DistanceAbandon(i, eps)
			var wd float64
			var wab bool
			if oneSided {
				wd, wab, _ = ts[i].Verify(xm, xp, ym, yp, true, eps)
			} else {
				wd, wab = ts[i].DistancePolarAbandon(xm, xp, ym, yp, eps)
			}
			if d != wd || abandoned != wab {
				t.Fatalf("trial %d %s: pair kernel (%v, %v), plain abandoning kernel (%v, %v)", trial, ts[i].Name, d, abandoned, wd, wab)
			}
			if _, _, wterms := ts[i].Verify(xm, xp, ym, yp, oneSided, eps); terms != wterms {
				t.Fatalf("trial %d %s: pair kernel evaluated %d terms, Verify %d", trial, ts[i].Name, terms, wterms)
			}
			if abandoned {
				abandons++
				if exact[i] <= eps {
					t.Fatalf("trial %d %s: abandoned at eps=%v but the exact distance %v qualifies", trial, ts[i].Name, eps, exact[i])
				}
				continue
			}
			passes++
			if d != exact[i] {
				t.Fatalf("trial %d %s: completed sum %v, exact kernel %v", trial, ts[i].Name, d, exact[i])
			}
		}
	}
	if abandons == 0 || passes == 0 {
		t.Fatalf("degenerate trial mix: %d abandons, %d passes", abandons, passes)
	}
}

// TestPairNeverAbandonsAtTheDistance: a cutoff exactly equal to a
// transformation's distance must complete and return it — the NN search
// passes the k-th best distance as the cutoff, and a record tying with it
// has to be computed to be ranked.
func TestPairNeverAbandonsAtTheDistance(t *testing.T) {
	const n = 64
	rng := rand.New(rand.NewSource(17))
	sets, _ := pairFixtureSets(n)
	var p Pair
	for trial := 0; trial < 2000; trial++ {
		ts := sets[trial%len(sets)]
		p.Init(ts, false)
		xm, xp := randPolar(rng, n)
		ym, yp := randPolar(rng, n)
		p.Set(xm, xp, ym, yp)
		for i, tr := range ts {
			exact := tr.DistancePolar(xm, xp, ym, yp)
			if d, abandoned, _ := p.DistanceAbandon(i, exact); abandoned || d != exact {
				t.Fatalf("trial %d %s: eps = exact distance %v: abandoned=%v d=%v", trial, tr.Name, exact, abandoned, d)
			}
		}
	}
}

// TestPairSharesCosines counts what the kernel is for: a set of 16
// moving averages over one pair fills each cosine once, at most
// ⌈n/2⌉+1 of them since the set is symmetric, an evaluation that
// abandons early fills only the blocks it reached, and only a
// transformation that keeps the full sum fills the mirror half.
func TestPairSharesCosines(t *testing.T) {
	const n = 64
	rng := rand.New(rand.NewSource(18))
	ts := append(MovingAverageSet(n, 3, 18), MovingAverage(n, 4).FullOrder())
	xm, xp := randPolar(rng, n)
	ym, yp := randPolar(rng, n)
	var p Pair
	p.Init(ts, false)
	p.Set(xm, xp, ym, yp)
	// The block 1..4; the cache fills from coefficient 0.
	if _, abandoned, terms := p.DistanceAbandon(0, 1e-3); !abandoned || p.filled != 5 || p.mid || terms != 4 {
		t.Fatalf("early abandon: abandoned=%v after %d terms with cosines below %d filled (n/2: %v), want 4 terms, 5, false",
			abandoned, terms, p.filled, p.mid)
	}
	for i := range ts[:16] {
		if _, _, terms := p.DistanceAbandon(i, math.Inf(1)); terms != n/2+1 {
			t.Fatalf("%s: a completed symmetric sum took %d terms, want %d", ts[i].Name, terms, n/2+1)
		}
	}
	if p.filled != n/2 || !p.mid {
		t.Fatalf("cosines below %d filled (n/2: %v) after the symmetric set completed, want %d and n/2", p.filled, p.mid, n/2)
	}
	if _, _, terms := p.DistanceAbandon(16, math.Inf(1)); terms != n || p.filled != n {
		t.Fatalf("full-order sum: %d terms, cosines below %d filled, want %d and %d", terms, p.filled, n, n)
	}
	for f := 0; f < n; f++ {
		if want := math.Cos(xp[f] - yp[f]); p.cos[f] != want {
			t.Fatalf("cos[%d] = %v, want %v", f, p.cos[f], want)
		}
	}
	p.Set(ym, yp, xm, xp)
	if p.filled != 0 || p.mid {
		t.Fatalf("a new pair starts with %d cosines of the old one (n/2: %v)", p.filled, p.mid)
	}
}

// TestPairReuseDoesNotAllocate: rebinding the set and the pair, and
// evaluating, allocate nothing once the cosine buffer has its size.
func TestPairReuseDoesNotAllocate(t *testing.T) {
	const n = 64
	rng := rand.New(rand.NewSource(19))
	sets, _ := pairFixtureSets(n)
	xm, xp := randPolar(rng, n)
	ym, yp := randPolar(rng, n)
	var p Pair
	p.Init(sets[0], false)
	p.Set(xm, xp, ym, yp)
	var sink float64
	allocs := testing.AllocsPerRun(50, func() {
		for _, ts := range sets {
			p.Init(ts, false)
			p.Set(xm, xp, ym, yp)
			for i := range ts {
				d, _, _ := p.DistanceAbandon(i, 5)
				sink += d
			}
			p.Set(ym, yp, xm, xp)
			d, _, _ := p.DistanceAbandon(0, math.Inf(1))
			sink += d
		}
	})
	if allocs != 0 {
		t.Fatalf("a reused Pair allocates %v times per round, want 0", allocs)
	}
	if sink == 0 {
		t.Fatal("kernel returned zero on random input")
	}
}
