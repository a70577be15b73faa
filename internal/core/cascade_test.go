package core

import (
	"math"
	"testing"

	"tsq/internal/geom"
	"tsq/internal/series"
	"tsq/internal/transform"
)

// cascadeFixtureTransforms returns a transformation group exercising all
// three phase paths of the cascade: pure phase offsets (moving
// averages, multiplier +1), time reversal (multiplier -1), and a
// general multiplier via composition with Reverse.
func cascadeFixtureTransforms(n int) []transform.Transform {
	ts := transform.MovingAverageSet(n, 4, 12)
	ts = append(ts, transform.Reverse(n))
	ts = append(ts, transform.Compose(transform.MovingAverage(n, 6), transform.Reverse(n)))
	return ts
}

// newLBCascade builds a cascade of its own for one transformation group
// under its symmetry factor sym (Index.symmetry), as a probe arms the one
// in its scratch.
func (ix *Index) newLBCascade(sub []transform.Transform, q *Record, eps float64, oneSided bool, sym float64) *lbCascade {
	c := new(lbCascade)
	c.init(ix.opts.K, sub, q, eps, oneSided, sym)
	return c
}

// flatSkips is the flat bound's decision, the reference the cascade's
// dismissals are held to: prefixLB under the group's symmetry factor,
// against the cutoff of eps, both recomputed per call.
func flatSkips(ix *Index, feat geom.Point, ts []transform.Transform, q *Record, eps float64, oneSided bool) bool {
	cut := transform.AbandonCutoff(eps)
	return ix.prefixLB(feat, ts, q, oneSided, ix.symmetry(ts, oneSided), cut) > cut
}

// TestCascadeMatchesFlatDecisions: the cascade's skip/keep decision must
// equal the flat single-tier bound's on every stored feature point, for
// both sided-nesses and with and without the symmetry doubling — the
// tiers are successively tighter underestimates of the same quantity,
// so they can only dismiss what the full bound dismisses.
func TestCascadeMatchesFlatDecisions(t *testing.T) {
	for _, sym := range []bool{true, false} {
		opts := DefaultIndexOptions()
		opts.UseSymmetry = sym
		ds, ix := buildFixture(t, 5, 250, 64, opts)
		ts := cascadeFixtureTransforms(64)
		for trial := 0; trial < 4; trial++ {
			q := ds.Records[trial*29%len(ds.Records)]
			eps := series.DistanceForCorrelation(64, 0.85+0.04*float64(trial))
			for _, oneSided := range []bool{false, true} {
				casc := ix.newLBCascade(ts, q, eps, oneSided, ix.symmetry(ts, oneSided))
				for _, r := range ds.Records {
					feat := r.Feature(ix.opts.K)
					flat := flatSkips(ix, feat, ts, q, eps, oneSided)
					tier := casc.skip(feat)
					if (tier >= 0) != flat {
						t.Fatalf("sym=%v oneSided=%v trial=%d rec=%d: cascade tier %d, flat skip %v (prefixLB=%v eps=%v)",
							sym, oneSided, trial, r.ID, tier, flat, math.Sqrt(sqPrefixLB(ix, feat, ts, q, oneSided)), eps)
					}
				}
			}
		}
	}
}

// TestCascadeSkipIsSound: every candidate the cascade dismisses — at
// any tier — really is outside eps for every transformation of the
// group, per the exact verification kernels. This is the no-false-
// dismissal contract that keeps pipeline answers bit-identical.
func TestCascadeSkipIsSound(t *testing.T) {
	ds, ix := buildFixture(t, 11, 250, 64, DefaultIndexOptions())
	ts := cascadeFixtureTransforms(64)
	var skips int
	for trial := 0; trial < 4; trial++ {
		q := ds.Records[trial*31%len(ds.Records)]
		eps := series.DistanceForCorrelation(64, 0.8+0.05*float64(trial))
		for _, oneSided := range []bool{false, true} {
			casc := ix.newLBCascade(ts, q, eps, oneSided, ix.symmetry(ts, oneSided))
			for _, r := range ds.Records {
				if casc.skip(r.Feature(ix.opts.K)) < 0 {
					continue
				}
				skips++
				for _, tr := range ts {
					if d := distancePred(tr, r, q, oneSided); d <= eps {
						t.Fatalf("trial=%d oneSided=%v: cascade dismissed record %d but %s matches at d=%v <= eps=%v",
							trial, oneSided, r.ID, tr.Name, d, eps)
					}
				}
			}
		}
	}
	if skips == 0 {
		t.Fatal("degenerate workload: cascade never skipped — soundness untested")
	}
}

// TestCascadeBoundaryNeverSkips is the boundary contract of every tier:
// a candidate whose true distance equals eps exactly — and one within
// 1e-12 of it — must never be skipped, one-sided and two-sided, with
// and without the symmetry doubling. The true distance is taken from
// the exact verification kernel, so "equals eps exactly" is bitwise.
func TestCascadeBoundaryNeverSkips(t *testing.T) {
	for _, sym := range []bool{true, false} {
		opts := DefaultIndexOptions()
		opts.UseSymmetry = sym
		ds, ix := buildFixture(t, 17, 120, 64, opts)
		ts := cascadeFixtureTransforms(64)
		for _, oneSided := range []bool{false, true} {
			for ri := 0; ri < len(ds.Records); ri += 7 {
				r := ds.Records[ri]
				q := ds.Records[(ri*13+5)%len(ds.Records)]
				// The best (minimum) true distance over the group: the
				// candidate qualifies at eps = d, so no tier may skip.
				d := math.Inf(1)
				for _, tr := range ts {
					if v := distancePred(tr, r, q, oneSided); v < d {
						d = v
					}
				}
				feat := r.Feature(ix.opts.K)
				for _, eps := range []float64{d, d + 1e-12, d * (1 + 1e-12)} {
					casc := ix.newLBCascade(ts, q, eps, oneSided, ix.symmetry(ts, oneSided))
					if tier := casc.skip(feat); tier >= 0 {
						t.Fatalf("sym=%v oneSided=%v rec=%d: tier %d skipped a candidate with true distance %v at eps=%v",
							sym, oneSided, r.ID, tier, d, eps)
					}
					if flatSkips(ix, feat, ts, q, eps, oneSided) {
						t.Fatalf("sym=%v oneSided=%v rec=%d: flat bound skipped a candidate with true distance %v at eps=%v",
							sym, oneSided, r.ID, d, eps)
					}
				}
			}
		}
	}
}

// TestCascadeTiersEngage pins the engagement of the cascade on a
// realistic workload: across a spread of selectivities every tier must
// decide some skips (the cheap magnitude-gap tier the far-away
// candidates, tiers 1 and 2 the calls that need phase information),
// and the tier counters must partition the total.
func TestCascadeTiersEngage(t *testing.T) {
	ds, ix := buildFixture(t, 23, 400, 64, DefaultIndexOptions())
	ts := transform.MovingAverageSet(64, 4, 19)
	var total QueryStats
	for trial := 0; trial < 8; trial++ {
		q := ds.Records[trial*43%len(ds.Records)]
		eps := series.DistanceForCorrelation(64, 0.70+0.04*float64(trial))
		_, st, err := ix.MTIndexRange(nil, q, ts, eps, RangeOptions{Mode: QRectSafe})
		if err != nil {
			t.Fatal(err)
		}
		if st.SkippedLB0+st.SkippedLB1+st.SkippedLB2 != st.SkippedLB {
			t.Fatalf("trial %d: tier counters do not partition SkippedLB: %+v", trial, st)
		}
		total.Add(st)
	}
	if total.SkippedLB0 == 0 || total.SkippedLB1 == 0 || total.SkippedLB2 == 0 {
		t.Fatalf("degenerate workload: tiers engaged %d/%d/%d of %d skips",
			total.SkippedLB0, total.SkippedLB1, total.SkippedLB2, total.SkippedLB)
	}
}

// scaledGroups are transformation groups that only scale each indexed
// coefficient, two-sided: the cascade's factorized form. They cover moving
// averages, scalings, time shifts, Reverse, Inverted and compositions,
// a group with a negative magnitude multiplier, and struct-literal copies
// of moving averages, which are not classified symmetric and so are
// filtered undoubled.
func scaledGroups(n int) []rectBoundGroup {
	mv := transform.MovingAverageSet(n, 10, 25)
	var literals []transform.Transform
	for _, t := range mv[:6] {
		literals = append(literals, transform.Transform{Name: t.Name, A: t.A, B: t.B})
	}
	neg := transform.Scale(n, 1.5)
	for f := 0; f < n; f++ {
		neg.A[2*f] = -neg.A[2*f]
	}
	neg = transform.New("scale-1.5", neg.A, neg.B)
	return []rectBoundGroup{
		{name: "mv(10..25)", ts: mv},
		{name: "mv(10..11)", ts: mv[:2]},
		{name: "scales", ts: transform.ScaleSet(n, []float64{0.5, 0.8, 1, 1.25, 2})},
		{name: "shifts", ts: transform.TimeShiftSet(n, -3, 3)},
		{name: "mv and inverted", ts: transform.WithInverted(mv[:5])},
		{name: "reverse", ts: cascadeFixtureTransforms(n)},
		{name: "negative scale", ts: []transform.Transform{neg, transform.Inverted(neg), mv[2]}},
		{name: "shifted, scaled, reversed", ts: transform.ComposeSets(transform.TimeShiftSet(n, 0, 2),
			transform.ComposeSets(transform.ScaleSet(n, []float64{0.7, 1.3}), []transform.Transform{transform.Reverse(n), transform.Identity(n)}))},
		{name: "unclassified mv", ts: literals},
	}
}

// TestCascadeFactorizedMatchesLoop: on a scaled group the factorized form
// and the per-transformation loop decide alike on every stored feature
// point and report the same tier — with and without the symmetry
// doubling, at K = 2 and 3, at ordinary thresholds, with eps on a stored
// record's prefix bound, and the way the NN search runs it, armed at +Inf
// and rearmed as the k-th best distance falls.
func TestCascadeFactorizedMatchesLoop(t *testing.T) {
	const n = 64
	for _, fx := range []struct {
		k   int
		sym bool
	}{{2, true}, {2, false}, {3, true}} {
		ds, ix := buildFixture(t, 29, 300, n, IndexOptions{K: fx.k, PageSize: 4096, UseSymmetry: fx.sym})
		var tiers [4]int // dismissed at tier 0, 1, 2; kept
		compare := func(name string, c *lbCascade, eps float64) {
			t.Helper()
			if !c.scaled {
				t.Fatalf("%s: the cascade did not take the factorized form", name)
			}
			for _, r := range ds.Records {
				feat := r.Feature(ix.opts.K)
				got, want := c.skipScaled(feat), c.skipEach(feat)
				if got != want {
					t.Fatalf("K=%d sym=%v %s, eps %v, record %d: factorized tier %d, loop tier %d", fx.k, fx.sym, name, eps, r.ID, got, want)
				}
				tiers[(got+4)%4]++
			}
		}
		for _, g := range scaledGroups(n) {
			for trial := 0; trial < 3; trial++ {
				q := ds.Records[(trial*53+7)%len(ds.Records)]
				sym := ix.symmetry(g.ts, false)
				for _, eps := range []float64{
					series.DistanceForCorrelation(n, 0.8+0.07*float64(trial)),
					lbBoundaryEps(ix, ds, q, g.ts, false, 5+10*trial),
				} {
					compare(g.name, ix.newLBCascade(g.ts, q, eps, false, sym), eps)
				}
				nn := ix.newLBCascade(g.ts, q, math.Inf(1), false, sym)
				for _, rank := range []int{60, 20, 3} {
					eps := lbBoundaryEps(ix, ds, q, g.ts, false, rank)
					nn.rearm(eps)
					compare(g.name+" rearmed", nn, eps)
				}
			}
		}
		if tiers[0] == 0 || tiers[1] == 0 || tiers[2] == 0 || tiers[3] == 0 {
			t.Fatalf("K=%d sym=%v: degenerate workload, tiers 0/1/2/kept %v", fx.k, fx.sym, tiers)
		}
	}
}

// TestCascadeFactorizedGroups pins which groups take the factorized form
// and which members it keeps. One-sided groups, a magnitude offset
// (B[2j] != 0) and a phase multiplier of 2 stay on the loop. Of members
// with equal weights one is kept; of two whose weights cross, both; a
// moving-average set keeps its widest window. On every scaled group the
// two forms still decide alike.
func TestCascadeFactorizedGroups(t *testing.T) {
	const n = 64
	ds, ix := buildFixture(t, 31, 200, n, DefaultIndexOptions())
	q := ds.Records[3]
	mv := transform.MovingAverageSet(n, 10, 25)
	edited := func(name string, edit func(a, b []float64)) transform.Transform {
		id := transform.Identity(n)
		a, b := append([]float64(nil), id.A...), append([]float64(nil), id.B...)
		edit(a, b)
		return transform.New(name, a, b)
	}
	scaling := func(name string, a1, a2 float64) transform.Transform {
		return edited(name, func(a, _ []float64) { a[2], a[4] = a1, a2 })
	}
	for _, tc := range []struct {
		name     string
		ts       []transform.Transform
		oneSided bool
		kept     int // members of the factorized form; 0 for the loop
	}{
		{"mv(10..25)", mv, false, 1},
		{"mv(10..11)", mv[:2], false, 1},
		{"one-sided mv", mv, true, 0},
		{"magnitude offset", []transform.Transform{mv[0], edited("mag+0.1", func(_, b []float64) { b[4] = 0.1 })}, false, 0},
		{"phase multiplier 2", []transform.Transform{mv[0], edited("phase*2", func(a, _ []float64) { a[3] = 2 })}, false, 0},
		{"equal weights: shifts", transform.TimeShiftSet(n, 0, 4), false, 1},
		{"equal weights: mv and inverted", []transform.Transform{mv[3], transform.Inverted(mv[3])}, false, 1},
		{"crossing weights", []transform.Transform{scaling("1,2", 1, 2), scaling("2,1", 2, 1)}, false, 2},
		{"one of three dominated", []transform.Transform{scaling("2,2", 2, 2), scaling("1,2", 1, 2), scaling("2,1", 2, 1)}, false, 2},
	} {
		eps := series.DistanceForCorrelation(n, 0.9)
		c := ix.newLBCascade(tc.ts, q, eps, tc.oneSided, ix.symmetry(tc.ts, tc.oneSided))
		if c.scaled != (tc.kept > 0) || c.scaled && c.nw != tc.kept {
			t.Fatalf("%s: factorized %v with %d members, want %d members (0: the loop)", tc.name, c.scaled, c.nw, tc.kept)
		}
		if !c.scaled {
			continue
		}
		for _, r := range ds.Records {
			feat := r.Feature(ix.opts.K)
			if got, want := c.skipScaled(feat), c.skipEach(feat); got != want {
				t.Fatalf("%s, record %d: factorized tier %d, loop tier %d", tc.name, r.ID, got, want)
			}
		}
	}
	c := ix.newLBCascade(mv, q, 1, false, 2)
	widest := mv[len(mv)-1]
	if c.w[0] != widest.A[2]*widest.A[2] || c.w[1] != widest.A[4]*widest.A[4] {
		t.Fatalf("mv(10..25) keeps weights %v, want mv25's", c.w[:2])
	}
}

// benchmarkLB measures the lower-bound phase alone over every stored
// feature point, for the moving averages of windows lo..hi. flat is the
// original per-candidate form (cutoff and coefficient loads recomputed
// per entry, one cosine per transformation and coefficient); the cascade
// hoists those per verification call and answers most candidates from
// the cosine-free tier 0, and on these scaled groups runs the factorized
// form over the one member dominance leaves. The pair is the
// micro-benchmark for both the hoisting and the tiering deltas.
func benchmarkLB(b *testing.B, flat bool, lo, hi int) {
	ds, ix := buildFixture(b, 23, 400, 64, DefaultIndexOptions())
	ts := transform.MovingAverageSet(64, lo, hi)
	q := ds.Records[7]
	eps := series.DistanceForCorrelation(64, 0.96)
	feats := make([][]float64, len(ds.Records))
	for i, r := range ds.Records {
		feats[i] = r.Feature(ix.opts.K)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if flat {
			for _, f := range feats {
				flatSkips(ix, f, ts, q, eps, false)
			}
		} else {
			casc := ix.newLBCascade(ts, q, eps, false, ix.symmetry(ts, false))
			for _, f := range feats {
				casc.skip(f)
			}
		}
	}
}

// BenchmarkLBFlatPerEntry is the pre-cascade lower bound: per-entry
// cutoff and coefficient loads, full prefix for every candidate, over
// one 8-transformation group.
func BenchmarkLBFlatPerEntry(b *testing.B) { benchmarkLB(b, true, 4, 11) }

// BenchmarkLBCascadeHoisted is the tiered cascade with hoisted
// candidate-independent state, over the same group.
func BenchmarkLBCascadeHoisted(b *testing.B) { benchmarkLB(b, false, 4, 11) }

// BenchmarkLBCascadeMV16 is the cascade over the 16 moving averages of
// the range workloads, MV(10..25).
func BenchmarkLBCascadeMV16(b *testing.B) { benchmarkLB(b, false, 10, 25) }
