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

// benchmarkLB measures the lower-bound phase alone over every stored
// feature point. flat is the original per-candidate form (cutoff and
// coefficient loads recomputed per entry, one cosine per
// transformation and coefficient); the cascade hoists those per
// verification call and answers most candidates from the cosine-free
// tier 0. The pair is the micro-benchmark for both the hoisting and
// the tiering deltas.
func benchmarkLB(b *testing.B, flat bool) {
	ds, ix := buildFixture(b, 23, 400, 64, DefaultIndexOptions())
	ts := transform.MovingAverageSet(64, 4, 11) // one 8-transform group
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
// cutoff and coefficient loads, full prefix for every candidate.
func BenchmarkLBFlatPerEntry(b *testing.B) { benchmarkLB(b, true) }

// BenchmarkLBCascadeHoisted is the tiered cascade with hoisted
// candidate-independent state.
func BenchmarkLBCascadeHoisted(b *testing.B) { benchmarkLB(b, false) }
