package core

import (
	"math"
	"testing"

	"tsq/internal/series"
	"tsq/internal/transform"
)

// TestPrefixLBUnderestimatesDistance is the Parseval soundness of the
// DFT-prefix lower bound: for every record and transformation group, the
// bound computed from the indexed feature point alone never exceeds the
// group's true minimum polar distance (up to the abandon-cutoff slack),
// so the flat bound can never reject a qualifying candidate.
func TestPrefixLBUnderestimatesDistance(t *testing.T) {
	for _, sym := range []bool{true, false} {
		opts := DefaultIndexOptions()
		opts.UseSymmetry = sym
		ds, ix := buildFixture(t, 17, 250, 64, opts)
		ts := transform.MovingAverageSet(64, 3, 18)
		for trial := 0; trial < 4; trial++ {
			q := ds.Records[trial*29%len(ds.Records)]
			for _, oneSided := range []bool{false, true} {
				for _, r := range ds.Records {
					feat := r.Feature(ix.opts.K)
					lb := sqPrefixLB(ix, feat, ts, q, oneSided)
					best := -1.0
					for _, tr := range ts {
						var d float64
						if oneSided {
							d = tr.DistancePolarLeft(r.Mags, r.Phases, q.Mags, q.Phases)
						} else {
							d = tr.DistancePolar(r.Mags, r.Phases, q.Mags, q.Phases)
						}
						if best < 0 || d < best {
							best = d
						}
					}
					// The slack mirrors transform.AbandonCutoff: the skip
					// compares lb² against a cutoff a hair above eps².
					if lb > best*best*(1+1e-9)+1e-9 {
						t.Fatalf("sym=%v oneSided=%v rec=%d: lower bound %v exceeds true distance %v",
							sym, oneSided, r.ID, math.Sqrt(lb), best)
					}
					// And the skip predicate agrees: if it skips at eps equal
					// to the true distance, a match would be lost.
					if flatSkips(ix, feat, ts, q, best, oneSided) {
						t.Fatalf("sym=%v oneSided=%v rec=%d: the flat bound rejects at eps == true distance %v",
							sym, oneSided, r.ID, best)
					}
				}
			}
		}
	}
}

// TestSkipByPrefixLBThinsCandidates: the bound must actually fire on a
// workload with false positives (small eps, many candidates), otherwise
// the pipeline silently degrades to fetch-everything.
func TestSkipByPrefixLBThinsCandidates(t *testing.T) {
	ds, ix := buildFixture(t, 23, 400, 64, DefaultIndexOptions())
	ts := transform.MovingAverageSet(64, 5, 20)
	eps := series.DistanceForCorrelation(64, 0.97)
	var skipped, kept int
	for trial := 0; trial < 5; trial++ {
		q := ds.Records[trial*61%len(ds.Records)]
		for _, r := range ds.Records {
			if flatSkips(ix, r.Feature(ix.opts.K), ts, q, eps, false) {
				skipped++
			} else {
				kept++
			}
		}
	}
	if skipped == 0 {
		t.Fatalf("lower bound never fired (%d kept)", kept)
	}
}
