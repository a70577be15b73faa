package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"tsq/internal/datagen"
	"tsq/internal/geom"
	"tsq/internal/obs"
	"tsq/internal/rtree"
	"tsq/internal/series"
	"tsq/internal/storage"
	"tsq/internal/transform"
)

// The bound on index rectangles (lbCascade.rectLB) prunes subtrees of
// range probes and orders and prunes the NN queue. What keeps it honest
// is pinned here: it never exceeds the point bound of anything inside
// the rectangle, it equals the point bound on a degenerate rectangle, no
// subtree that holds a match is ever pruned, and the tree it runs on is
// one it can prune.

// rectBoundGroup is one transformation group of the soundness suite and
// the sidedness it is checked under. The hand-made ones (a negative or
// affine magnitude map, a phase multiplier other than ±1) exercise paths
// of the bound no built-in reaches.
type rectBoundGroup struct {
	name     string
	ts       []transform.Transform
	oneSided bool
}

func rectBoundGroups(n int) []rectBoundGroup {
	raw := func(name string, edit func(t *transform.Transform, f int)) transform.Transform {
		t := transform.MovingAverage(n, 5)
		for f := 0; f < n; f++ {
			edit(&t, f)
		}
		return transform.New(name, t.A, t.B) // edited vectors are classified anew
	}
	negScale := raw("scale-1.5", func(t *transform.Transform, f int) { t.A[2*f] *= -1.5 })
	// A magnitude map that crosses zero inside ordinary rectangles.
	affine := raw("mag-3", func(t *transform.Transform, f int) { t.A[2*f], t.B[2*f] = 1, -3 })
	// General phase multipliers: the cascade's direct path.
	direct := []transform.Transform{
		raw("phase*2", func(t *transform.Transform, f int) { t.A[2*f+1] = 2 }),
		raw("phase*-0.5", func(t *transform.Transform, f int) { t.A[2*f+1] = -0.5 }),
	}
	mv := transform.MovingAverageSet(n, 4, 15)
	var out []rectBoundGroup
	for _, oneSided := range []bool{false, true} {
		out = append(out,
			rectBoundGroup{"mv", mv, oneSided},
			rectBoundGroup{"mv singleton", mv[3:4], oneSided},
			rectBoundGroup{"mv and inverted", transform.WithInverted(mv[:6]), oneSided},
			rectBoundGroup{"reverse", cascadeFixtureTransforms(n), oneSided},
			rectBoundGroup{"negative scale", []transform.Transform{negScale, transform.Inverted(negScale)}, oneSided},
			rectBoundGroup{"affine magnitude", []transform.Transform{affine, mv[0]}, oneSided},
			rectBoundGroup{"direct multiplier", direct, oneSided},
			rectBoundGroup{"composed", transform.ComposeSets(transform.TimeShiftSet(n, 0, 2), mv[:4]), oneSided},
		)
	}
	return append(out, rectBoundGroup{"time shifts", transform.TimeShiftSet(n, -4, 4), true})
}

// randomSector draws a feature rectangle: magnitude intervals anywhere in
// the range of normal-form coefficients, phase intervals from a point to
// the whole circle, one in four reaching ±π the way the MBR of points on
// both sides of the branch cut does.
func randomSector(rng *rand.Rand, dim int) (lo, hi geom.Point) {
	lo, hi = make(geom.Point, dim), make(geom.Point, dim)
	lo[0], hi[0], lo[1], hi[1] = -50, 50, 0, 9
	for d := 2; d < dim; d += 2 {
		a, b := rng.Float64()*9, rng.Float64()*9
		if rng.Intn(4) == 0 {
			b = a + rng.Float64()*0.05
		}
		lo[d], hi[d] = min(a, b), max(a, b)
		p := (2*rng.Float64() - 1) * math.Pi
		w := rng.Float64() * rng.Float64() * 2 * math.Pi
		pl, ph := max(p-w/2, -math.Pi), min(p+w/2, math.Pi)
		if rng.Intn(4) == 0 {
			pl, ph = -math.Pi, math.Pi
			if rng.Intn(2) == 0 {
				pl = math.Pi - w/4
			} else if rng.Intn(2) == 0 {
				ph = -math.Pi + w/4
			}
		}
		lo[d+1], hi[d+1] = pl, ph
	}
	return lo, hi
}

// sqPrefixLB is the point bound in the units rectLB returns: squared and
// times the group's symmetry factor, the quantity both compare with the
// cutoff.
func sqPrefixLB(ix *Index, feat geom.Point, ts []transform.Transform, q *Record, oneSided bool) float64 {
	return ix.prefixLB(feat, ts, q, oneSided, ix.symmetry(ts, oneSided), -1)
}

// TestRectBoundNeverAbovePointBound: for seeded random rectangles, every
// transformation group of the suite, both symmetry settings and many
// points inside each rectangle (corners, edges, the interior), the bound
// on the rectangle is at most the prefix bound of the point, with and
// without the gap shortcut and the early stop; and on the rectangle that
// is just the point it is the prefix bound.
func TestRectBoundNeverAbovePointBound(t *testing.T) {
	const n = 64
	// The two sides round differently (an angle-addition cosine against a
	// direct one); both stay far inside the cutoff's own slack.
	within := func(rect, point float64) bool { return rect <= point*(1+1e-12)+1e-12 }
	for _, sym := range []bool{true, false} {
		opts := DefaultIndexOptions()
		opts.UseSymmetry = sym
		ds, ix := buildFixture(t, 83, 40, n, opts)
		for gi, g := range rectBoundGroups(n) {
			rng := rand.New(rand.NewSource(int64(100 + gi)))
			tight := 0
			for trial := 0; trial < 300; trial++ {
				q := ds.Records[rng.Intn(len(ds.Records))]
				casc := ix.newLBCascade(g.ts, q, math.Inf(1), g.oneSided, ix.symmetry(g.ts, g.oneSided))
				lo, hi := randomSector(rng, ix.dim)
				full := casc.rectLB(lo, hi, -1)
				least := math.Inf(1)
				feat := make(geom.Point, ix.dim)
				for pi := 0; pi < 40; pi++ {
					for d := range feat {
						switch u := rng.Intn(4); {
						case u == 0 || lo[d] == hi[d]:
							feat[d] = lo[d]
						case u == 1:
							feat[d] = hi[d]
						default:
							feat[d] = min(max(lo[d]+rng.Float64()*(hi[d]-lo[d]), lo[d]), hi[d])
						}
					}
					pt := sqPrefixLB(ix, feat, g.ts, q, g.oneSided)
					least = min(least, pt)
					if !within(full, pt) {
						t.Fatalf("sym=%v %s oneSided=%v: rectangle %v..%v bounded at %v, point %v inside it at %v",
							sym, g.name, g.oneSided, lo, hi, full, feat, pt)
					}
					if point := casc.rectLB(feat, feat, -1); math.Abs(point-pt) > 1e-9*(1+pt) {
						t.Fatalf("sym=%v %s oneSided=%v: the rectangle that is the point %v bounded at %v, its prefix bound is %v",
							sym, g.name, g.oneSided, feat, point, pt)
					}
				}
				if full > 0.5*least {
					tight++
				}
				// Armed at a cutoff, the gap shortcut may return another
				// value above it and the early stop another at or below
				// it, never another answer to "above the cutoff?"; and
				// without the stop a value at or below the cutoff is the
				// bound itself, which is what orders the NN queue.
				for _, eps := range []float64{math.Sqrt(full), math.Sqrt(least), 0.7 * math.Sqrt(least), 1.5 * math.Sqrt(least+1)} {
					casc.rearm(eps)
					stopped, ordered := casc.rectLB(lo, hi, casc.cut), casc.rectLB(lo, hi, -1)
					if (stopped > casc.cut) != (full > casc.cut) || (ordered > casc.cut) != (full > casc.cut) || (ordered <= casc.cut && ordered != full) {
						t.Fatalf("sym=%v %s oneSided=%v: rectangle %v..%v at cutoff %v bounded at %v, %v with the early stop, unarmed at %v",
							sym, g.name, g.oneSided, lo, hi, casc.cut, ordered, stopped, full)
					}
				}
				casc.rearm(math.Inf(1))
			}
			if tight == 0 {
				t.Errorf("sym=%v %s oneSided=%v: the bound never came within half of the least point bound sampled; it bounds nothing", sym, g.name, g.oneSided)
			}
		}
	}
}

// tracedContext returns a trace and a context under which every query
// records its spans there.
func tracedContext() (*obs.Trace, context.Context) {
	tr := obs.New()
	return tr, obs.ContextWithSpan(obs.WithTrace(context.Background(), tr), tr.Start(obs.KindQuery, "suite"))
}

// subtreeLeast walks the subtree at id and returns the least of dist over
// the records below it.
func subtreeLeast(t testing.TB, tree *rtree.Tree, id storage.PageID, dist map[int64]float64) float64 {
	t.Helper()
	n, err := tree.Load(id)
	if err != nil {
		t.Fatal(err)
	}
	least := math.Inf(1)
	for _, e := range n.Entries {
		if n.Leaf {
			least = min(least, dist[e.Rec])
		} else {
			least = min(least, subtreeLeast(t, tree, e.Child, dist))
		}
	}
	return least
}

// TestRectBoundNeverPrunesAMatch: on a three-level tree over random
// walks, for every group of the suite and every internal entry, the bound
// on the entry does not exceed the cutoff at eps = d, the true distance
// (by the scan's kernels) of the nearest record below it, nor at a
// threshold 1e-9 above or below d in absolute and in relative terms
// unless the record itself stops qualifying. That is the statement "a
// subtree holding a true match is never pruned" at the tightest threshold
// at which it holds one, for every subtree of the tree.
func TestRectBoundNeverPrunesAMatch(t *testing.T) {
	const n = 64
	for _, sym := range []bool{true, false} {
		ds, ix := buildFixture(t, 89, 1200, n, IndexOptions{K: 2, PageSize: 1024, UseSymmetry: sym})
		if ix.tree.Height() < 3 {
			t.Fatalf("height %d; want internal entries over internal nodes", ix.tree.Height())
		}
		for gi, g := range rectBoundGroups(n) {
			q := ds.Records[(gi*131+17)%len(ds.Records)]
			dist := make(map[int64]float64, len(ds.Records))
			for _, r := range ds.Records {
				d := math.Inf(1)
				for _, tr := range g.ts {
					d = min(d, distancePred(tr, r, q, g.oneSided))
				}
				dist[r.ID] = d
			}
			casc := ix.newLBCascade(g.ts, q, 0, g.oneSided, ix.symmetry(g.ts, g.oneSided))
			entries, close := 0, 0
			err := ix.tree.Visit(func(node *rtree.Node, level int) error {
				if node.Leaf {
					return nil
				}
				for _, e := range node.Entries {
					d := subtreeLeast(t, ix.tree, e.Child, dist)
					for _, eps := range []float64{d, d + 1e-9, d * (1 + 1e-9)} {
						casc.rearm(eps)
						if lb := casc.rectLB(e.Rect.Lo, e.Rect.Hi, casc.cut); lb > casc.cut {
							return fmt.Errorf("sym=%v %s oneSided=%v: subtree %d bounded at %v, above the cutoff %v of eps = %v, holds a record at distance %v",
								sym, g.name, g.oneSided, e.Child, lb, casc.cut, eps, d)
						}
					}
					entries++
					casc.rearm(0.5 * d)
					if casc.rectLB(e.Rect.Lo, e.Rect.Hi, casc.cut) > casc.cut {
						close++
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if entries < 20 {
				t.Fatalf("%d internal entries; the test is vacuous", entries)
			}
			t.Logf("sym=%v %s oneSided=%v: %d of %d subtrees pruned at half the distance of their nearest record", sym, g.name, g.oneSided, close, entries)
		}
	}
}

// TestFilterNodeBoundSound drives the same statement through the stage:
// at eps equal to the true distance of a record, or 1e-9 around it, the
// record comes back from a deep tree (the boundary suite of fused_test.go
// runs on two-level trees, whose only internal node is the root), and the
// probes do prune subtrees by the bound.
func TestFilterNodeBoundSound(t *testing.T) {
	t.Parallel()
	const n = 64
	ds, ix := buildFixture(t, 97, 1200, n, IndexOptions{K: 2, PageSize: 1024, UseSymmetry: true})
	tr, ctx := tracedContext()
	for gi, g := range rectBoundGroups(n) {
		ro := RangeOptions{Mode: QRectSafe, OneSided: g.oneSided}
		for trial := 0; trial < 6; trial++ {
			r, q := ds.Records[(trial*211+gi*7)%len(ds.Records)], ds.Records[(trial*97+gi*13+5)%len(ds.Records)]
			d := math.Inf(1)
			for _, t := range g.ts {
				d = min(d, distancePred(t, r, q, g.oneSided))
			}
			for _, eps := range []float64{d, d + 1e-9, d * (1 + 1e-9)} {
				got, st, err := WrapIndex(ix).MTIndexRange(ctx, q, g.ts, eps, ro)
				if err != nil {
					t.Fatal(err)
				}
				found := false
				for _, m := range got {
					found = found || m.RecordID == r.ID
				}
				if !found {
					t.Fatalf("%s oneSided=%v: record %d at true distance %v is missing from the answer at eps = %v (stats %+v)", g.name, g.oneSided, r.ID, d, eps, st)
				}
				want, _, _ := SeqScanRange(nil, ds, q, g.ts, eps, ro)
				SortMatches(got)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s oneSided=%v eps=%v: %d matches, the scan finds %d", g.name, g.oneSided, eps, len(got), len(want))
				}
			}
		}
	}
	if tr.Sum(obs.KindFilter, obs.APrunedLB) == 0 {
		t.Fatal("no probe pruned a subtree by the bound; the suite says nothing about it")
	}
}

// twoTones returns count series of n points whose whole energy sits in
// DFT coefficients 1 and 2 (and their mirrors): sums of two sinusoids
// with seeded amplitudes and phases.
func twoTones(seed int64, count, n int) []series.Series {
	rng := rand.New(rand.NewSource(seed))
	out := make([]series.Series, count)
	for i := range out {
		a1, a2 := 0.5+rng.Float64(), 0.5+rng.Float64()
		p1, p2 := 2*math.Pi*rng.Float64(), 2*math.Pi*rng.Float64()
		s := make(series.Series, n)
		for t := range s {
			s[t] = a1*math.Cos(2*math.Pi*float64(t)/float64(n)+p1) + a2*math.Cos(4*math.Pi*float64(t)/float64(n)+p2)
		}
		out[i] = s
	}
	return out
}

// TestNNBoundaryThroughNodePrune: every series is stored twenty times, so
// with eighteen entries to a leaf whole leaves hold copies of one point, their
// entry in the parent is that point, and the bound on it is as tight as a
// bound gets: the prefix bound of the records below. With k cutting
// through a block of copies the k-th best distance is exactly the
// distance of records in leaves not read yet, whose entries are then
// compared with it. On random walks the prefix bound stays well below the
// distance; on series made of two sinusoids the indexed coefficients hold
// all the energy, the doubled prefix sum is the squared distance up to
// the rounding of a different summation, and a comparison without the
// cutoff's slack, or of squares against a distance, dismisses a tie: the
// answer differs from the scan's.
func TestNNBoundaryThroughNodePrune(t *testing.T) {
	t.Parallel()
	const n, distinct, copies = 32, 30, 20 // three arrays of n floats to a 1 KiB heap page
	for _, fx := range []struct {
		name   string
		shapes []series.Series
	}{
		{"walks", datagen.RandomWalks(101, distinct+1, n)},
		{"two tones", twoTones(103, distinct+1, n)},
	} {
		var ss []series.Series
		for c := 0; c < copies; c++ {
			for _, w := range fx.shapes[:distinct] {
				ss = append(ss, w.Clone())
			}
		}
		ds, err := NewDataset(ss, nil)
		if err != nil {
			t.Fatal(err)
		}
		qr, err := NewQueryRecord(ds.N, fx.shapes[distinct])
		if err != nil {
			t.Fatal(err)
		}
		for _, paged := range []bool{false, true} {
			ix, err := BuildIndex(ds, IndexOptions{K: 2, PageSize: 1024, UseSymmetry: true, Paged: paged})
			if err != nil {
				t.Fatal(err)
			}
			_, maxE := ix.tree.Capacity(true)
			if maxE >= copies || ix.tree.Height() < 3 {
				t.Fatalf("capacity %d, height %d: no leaf is all copies of one point", maxE, ix.tree.Height())
			}
			tr, ctx := tracedContext()
			for _, g := range []struct {
				ts       []transform.Transform
				oneSided bool
			}{
				{transform.MovingAverageSet(n, 4, 9), false},
				{cascadeFixtureTransforms(n), false},
				{transform.TimeShiftSet(n, -2, 2), true},
			} {
				for _, q := range []*Record{qr, ds.Records[7]} {
					for _, k := range []int{1, 5, 12, 19, 20, 21, 30, 40, 41, 57} {
						want, _, _ := SeqScanNN(nil, ds, q, g.ts, k, g.oneSided)
						got, _, err := WrapIndex(ix).MTIndexNN(ctx, q, g.ts, k, RangeOptions{OneSided: g.oneSided})
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s paged=%v oneSided=%v query %d, %d-NN:\nindex %+v\n scan %+v", fx.name, paged, g.oneSided, q.ID, k, got, want)
						}
						if k%copies != 0 && want[k-1].Distance != want[k-1-(k-1)%copies].Distance {
							t.Fatalf("fixture: rank %d is not a copy of rank %d", k-1, k-1-(k-1)%copies)
						}
					}
				}
			}
			// A subtree is dismissed when it is pushed above the cutoff
			// or left in the queue when the head is: either way unread.
			th, err := ix.tree.Health()
			if err != nil {
				t.Fatal(err)
			}
			searches, leaves := int64(len(tr.Spans())-1), int64(th.Levels[th.Height-1].Nodes)
			if read := tr.Sum(obs.KindProbe, obs.ALeaves); 2*read > searches*leaves {
				t.Fatalf("%s paged=%v: %d searches read %d leaves of %d each: the bound dismisses nothing", fx.name, paged, searches, read, leaves)
			}
		}
	}
}

// TestTreePrunesOnWalkCorpus holds the tree and the bound to what they
// are there for, on the benchmark's corpus shape: 20 000 random walks of
// 128 points, built by insertion. No dimension's mean leaf extent exceeds
// 45 % of the root's (summed raw margins gave 56-79 % on the four
// coefficient dimensions, because mean and std absorbed every split), and
// a moving-average probe at correlation 0.99 reads under a quarter of the
// leaves (83 % before) while returning what the scan returns.
func TestTreePrunesOnWalkCorpus(t *testing.T) {
	t.Parallel()
	ds, ix := buildFixture(t, 1, 20000, 128, DefaultIndexOptions())
	h, err := ix.tree.Health()
	if err != nil {
		t.Fatal(err)
	}
	leaves := h.Levels[h.Height-1]
	for d, share := range leaves.ExtentShare {
		if share > 0.45 {
			t.Errorf("dimension %d: mean leaf extent is %.0f %% of the root's, want at most 45 %% (all: %.2f)", d, 100*share, leaves.ExtentShare)
		}
	}
	ts := transform.MovingAverageSet(128, 10, 25)
	eps := series.DistanceForCorrelation(128, 0.99)
	var read, matches int
	const probes = 25
	for i := 0; i < probes; i++ {
		q := ds.Records[(i*811+3)%len(ds.Records)]
		got, st, err := WrapIndex(ix).MTIndexRange(nil, q, ts, eps, RangeOptions{Mode: QRectSafe})
		if err != nil {
			t.Fatal(err)
		}
		read += st.DALeaf
		matches += len(got)
		if i%5 == 0 {
			want, _, _ := SeqScanRange(nil, ds, q, ts, eps, RangeOptions{})
			SortMatches(got)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("query %d: %d matches, the scan finds %d", q.ID, len(got), len(want))
			}
		}
	}
	if perProbe := float64(read) / probes; perProbe > 0.25*float64(leaves.Nodes) {
		t.Errorf("a probe reads %.0f of %d leaves, want under a quarter", perProbe, leaves.Nodes)
	}
	t.Logf("%d leaves, %.1f read per probe, %.1f matches per probe; leaf extent shares %.2f", leaves.Nodes, float64(read)/probes, float64(matches)/probes, leaves.ExtentShare)
}

// BenchmarkLBRect is the bound on index rectangles as a range probe runs
// it: every internal entry of a 4 000-walk tree against the 16 moving
// averages of the benchmark's range workloads at its threshold, armed
// with the early stop. One op is one entry.
func BenchmarkLBRect(b *testing.B) {
	ds, ix := buildFixture(b, 3, 4000, 128, DefaultIndexOptions())
	ts := transform.MovingAverageSet(128, 10, 25)
	var rects []geom.Rect
	err := ix.tree.Visit(func(n *rtree.Node, level int) error {
		for _, e := range n.Entries {
			if !n.Leaf {
				rects = append(rects, e.Rect.Clone())
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	casc := ix.newLBCascade(ts, ds.Records[7], series.DistanceForCorrelation(128, 0.96), false, ix.symmetry(ts, false))
	pruned := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := rects[i%len(rects)]
		if casc.rectLB(r.Lo, r.Hi, casc.cut) > casc.cut {
			pruned++
		}
	}
	b.ReportMetric(float64(pruned)/float64(b.N), "pruned/op")
}
