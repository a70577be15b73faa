package core

import (
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"tsq/internal/datagen"
	"tsq/internal/geom"
	"tsq/internal/series"
	"tsq/internal/storage"
	"tsq/internal/transform"
)

// The range probe's filter stage runs the DFT-prefix lower bound inside
// the leaf scan. What it decides is pinned here against the stage it
// replaced, kept below as the reference: one pass that collects every
// admitted leaf entry with a copy of its feature point, then a second
// that runs the bound over the collected points in order.

// fileManager returns a storage manager over a page file in the test's
// temp directory, behind a pool of bufferPages pages; with checksums it
// is the read path of a database made with tsq.CreateFile.
func fileManager(t testing.TB, bufferPages int, checksums bool) *storage.Manager {
	t.Helper()
	fb, err := storage.NewFileBackend(filepath.Join(t.TempDir(), "ix.pages"), storage.DefaultPageSize)
	if err != nil {
		t.Fatal(err)
	}
	opts := storage.Options{PageSize: storage.DefaultPageSize, BufferPages: bufferPages, Backend: fb}
	if checksums {
		cb := storage.NewChecksumBackend(fb, storage.DefaultPageSize)
		opts.PageSize, opts.Backend = cb.LogicalPageSize(), cb
	}
	mgr := storage.NewManager(opts)
	t.Cleanup(func() { _ = mgr.Close() })
	return mgr
}

// fixtureOptions returns index options with or without the symmetry
// doubling, for an index in memory or, with a pool of poolPages > 0, in
// a page file behind that pool.
func fixtureOptions(t testing.TB, sym bool, poolPages int, checksums bool) IndexOptions {
	t.Helper()
	opts := DefaultIndexOptions()
	opts.UseSymmetry = sym
	if poolPages > 0 {
		opts.Manager = fileManager(t, poolPages, checksums)
		opts.PageSize = opts.Manager.PageSize()
		opts.Paged = true
	}
	return opts
}

// engineFixture builds the query engine over seeded random walks: one
// shard or several, in memory or file-backed behind a small pool, with or
// without the symmetry doubling.
func engineFixture(t testing.TB, seed int64, count, n, nshards int, onFile, sym bool) (*Dataset, *Sharded) {
	t.Helper()
	ds, err := NewDataset(datagen.RandomWalks(seed, count, n), nil)
	if err != nil {
		t.Fatal(err)
	}
	parts := []*Dataset{ds}
	if nshards > 1 {
		if parts, err = PartitionDataset(ds, nshards); err != nil {
			t.Fatal(err)
		}
	}
	shards := make([]*Index, len(parts))
	for i, part := range parts {
		pool := 0
		if onFile {
			pool = 16
		}
		if shards[i], err = BuildIndex(part, fixtureOptions(t, sym, pool, true)); err != nil {
			t.Fatal(err)
		}
	}
	s, err := AssembleShards(shards)
	if err != nil {
		t.Fatal(err)
	}
	return ds, s
}

// stageDecisions is everything the filter stage of one transformation
// rectangle decides.
type stageDecisions struct {
	Admitted  []int64      // the leaf entries the unpruned traversal admits, in traversal order
	Met       []geom.Point // the feature points the bound met, in order: all of Admitted's for the reference
	Tiers     []int        // parallel to Met: the tier that dismissed the entry, -1 if kept
	Survivors []int64      // the kept ones, in the order verification receives them
	DAAll     int
	DALeaf    int
}

// mutatedStage is the stage opts asks for, as Index.newStage builds it:
// no bound under NaiveVerify, the flat bound and no node bound under
// FlatLB, else the cascade for leaf entries and index rectangles alike.
// A caller who wants a broken one gets two cascades, so that it can break
// either (mutate, mutateNode) and leave the other sound.
func mutatedStage(ix *Index, sub []transform.Transform, q *Record, eps float64, opts RangeOptions, mutate, mutateNode func(*lbCascade)) stage {
	s := ix.newStage(new(scratch), q, sub, eps, opts)
	if s.node == nil || (mutate == nil && mutateNode == nil) {
		return s
	}
	entry := ix.newLBCascade(sub, q, eps, opts.OneSided, s.node.sym)
	if mutate != nil {
		mutate(entry)
	}
	if mutateNode != nil {
		mutateNode(s.node)
	}
	s.bound = entry.skip
	return s
}

// twoPassStage is the reference: stage s's traversal on owned nodes with
// the unfused rectangle test (ApplyMBRs, then Intersects) and no bound on
// index rectangles, collecting (id, feature point) for every admitted
// leaf entry, and only then its bound, candidate by candidate.
func twoPassStage(t testing.TB, ix *Index, s *stage) stageDecisions {
	t.Helper()
	type candidate struct {
		rec  int64
		feat geom.Point
	}
	var res stageDecisions
	var cands []candidate
	var walk func(id storage.PageID)
	walk = func(id storage.PageID) {
		n, err := ix.tree.Load(id)
		if err != nil {
			t.Fatal(err)
		}
		res.DAAll++
		if n.Leaf {
			res.DALeaf++
		}
		for _, e := range n.Entries {
			y := transform.ApplyMBRs(s.mult, s.add, e.Rect)
			if s.phaseDims != nil {
				if !intersectsModular(y, s.qrect, s.phaseDims) {
					continue
				}
			} else if !y.Intersects(s.qrect) {
				continue
			}
			if n.Leaf {
				cands = append(cands, candidate{e.Rec, e.Rect.Lo})
			} else {
				walk(e.Child)
			}
		}
	}
	walk(ix.tree.Root())
	for _, c := range cands {
		tier := -1
		if s.bound != nil {
			tier = s.bound(c.feat)
		}
		res.Admitted = append(res.Admitted, c.rec)
		res.Met = append(res.Met, c.feat)
		res.Tiers = append(res.Tiers, tier)
		if tier < 0 {
			res.Survivors = append(res.Survivors, c.rec)
		}
	}
	return res
}

// fusedStage reads the same decisions off Index.filter running stage s:
// the admitted entries from a run with no bound at all, the tiers from a
// bound that notes what s's bound answers for the entries the node bound
// let it see. The counters filter books must be those answers.
func fusedStage(t testing.TB, ix *Index, s *stage) stageDecisions {
	t.Helper()
	var res stageDecisions
	var plain, st QueryStats
	sc := new(scratch)
	unbounded := *s
	unbounded.bound, unbounded.node = nil, nil
	admitted, err := ix.filter(nil, sc, &unbounded, &plain, nil)
	if err != nil {
		t.Fatal(err)
	}
	res.Admitted = append(res.Admitted, admitted...)
	var perTier [3]int
	noted := *s
	noted.bound = func(feat geom.Point) int {
		tier := -1
		if s.bound != nil {
			tier = s.bound(feat)
		}
		res.Met = append(res.Met, feat.Clone())
		res.Tiers = append(res.Tiers, tier)
		if tier >= 0 {
			perTier[tier]++
		}
		return tier
	}
	survivors, err := ix.filter(nil, sc, &noted, &st, nil)
	if err != nil {
		t.Fatal(err)
	}
	res.Survivors = append(res.Survivors, survivors...)
	res.DAAll, res.DALeaf = st.DAAll, st.DALeaf
	want := QueryStats{DAAll: st.DAAll, DALeaf: st.DALeaf, SkippedLB: perTier[0] + perTier[1] + perTier[2],
		SkippedLB0: perTier[0], SkippedLB1: perTier[1], SkippedLB2: perTier[2]}
	if noTime(st) != want || plain.LBTimeNs != 0 || (len(res.Met) == 0 && st.LBTimeNs != 0) {
		t.Fatalf("filter booked %+v (%+v without a bound) for %d entries dismissed %v by tier", st, plain, len(res.Met), perTier)
	}
	if s.node == nil && (st.DAAll != plain.DAAll || st.DALeaf != plain.DALeaf) {
		t.Fatalf("without a node bound filter read %d nodes (%d leaves), %d (%d) without any bound", st.DAAll, st.DALeaf, plain.DAAll, plain.DALeaf)
	}
	return res
}

// stageDiff holds the fused stage to the two-pass reference and returns
// the first difference ("" for none). The unpruned traversal admits the
// same entries in the same order and verification receives the same
// survivors in the same order. The bound on index rectangles may keep the
// stage from reading a subtree, so it reads at most the reference's nodes
// and leaves, and the entries its bound meets are a subsequence of the
// reference's, dismissed at the same tier or kept alike; every entry of
// the reference the stage never saw is one the reference dismissed.
func stageDiff(got, ref stageDecisions) string {
	if !reflect.DeepEqual(got.Admitted, ref.Admitted) {
		return fmt.Sprintf("the traversal admits %d entries, the reference %d, or the same in another order", len(got.Admitted), len(ref.Admitted))
	}
	if !reflect.DeepEqual(got.Survivors, ref.Survivors) {
		return fmt.Sprintf("fused stage decided %s, the two-pass reference %s: not the same survivors in the same order", got.summary(), ref.summary())
	}
	if got.DAAll > ref.DAAll || got.DALeaf > ref.DALeaf {
		return fmt.Sprintf("fused stage read %d nodes (%d leaves), more than the reference's %d (%d)", got.DAAll, got.DALeaf, ref.DAAll, ref.DALeaf)
	}
	gi := 0
	for ri, feat := range ref.Met {
		if gi < len(got.Met) && reflect.DeepEqual(got.Met[gi], feat) {
			if got.Tiers[gi] != ref.Tiers[ri] {
				return fmt.Sprintf("entry %d decided at tier %d, by the reference at tier %d", ref.Admitted[ri], got.Tiers[gi], ref.Tiers[ri])
			}
			gi++
		} else if ref.Tiers[ri] < 0 {
			return fmt.Sprintf("entry %d, which the reference keeps, was in a subtree the stage did not read", ref.Admitted[ri])
		}
	}
	if gi != len(got.Met) {
		return fmt.Sprintf("the bound met %d entries out of the reference's order", len(got.Met)-gi)
	}
	return ""
}

// rangeParity runs one query through the engine and through the
// reference, shard by shard and rectangle by rectangle, and returns the
// first difference it finds ("" for none): the stage decisions, the full
// QueryStats but LBTimeNs, and the matches, unsorted on one shard,
// against the reference's, NaiveVerify's and FlatLB's. What the reference
// counts per tier, and the nodes it reads, bound the engine's from above
// (see stageDiff); everything else is equal. mutate and mutateNode, when
// non-nil, break the entry bound or the node bound of the fused side
// only; the end-to-end comparisons are then left out, since production is
// not what is broken.
func rangeParity(t testing.TB, s *Sharded, q *Record, ts []transform.Transform, eps float64, opts RangeOptions, mutate, mutateNode func(*lbCascade)) string {
	t.Helper()
	groups := opts.Groups
	if groups == nil {
		groups = [][]int{identityIndexes(len(ts))}
	}
	var want QueryStats
	var wantMatches []Match
	for sh := 0; sh < s.ShardCount(); sh++ {
		ix, sq := s.Shard(sh), s.shardQuery(q, sh)
		for gi, g := range groups {
			sub := make([]transform.Transform, len(g))
			for i, idx := range g {
				sub[i] = ts[idx]
			}
			refStage := ix.newStage(new(scratch), sq, sub, eps, opts)
			ref := twoPassStage(t, ix, &refStage)
			stg := mutatedStage(ix, sub, sq, eps, opts, mutate, mutateNode)
			got := fusedStage(t, ix, &stg)
			if diff := stageDiff(got, ref); diff != "" {
				return fmt.Sprintf("shard %d rectangle %d: %s", sh, gi, diff)
			}
			want.IndexSearches++
			want.DAAll += got.DAAll
			want.DALeaf += got.DALeaf
			for _, tier := range got.Tiers {
				if tier >= 0 {
					want.skippedAt(tier)
				}
			}
			matches, vst, _, err := ix.verifySerial(nil, new(scratch), ref.Survivors, sub, g, sq, eps, nil, opts)
			if err != nil {
				t.Fatal(err)
			}
			want.Add(vst)
			wantMatches = append(wantMatches, matches...)
		}
	}
	if mutate != nil || mutateNode != nil {
		return ""
	}
	got, st, err := s.MTIndexRange(nil, q, ts, eps, opts)
	if err != nil {
		t.Fatal(err)
	}
	if noTime(st) != noTime(want) {
		return fmt.Sprintf("engine stats %+v, reference %+v", noTime(st), noTime(want))
	}
	if (st.LBTimeNs == 0) != (opts.NaiveVerify) {
		return fmt.Sprintf("LBTimeNs = %d under NaiveVerify=%v", st.LBTimeNs, opts.NaiveVerify)
	}
	if s.single() && !reflect.DeepEqual(got, wantMatches) {
		return fmt.Sprintf("engine returned %d matches, the reference %d, or the same in another order", len(got), len(wantMatches))
	}
	for _, other := range []string{"NaiveVerify", "FlatLB"} {
		o := opts
		o.NaiveVerify, o.FlatLB = other == "NaiveVerify", other == "FlatLB"
		ref, rst, err := s.MTIndexRange(nil, q, ts, eps, o)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, ref) {
			return fmt.Sprintf("%d matches, %s returns %d, or the same in another order", len(got), other, len(ref))
		}
		// The references prune no subtree by the bound: they read and
		// admit what the engine does and whatever it left unread.
		if rst.Candidates+rst.SkippedLB < st.Candidates+st.SkippedLB || rst.DAAll < st.DAAll || rst.DALeaf < st.DALeaf {
			return fmt.Sprintf("stats %+v, under %s %+v: the reference reads or admits less", st, other, rst)
		}
		// The cascade's decisions are the flat bound's, entry by entry:
		// the same survivors, verified alike.
		if o.FlatLB && !opts.NaiveVerify && (rst.Candidates != st.Candidates || rst.Comparisons != st.Comparisons ||
			rst.Abandoned != st.Abandoned || rst.SkippedLB < st.SkippedLB) {
			return fmt.Sprintf("%d candidates, %d comparisons, %d abandoned, %d dismissed; under FlatLB %d, %d, %d and %d",
				st.Candidates, st.Comparisons, st.Abandoned, st.SkippedLB, rst.Candidates, rst.Comparisons, rst.Abandoned, rst.SkippedLB)
		}
	}
	return ""
}

func (d stageDecisions) summary() string {
	var perTier [3]int
	for _, tier := range d.Tiers {
		if tier >= 0 {
			perTier[tier]++
		}
	}
	return fmt.Sprintf("{%d admitted, %d met the bound, dismissed by tier %v, %d survivors, %d nodes (%d leaves)}",
		len(d.Admitted), len(d.Met), perTier, len(d.Survivors), d.DAAll, d.DALeaf)
}

// parityQuery is one seeded query shape of the parity suites.
type parityQuery struct {
	name string
	ts   []transform.Transform
	opts RangeOptions
}

func parityQueries(n int) []parityQuery {
	mv := transform.MovingAverageSet(n, 4, 15) // 12 transformations
	shifts := transform.TimeShiftSet(n, 0, 5)
	return []parityQuery{
		{"mv", mv, RangeOptions{Mode: QRectSafe}},
		{"mv/4 rectangles", mv, RangeOptions{Mode: QRectSafe, Groups: EqualPartition(len(mv), 3)}},
		{"mv/singletons", mv[:5], RangeOptions{Mode: QRectSafe, Groups: SingletonGroups(5)}},
		{"mv/paper rectangle", mv, RangeOptions{Mode: QRectPaper}},
		{"mv one-sided", mv, RangeOptions{Mode: QRectSafe, OneSided: true}},
		{"shifts one-sided", shifts, RangeOptions{Mode: QRectSafe, OneSided: true}},
		{"shifts one-sided/2 rectangles", shifts, RangeOptions{Mode: QRectSafe, OneSided: true, Groups: EqualPartition(len(shifts), 3)}},
		{"reverse", cascadeFixtureTransforms(n), RangeOptions{Mode: QRectSafe}},
		{"reverse one-sided", cascadeFixtureTransforms(n), RangeOptions{Mode: QRectSafe, OneSided: true}},
		{"flat bound", mv, RangeOptions{Mode: QRectSafe, FlatLB: true}},
		{"no bound", mv, RangeOptions{Mode: QRectSafe, NaiveVerify: true}},
	}
}

// TestFusedStageDecisionParity: over a seeded query set — symmetry on
// and off, two-sided moving averages, one-sided time shifts, Reverse,
// singleton rectangles, in memory and file-backed, one worker and four,
// one shard and two — the fused stage admits the same entries as the
// two-pass reference, dismisses the same ones at the same tier, hands
// verification the same survivors in the same order, and the engine
// around it returns identical statistics and, unsorted, identical
// matches, equal to NaiveVerify's and to FlatLB's.
func TestFusedStageDecisionParity(t *testing.T) {
	for _, fx := range []struct {
		nshards     int
		onFile, sym bool
	}{
		{1, false, true}, {1, false, false}, {1, true, true}, {2, false, true}, {2, true, false},
	} {
		fx := fx
		t.Run(fmt.Sprintf("shards=%d file=%v sym=%v", fx.nshards, fx.onFile, fx.sym), func(t *testing.T) {
			t.Parallel()
			const n = 64
			ds, s := engineFixture(t, 61, 400, n, fx.nshards, fx.onFile, fx.sym)
			var total QueryStats
			for qi, pq := range parityQueries(n) {
				for trial := 0; trial < 3; trial++ {
					q := ds.Records[(qi*97+trial*41)%len(ds.Records)]
					eps := series.DistanceForCorrelation(n, 0.80+0.06*float64(trial))
					for _, workers := range []int{1, 4} {
						opts := pq.opts
						opts.Workers = workers
						if diff := rangeParity(t, s, q, pq.ts, eps, opts, nil, nil); diff != "" {
							t.Fatalf("%s, query %d, eps %.3f, %d workers: %s", pq.name, q.ID, eps, workers, diff)
						}
					}
					_, st, err := s.MTIndexRange(nil, q, pq.ts, eps, pq.opts)
					if err != nil {
						t.Fatal(err)
					}
					total.Add(st)
				}
			}
			if total.SkippedLB0 == 0 || total.SkippedLB1 == 0 || total.SkippedLB2 == 0 || total.Candidates == 0 || total.Abandoned == 0 {
				t.Fatalf("the query set is degenerate: %+v", total)
			}
		})
	}
}

// lbBoundaryEps returns a threshold that puts the prefix bound of one
// stored record, the rank-th closest to q by that bound, on the cutoff:
// its bound equals eps, which the cascade must keep and a cutoff smaller
// by one part in ten million must dismiss.
func lbBoundaryEps(ix *Index, ds *Dataset, q *Record, ts []transform.Transform, oneSided bool, rank int) float64 {
	var bounds []float64
	for _, r := range ds.Records {
		if lb := math.Sqrt(sqPrefixLB(ix, r.Feature(ix.opts.K), ts, q, oneSided)); lb >= 1 {
			bounds = append(bounds, lb)
		}
	}
	sort.Float64s(bounds)
	return bounds[rank]
}

// TestFusedParityCatchesMutations checks that the parity suite can see
// what it is there to see. A cascade whose cutoff is 0.9999999 of the
// right one must be told apart from the reference on every query whose
// threshold sits on a stored record's prefix bound, and so must one left
// armed with another query's eps (the NN search moves the cutoff with
// rearm; a range probe that reused a cascade without it would look like
// this) on every ordinary query.
func TestFusedParityCatchesMutations(t *testing.T) {
	t.Parallel()
	const n = 64
	for _, sym := range []bool{true, false} {
		ds, s := engineFixture(t, 67, 400, n, 1, false, sym)
		ix := s.Shard(0)
		for qi, pq := range parityQueries(n) {
			if pq.opts.FlatLB || pq.opts.NaiveVerify || pq.opts.Groups != nil || pq.opts.Mode == QRectPaper {
				// No cascade to break, one per rectangle, or a query
				// rectangle that promises nothing about a record whose
				// bound sits on eps.
				continue
			}
			q := ds.Records[(qi*53+7)%len(ds.Records)]
			eps := lbBoundaryEps(ix, ds, q, pq.ts, pq.opts.OneSided, 12)
			if diff := rangeParity(t, s, q, pq.ts, eps, pq.opts, nil, nil); diff != "" {
				t.Fatalf("sym=%v %s, eps on a prefix bound: %s", sym, pq.name, diff)
			}
			shrunk := func(c *lbCascade) { c.cut *= 0.9999999 }
			if diff := rangeParity(t, s, q, pq.ts, eps, pq.opts, shrunk, nil); diff == "" {
				t.Errorf("sym=%v %s: a cutoff of 0.9999999 times the right one went unnoticed at eps = %v", sym, pq.name, eps)
			}
			eps = series.DistanceForCorrelation(n, 0.85)
			stale := func(c *lbCascade) { c.rearm(0.9 * eps) }
			if diff := rangeParity(t, s, q, pq.ts, eps, pq.opts, stale, nil); diff == "" {
				t.Errorf("sym=%v %s: a cascade armed for 0.9 eps went unnoticed", sym, pq.name)
			}
		}
	}
}

// TestFusedParityCatchesNodeMutation is the same check for the bound on
// index rectangles, the entry bound left sound. A rectangle's bound is
// below the point bound of what it holds, usually far below, so a node
// cutoff a hair too small shows only where the two meet: every series is
// stored twenty times, nine entries fit a node, and whole leaves are
// copies of one point, which is then their rectangle. With eps on the
// prefix bound of such a record the reference keeps its copies, a sound
// node bound reads their leaves, and one cut at 0.9999999 of the cutoff
// leaves them unread.
func TestFusedParityCatchesNodeMutation(t *testing.T) {
	t.Parallel()
	const n, distinct, copies = 64, 40, 20
	walks := datagen.RandomWalks(79, distinct, n)
	var ss []series.Series
	for c := 0; c < copies; c++ {
		for _, w := range walks {
			ss = append(ss, w.Clone())
		}
	}
	ds, err := NewDataset(ss, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, sym := range []bool{true, false} {
		ix, err := BuildIndex(ds, IndexOptions{K: 2, PageSize: 1024, UseSymmetry: sym})
		if err != nil {
			t.Fatal(err)
		}
		s, err := AssembleShards([]*Index{ix})
		if err != nil {
			t.Fatal(err)
		}
		for qi, pq := range parityQueries(n) {
			if pq.opts.FlatLB || pq.opts.NaiveVerify || pq.opts.Groups != nil || pq.opts.Mode == QRectPaper {
				continue // as in TestFusedParityCatchesMutations
			}
			q := ds.Records[(qi*7+3)%distinct]
			eps := lbBoundaryEps(ix, ds, q, pq.ts, pq.opts.OneSided, 3*copies+1)
			if diff := rangeParity(t, s, q, pq.ts, eps, pq.opts, nil, nil); diff != "" {
				t.Fatalf("sym=%v %s, eps on a prefix bound: %s", sym, pq.name, diff)
			}
			shrunk := func(c *lbCascade) { c.cut *= 0.9999999 }
			if diff := rangeParity(t, s, q, pq.ts, eps, pq.opts, nil, shrunk); diff == "" {
				t.Errorf("sym=%v %s: a node cutoff of 0.9999999 times the right one went unnoticed at eps = %v", sym, pq.name, eps)
			}
		}
	}
}

// TestFusedStageBoundaryNeverDismisses: whatever qualifies at eps comes
// back, however close to eps it is. A stored copy of the query at eps = 0
// and a record whose true distance is eps exactly, or within 1e-9 below
// it, are never dismissed by the bound in the leaf scan, two-sided and
// one-sided, with and without symmetry, in memory and from a file.
func TestFusedStageBoundaryNeverDismisses(t *testing.T) {
	t.Parallel()
	const n = 64
	ts := cascadeFixtureTransforms(n)
	for _, fx := range []struct {
		pool int // pages; 0 is in memory
		sym  bool
	}{{0, true}, {0, false}, {16, true}} {
		walks := datagen.RandomWalks(71, 300, n)
		walks[200] = walks[10].Clone()
		ds, err := NewDataset(walks, nil)
		if err != nil {
			t.Fatal(err)
		}
		ix, err := BuildIndex(ds, fixtureOptions(t, fx.sym, fx.pool, true))
		if err != nil {
			t.Fatal(err)
		}
		has := func(ms []Match, id int64) bool {
			for _, m := range ms {
				if m.RecordID == id {
					return true
				}
			}
			return false
		}
		for _, oneSided := range []bool{false, true} {
			ro := RangeOptions{Mode: QRectSafe, OneSided: oneSided}
			// One-sided, only the identity maps the copy onto the query.
			got, st, err := ix.MTIndexRange(nil, ds.Records[10], append(ts[:len(ts):len(ts)], transform.Identity(n)), 0, ro)
			if err != nil {
				t.Fatal(err)
			}
			if !has(got, 10) || !has(got, 200) {
				t.Errorf("pool=%d sym=%v oneSided=%v: eps = 0 returns %+v, want the query (10) and its copy (200); stats %+v", fx.pool, fx.sym, oneSided, got, st)
			}
			for ri := 3; ri < len(ds.Records); ri += 37 {
				r, q := ds.Records[ri], ds.Records[(ri*13+5)%len(ds.Records)]
				d := math.Inf(1)
				for _, tr := range ts {
					d = min(d, distancePred(tr, r, q, oneSided))
				}
				for _, eps := range []float64{d, d + 1e-9, d * (1 + 1e-9)} {
					got, st, err := ix.MTIndexRange(nil, q, ts, eps, ro)
					if err != nil {
						t.Fatal(err)
					}
					if !has(got, r.ID) {
						t.Fatalf("pool=%d sym=%v oneSided=%v: record %d at true distance %v is missing from the answer at eps = %v (stats %+v)",
							fx.pool, fx.sym, oneSided, r.ID, d, eps, st)
					}
				}
			}
		}
	}
}

// rangeDiskFixture is the benchmark's range-disk workload at a tenth of
// its size: 128-point walks in a file several times the pool, moving
// averages 10..25 at the paper's threshold.
func rangeDiskFixture(t testing.TB, checksums bool) (*Dataset, *Index, []transform.Transform) {
	t.Helper()
	ds, err := NewDataset(datagen.RandomWalks(73, 1500, 128), nil)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := BuildIndex(ds, fixtureOptions(t, true, 32, checksums))
	if err != nil {
		t.Fatal(err)
	}
	return ds, ix, transform.MovingAverageSet(128, 10, 25)
}

// TestRangeProbeKeepsItsScratch: across a range-disk-shaped query set
// every probe finds the scratch of the one before it and leaves it for
// the next. maxScratchBytes is for the pathological query; an ordinary
// one, however many entries it admits, must never reach it, or every
// probe allocates its buffers anew.
func TestRangeProbeKeepsItsScratch(t *testing.T) {
	ds, ix, ts := rangeDiskFixture(t, true)
	eps := series.DistanceForCorrelation(128, 0.96)
	var kept *scratch
	var admitted, largest int
	for i := 0; i < 60; i++ {
		_, st, err := ix.MTIndexRange(nil, ds.Records[(i*61)%len(ds.Records)], ts, eps, RangeOptions{Mode: QRectSafe})
		if err != nil {
			t.Fatal(err)
		}
		admitted += st.Candidates + st.SkippedLB
		if len(ix.idleScratch) != 1 {
			t.Fatalf("query %d (%d candidates, %d skipped) left %d idle scratches, want the one it used", i, st.Candidates, st.SkippedLB, len(ix.idleScratch))
		}
		sc := ix.idleScratch[0]
		if kept != nil && sc != kept {
			t.Fatalf("query %d ran in a new scratch: the previous one was dropped", i)
		}
		kept, largest = sc, max(largest, sc.bytes())
	}
	if admitted < 60*100 {
		t.Fatalf("%d entries admitted by 60 queries; the workload is too tight to say anything", admitted)
	}
	t.Logf("%d entries admitted per query, the scratch holds %d bytes (cap %d)", admitted/60, largest, maxScratchBytes)
}

// TestRangeProbeAllocsIndependentOfAdmitted is the gain the fused stage
// is there for, from the cost side: what a warm probe allocates is its
// answer and a fixed few small objects, not a buffer per admitted entry.
// Two query sets over one file-backed index behind a small pool — a
// tight threshold and a loose one, ten times apart in admitted entries —
// are each held to the same per-probe budget plus their own answers.
func TestRangeProbeAllocsIndependentOfAdmitted(t *testing.T) {
	// No checksum layer: its run buffers come from a sync.Pool, which
	// under -race drops a quarter of its Puts and would bill this test
	// a page per dropped one.
	ds, ix, ts := rangeDiskFixture(t, false)
	measure := func(rho float64) (bytesPerProbe, admittedPerProbe, matchBytesPerProbe float64) {
		eps := series.DistanceForCorrelation(128, rho)
		const probes = 40
		run := func() (admitted, matches int) {
			for i := 0; i < probes; i++ {
				got, st, err := ix.MTIndexRange(nil, ds.Records[(i*37)%len(ds.Records)], ts, eps, RangeOptions{Mode: QRectSafe})
				if err != nil {
					t.Fatal(err)
				}
				admitted += st.Candidates + st.SkippedLB
				matches += len(got)
			}
			return admitted, matches
		}
		run() // warm the scratch, the tree's decode slots and the pool's frames
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		admitted, matches := run()
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / probes, float64(admitted) / probes,
			float64(matches) * float64(reflect.TypeOf(Match{}).Size()) / probes
	}
	tightBytes, tightAdmitted, tightAnswer := measure(0.999)
	looseBytes, looseAdmitted, looseAnswer := measure(0.96)
	t.Logf("tight: %.0f admitted, %.0f B/probe of which the answer is %.0f; loose: %.0f admitted, %.0f B/probe, answer %.0f",
		tightAdmitted, tightBytes, tightAnswer, looseAdmitted, looseBytes, looseAnswer)
	if looseAdmitted < 10*tightAdmitted || looseAdmitted < 300 {
		t.Fatalf("the loose set admits %.0f entries per probe, the tight one %.0f: want ten times apart", looseAdmitted, tightAdmitted)
	}
	// The answer is copied out of the scratch once (append may round its
	// capacity up by a size class); everything else a probe allocates —
	// the cascade, the rectangles, the closures — does not depend on the
	// threshold. A single copied feature point per admitted entry would
	// be 48 B each, a candidate record 32 B more.
	overhead := func(bytes, answer float64) float64 { return bytes - 1.25*answer }
	if extra := overhead(looseBytes, looseAnswer) - overhead(tightBytes, tightAnswer); extra > 8*(looseAdmitted-tightAdmitted) {
		t.Errorf("%.0f more admitted entries per probe cost %.0f more bytes beyond the answer: allocation grows with the admitted count",
			looseAdmitted-tightAdmitted, extra)
	}
}

// benchmarkRangeProbe runs range probes of the moving averages ts at
// correlation rho over ix, querying stored records in turn: ns, bytes and
// allocations per probe, and the tree's share of it as counts.
func benchmarkRangeProbe(b *testing.B, ds *Dataset, ix *Index, ts []transform.Transform, rho float64) {
	eps := series.DistanceForCorrelation(128, rho)
	var nodes, leaves int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, st, err := ix.MTIndexRange(nil, ds.Records[(i*61)%len(ds.Records)], ts, eps, RangeOptions{Mode: QRectSafe})
		if err != nil {
			b.Fatal(err)
		}
		nodes, leaves = nodes+st.DAAll, leaves+st.DALeaf
	}
	b.ReportMetric(float64(nodes)/float64(b.N), "nodes/op")
	b.ReportMetric(float64(leaves)/float64(b.N), "leaves/op")
}

// BenchmarkRangeProbeDisk is one file-backed range probe of the
// range-disk shape. Leaves of points hold 72 entries to a checksummed
// 4 KiB page, rectangles 39.
func BenchmarkRangeProbeDisk(b *testing.B) {
	ds, ix, ts := rangeDiskFixture(b, true)
	benchmarkRangeProbe(b, ds, ix, ts, 0.96)
}

// BenchmarkRangeProbeMem is one in-memory range probe of the range-mem
// shape: the range-disk fixture's walks and moving averages, no page
// file, the tight threshold. The lower bound over the admitted entries
// is a large share of it.
func BenchmarkRangeProbeMem(b *testing.B) {
	ds, err := NewDataset(datagen.RandomWalks(73, 1500, 128), nil)
	if err != nil {
		b.Fatal(err)
	}
	ix, err := BuildIndex(ds, DefaultIndexOptions())
	if err != nil {
		b.Fatal(err)
	}
	benchmarkRangeProbe(b, ds, ix, transform.MovingAverageSet(128, 10, 25), 0.99)
}
