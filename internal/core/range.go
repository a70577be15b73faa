package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"tsq/internal/geom"
	"tsq/internal/obs"
	"tsq/internal/rtree"
	"tsq/internal/storage"
	"tsq/internal/transform"
)

// Match is one answer of a similarity range query: record r and
// transformation index ti (into the query's transformation set) such that
// D(t(r), t(q)) <= eps.
type Match struct {
	RecordID     int64
	TransformIdx int
	// Distance is the exact distance, or -1 when the match was certified
	// by the ordering property (Sec. 4.4) without computing it.
	Distance float64
}

// QueryStats reports the work a query performed, in the units of the
// paper's cost model (Eq. 18/20).
type QueryStats struct {
	// DAAll counts index node accesses at all levels (DA_all).
	DAAll int
	// DALeaf counts leaf node accesses (DA_leaf).
	DALeaf int
	// Candidates counts candidate records retrieved for verification:
	// what a range probe's filter stage emits (the leaf entries it
	// admitted and its lower bound did not dismiss), the leaf entries an
	// NN search resolved, the candidate pairs a join or a closest-pairs
	// search verified. Candidates+SkippedLB is what the traversal
	// admitted.
	Candidates int
	// Comparisons counts distance evaluations: one per (record or pair,
	// transformation) the verification put to a kernel, whether the sum
	// completed or was abandoned.
	Comparisons int
	// Terms counts the coefficient terms those evaluations summed: per
	// completed comparison n under a transformation that keeps the full
	// sum and n/2+1 (⌈n/2⌉ for odd n) under a symmetric one, fewer when
	// it abandoned. Terms/Comparisons is how much of a spectrum a
	// comparison reads, the machine-independent cost of verification.
	Terms int
	// IndexSearches counts index traversals (|T| for ST-index, the number
	// of transformation rectangles for MT-index).
	IndexSearches int
	// SkippedLB counts candidates rejected by the DFT-prefix lower bound
	// before their record was retrieved — by a range probe against eps, by
	// an NN search against the k-th best distance so far (join and closest
	// pairs run no prefix bound). They are not counted in Candidates
	// (nothing was fetched) and save both the page read and the
	// full-record comparisons. It is always the sum of the per-tier
	// counters below (the flat FlatLB mode attributes everything to
	// tier 2, the full prefix bound).
	SkippedLB int
	// SkippedLB0 counts candidates dismissed by the tier-0 magnitude-gap
	// bound of the verification cascade: no cosine was evaluated.
	SkippedLB0 int
	// SkippedLB1 counts candidates that survived tier 0 but were
	// dismissed once the first coefficient's exact term replaced its gap
	// (one shared Sincos per candidate).
	SkippedLB1 int
	// SkippedLB2 counts candidates dismissed only by the full DFT-prefix
	// bound over all K indexed coefficients.
	SkippedLB2 int
	// Abandoned counts distance evaluations cut short by the
	// early-abandoning cutoff: eps for a range query or a join, the
	// smaller of the record's (pair's) running minimum and the k-th best
	// distance so far for NN and closest pairs. Each is still counted in
	// Comparisons (it is one predicate evaluation); this reports how many
	// of them stopped before the end of their sum (Terms says how early).
	Abandoned int
	// LBTimeNs is the wall time, in nanoseconds, a range probe spends
	// deciding skip or fetch for the leaf entries its traversal admits:
	// building the stage with its lower bound (cascade or flat) and, in
	// every leaf that admits something, one timed pass of the bound over
	// that leaf's admitted entries. It is part of the filter stage, which
	// is serial, so it is elapsed time of the probe; the probes of a
	// multi-rectangle or multi-shard query sum. It is zero under
	// NaiveVerify, which runs no lower bound, and for an NN search, whose
	// bound is not timed.
	// Dividing by Candidates+SkippedLB gives the per-candidate decision
	// cost the tiered cascade optimizes.
	LBTimeNs int64
	// AllocBytes/Mallocs/GCCycles/GCPauseNs are process-wide runtime
	// deltas sampled around the query when resource attribution is
	// enabled (zero otherwise). Under concurrent queries they include
	// neighbors' work — they attribute resource pressure to a query
	// shape, they do not meter it exactly. AllocBytes and Mallocs come
	// from runtime/metrics, which books small objects per span when a
	// goroutine's cached span fills, not per allocation: a query that
	// allocates only small objects can read 0 (or another query's
	// span), so the two are trustworthy only for queries with a large
	// allocation.
	AllocBytes int64
	Mallocs    int64
	GCCycles   int64
	GCPauseNs  int64
}

// Add accumulates other into s.
func (s *QueryStats) Add(other QueryStats) {
	s.DAAll += other.DAAll
	s.DALeaf += other.DALeaf
	s.Candidates += other.Candidates
	s.Comparisons += other.Comparisons
	s.Terms += other.Terms
	s.IndexSearches += other.IndexSearches
	s.SkippedLB += other.SkippedLB
	s.SkippedLB0 += other.SkippedLB0
	s.SkippedLB1 += other.SkippedLB1
	s.SkippedLB2 += other.SkippedLB2
	s.Abandoned += other.Abandoned
	s.LBTimeNs += other.LBTimeNs
	s.AllocBytes += other.AllocBytes
	s.Mallocs += other.Mallocs
	s.GCCycles += other.GCCycles
	s.GCPauseNs += other.GCPauseNs
}

// skippedAt counts one candidate the lower-bound cascade dismissed at
// tier (0, 1 or 2).
func (s *QueryStats) skippedAt(tier int) {
	s.SkippedLB++
	switch tier {
	case 0:
		s.SkippedLB0++
	case 1:
		s.SkippedLB1++
	default:
		s.SkippedLB2++
	}
}

// RangeOptions tunes the index-based range algorithms.
type RangeOptions struct {
	// Mode selects the query rectangle construction (safe or paper).
	Mode QRectMode
	// Groups partitions the transformation set (by index) into one MBR
	// per group, the Sec. 4.3 improvement. Nil means a single group
	// containing every transformation.
	Groups [][]int
	// UseOrdering enables the Sec. 4.4 binary search when a group is a
	// pure scale set orderable per Definition 1. Ignored in one-sided
	// mode (Definition 1 is a statement about the two-sided predicate).
	UseOrdering bool
	// Workers parallelizes a range query's probes, one per (shard,
	// rectangle) pair on a pool of max(Workers, shards) goroutines, the
	// verification of each probe's candidates and the sequential scan
	// across that many goroutines when above 1. Answers are identical to
	// serial evaluation.
	Workers int
	// OneSided switches the predicate from the symmetric Query-1 form
	// D(t(s), t(q)) to the literal Algorithm-1 form D(t(s), q): the
	// transformation is applied to the stored sequence only. This is the
	// useful semantics for alignment transformations such as time shifts,
	// which are unitary and cancel when applied to both sides. The query
	// is compared as given; pre-transform it (e.g. by a momentum) with
	// Record.ApplyTransform when the predicate calls for it.
	OneSided bool
	// NaiveVerify disables the I/O-aware candidate pipeline — the
	// DFT-prefix lower-bound skip, the page-ordered batched fetch, and
	// the early-abandoning distance kernels — and verifies candidates
	// record-at-a-time in index return order with full distance
	// computations. The answers are bit-identical either way; the flag
	// exists for parity tests and before/after benchmarks.
	NaiveVerify bool
	// FlatLB keeps the candidate pipeline but evaluates the DFT-prefix
	// lower bound in its original flat, single-tier form (per-candidate
	// cutoff and coefficient loads, one cosine per transformation and
	// coefficient) instead of the tiered cascade. Both forms dismiss
	// provably-out-of-range candidates only, so answers are identical.
	// No user-facing option sets it (tsq.QueryOptions.FlatLB is gone): it
	// is the reference fused_test.go and ioaware_test.go hold the
	// cascade's decisions and the filter stage's counts to.
	FlatLB bool
	// ShardID and ShardTotal identify the shard a probe runs in; the
	// engine sets them on each (shard, rectangle) pair of a range query.
	// When ShardTotal > 1 every probe span carries an AShard attribute;
	// the zero values leave single-shard traces untouched.
	ShardID    int
	ShardTotal int
}

// SeqScanRange answers Query 1 by scanning the whole relation: for every
// record and transformation, evaluate the distance predicate. With
// UseOrdering and an orderable set, each record costs O(log |T|)
// comparisons instead of |T|. Only the UseOrdering, OneSided, NaiveVerify
// and Workers options apply: above one worker the relation is scanned in
// that many contiguous chunks (each record's verification is
// independent), concatenated in record order, so the answer and the
// statistics equal the serial scan. A heap file is read through its raw
// parts, which lie in id order, in runs of consecutive pages, each page
// once per chunk of ids, with one run buffer per worker, and every record
// is rebuilt whole from its series. When ctx carries a span, a KindScan child records the records
// scanned, comparisons made and matches found.
func SeqScanRange(ctx context.Context, src RecordSource, q *Record, ts []transform.Transform, eps float64, opts RangeOptions) ([]Match, QueryStats, error) {
	var sp *obs.Span
	if parent := obs.SpanFromContext(ctx); parent != nil {
		sp = parent.Child(obs.KindScan, fmt.Sprintf("seq scan (%d records, %d transforms)", src.Len(), len(ts)))
	}
	g, _ := newGroup(nil, ts, nil, opts.OneSided, opts.UseOrdering, nil) // nil indices: no error
	ordered, perm := g.ordered, g.perm
	cut := eps
	if opts.NaiveVerify {
		cut = math.Inf(1)
	}
	n := src.Len()
	workers := max(1, min(opts.Workers, n))
	chunk := (n + workers - 1) / workers
	type part struct {
		matches []Match
		st      QueryStats
	}
	parts := make([]part, workers)
	err := ParallelFor(workers, workers, func(w int) error {
		p := &parts[w]
		lo := min(w*chunk, n)
		return src.visit(ctx, lo, min(lo+chunk, n), &scanBuf{whole: true}, func(r *Record) error {
			p.st.Candidates++
			if ordered != nil {
				p.matches = appendOrderedMatches(p.matches, ordered, perm, r, q, eps, &p.st, opts.NaiveVerify, nil)
				return nil
			}
			for i, t := range ts {
				if d, _ := p.st.evaluate(t, r, q, cut, opts.OneSided); d <= eps {
					p.matches = append(p.matches, Match{RecordID: r.ID, TransformIdx: i, Distance: d})
				}
			}
			return nil
		})
	})
	out, st := parts[0].matches, parts[0].st
	for _, p := range parts[1:] {
		out = append(out, p.matches...)
		st.Add(p.st)
	}
	if sp != nil {
		sp.Set(obs.ACandidates, int64(st.Candidates))
		sp.Set(obs.AComparisons, int64(st.Comparisons))
		sp.Set(obs.ATerms, int64(st.Terms))
		sp.Set(obs.AMatches, int64(len(out)))
		sp.Set(obs.ATransforms, int64(len(ts)))
		sp.EndErr(err)
	}
	if err != nil {
		return nil, st, err
	}
	return out, st, nil
}

// evaluate is one comparison through the plain kernel, counted: the
// predicate distance of r and q under t in either semantics, abandoning
// at eps (+Inf never abandons: the NaiveVerify accounting). An abandoned
// evaluation returns a lower bound of the distance that is itself above
// eps, so a caller that only asks d <= eps need not look at abandoned.
func (s *QueryStats) evaluate(t transform.Transform, r, q *Record, eps float64, oneSided bool) (d float64, abandoned bool) {
	d, abandoned, terms := t.Verify(r.Mags, r.Phases, q.Mags, q.Phases, oneSided, eps)
	s.counted(abandoned, terms)
	return d, abandoned
}

// evaluatePair is evaluate through the pair kernel, for transformation i
// of the set and the pair it is bound to: the same sums, hence the same
// results and counts.
func (s *QueryStats) evaluatePair(pair *transform.Pair, i int, eps float64) (d float64, abandoned bool) {
	d, abandoned, terms := pair.DistanceAbandon(i, eps)
	s.counted(abandoned, terms)
	return d, abandoned
}

// counted books one evaluation a kernel returned.
func (s *QueryStats) counted(abandoned bool, terms int) {
	s.Comparisons++
	s.Terms += terms
	if abandoned {
		s.Abandoned++
	}
}

// SingletonGroups is the ST-index packing: one transformation rectangle
// per transformation, so an MT-index run over it probes the index once
// per transformation.
func SingletonGroups(n int) [][]int {
	groups := make([][]int, n)
	for i := range groups {
		groups[i] = []int{i}
	}
	return groups
}

// STIndexRange answers Query 1 with one index traversal per transformation
// (the ST-index algorithm): MT-index over singleton groups.
func (s *Sharded) STIndexRange(ctx context.Context, q *Record, ts []transform.Transform, eps float64, opts RangeOptions) ([]Match, QueryStats, error) {
	opts.Groups = SingletonGroups(len(ts))
	return s.MTIndexRange(ctx, q, ts, eps, opts)
}

// MTIndexRange answers Query 1 with Algorithm 1: build the transformation
// MBR(s), traverse the index once per MBR applying Eq. 12 to every index
// rectangle, and verify candidates against every transformation in the
// rectangle (binary search when ordered). Every shard probes every
// rectangle, one probe per (shard, rectangle) pair, run by a pool of
// max(opts.Workers, shards) goroutines. At one shard the matches are
// in rectangle order; at more, each pair's record ids are translated to
// global ones and the whole is put in (RecordID, TransformIdx) order. The
// statistics sum over the pairs. Neither depends on the worker count.
// One pair, the common case, is probed on the calling goroutine.
//
// When ctx holds a parent span (obs.ContextWithSpan), every pair
// contributes a KindProbe span with KindFilter and KindVerify children,
// tagged with its shard at more than one, and the probe's page I/O is
// attributed via storage.QueryIO. A nil ctx — or one without a span —
// takes the untraced path: the only added work is one context lookup per
// query, no allocations.
func (s *Sharded) MTIndexRange(ctx context.Context, q *Record, ts []transform.Transform, eps float64, opts RangeOptions) ([]Match, QueryStats, error) {
	if len(ts) == 0 || opts.Groups != nil && len(opts.Groups) == 0 {
		return nil, QueryStats{}, nil
	}
	if len(s.shards) == 1 && len(opts.Groups) <= 1 {
		var g []int // nil groups: one rectangle over the whole set, a nil group
		if opts.Groups != nil {
			g = opts.Groups[0]
		}
		return s.shards[0].rangeGroup(ctx, q, ts, g, 0, 1, eps, opts)
	}
	return s.rangePairs(ctx, q, ts, eps, opts)
}

// rangePairs is MTIndexRange's fan-out over more than one (shard,
// rectangle) pair: pair i is shard i/ngroups and rectangle i%ngroups, so
// the parts concatenate shard by shard and, within a shard, in rectangle
// order. The first error in that order wins and names its shard.
func (s *Sharded) rangePairs(ctx context.Context, q *Record, ts []transform.Transform, eps float64, opts RangeOptions) ([]Match, QueryStats, error) {
	groups, n := opts.Groups, len(s.shards)
	ngroups := max(len(groups), 1) // nil groups: one rectangle, the nil group
	type part struct {
		matches []Match
		st      QueryStats
	}
	parts := make([]part, n*ngroups)
	err := ParallelFor(len(parts), max(opts.Workers, n), func(i int) (err error) {
		sh, gi := i/ngroups, i%ngroups
		var g []int
		if groups != nil {
			g = groups[gi]
		}
		o := opts
		if n > 1 {
			o.ShardID, o.ShardTotal = sh, n
		}
		p := &parts[i]
		p.matches, p.st, err = s.shards[sh].rangeGroup(ctx, q, ts, g, gi, ngroups, eps, o)
		if n > 1 {
			for j := range p.matches {
				p.matches[j].RecordID = s.global[sh][p.matches[j].RecordID]
			}
		}
		return s.shardErr(sh, err)
	})
	var st QueryStats
	var out []Match
	for _, p := range parts {
		st.Add(p.st)
		out = append(out, p.matches...)
	}
	if err != nil {
		return nil, st, err
	}
	if n > 1 {
		SortMatches(out)
	}
	return out, st, nil
}

// rangeGroup runs the filter-and-verify pipeline for one transformation
// rectangle: build the group (newGroup), then the query rectangle, traverse
// the index, and verify the candidates (in parallel when opts.Workers >
// 1). It only reads index state, so any number of rangeGroup calls may
// run concurrently. When ctx carries a parent span, the pipeline is
// recorded as a KindProbe span (one per transformation rectangle, owned
// by the goroutine running this call) with KindFilter and KindVerify
// children, and every page this probe touches is attributed to it. A nil
// group is every transformation of ts; an empty one is no probe at all.
func (ix *Index) rangeGroup(ctx context.Context, q *Record, ts []transform.Transform, g []int, gi, ngroups int, eps float64, opts RangeOptions) (_ []Match, _ QueryStats, retErr error) {
	var st QueryStats
	if g != nil && len(g) == 0 {
		return nil, st, nil
	}
	sc := ix.acquireScratch()
	defer ix.releaseScratch(sc)
	grp, err := newGroup(ix, ts, g, opts.OneSided, opts.UseOrdering, sc)
	if err != nil {
		return nil, st, err
	}
	parent := obs.SpanFromContext(ctx)
	var probe *obs.Span
	var qio *storage.QueryIO
	if parent != nil {
		probe = parent.Child(obs.KindProbe, fmt.Sprintf("probe %d/%d", gi+1, ngroups))
		probe.Set(obs.ATransforms, int64(len(grp.ts)))
		probe.Set(obs.AGroupIndex, int64(gi))
		if opts.ShardTotal > 1 {
			probe.Set(obs.AShard, int64(opts.ShardID))
		}
		qio = &storage.QueryIO{}
		ctx = storage.WithQueryIO(ctx, qio)
		defer func() {
			probe.Set(obs.APagesRead, qio.Reads.Load())
			probe.Set(obs.ABufferHits, qio.Hits.Load())
			probe.Set(obs.APagesPrefetched, qio.Prefetched.Load())
			probe.EndErr(retErr)
		}()
	}
	st.IndexSearches++

	var fsp *obs.Span
	if probe != nil {
		fsp = probe.Child(obs.KindFilter, "filter")
	}
	// Building the stage with its lower bound counts as lower-bound time.
	lbStart := time.Now()
	stg := ix.newStage(sc, q, grp, eps, opts)
	if stg.bound != nil {
		st.LBTimeNs = time.Since(lbStart).Nanoseconds()
	}
	survivors, err := ix.filter(ctx, sc, &stg, &st, fsp)
	if fsp != nil {
		fsp.Set(obs.ASkippedLB, int64(st.SkippedLB))
		fsp.Set(obs.ASkippedLB0, int64(st.SkippedLB0))
		fsp.Set(obs.ASkippedLB1, int64(st.SkippedLB1))
		fsp.Set(obs.ASkippedLB2, int64(st.SkippedLB2))
		fsp.Set(obs.ALBNanos, st.LBTimeNs)
		fsp.EndErr(err)
	}
	if err != nil {
		return nil, st, err
	}
	var vsp *obs.Span
	if probe != nil {
		vsp = probe.Child(obs.KindVerify, "verify")
	}
	matches, vst, falsePos, err := ix.verifyParallel(ctx, sc, survivors, &stg.group, q, eps, opts)
	if vsp != nil {
		vsp.Set(obs.ACandidates, int64(vst.Candidates))
		vsp.Set(obs.AComparisons, int64(vst.Comparisons))
		vsp.Set(obs.AMatches, int64(len(matches)))
		vsp.Set(obs.AFalsePositives, int64(falsePos))
		vsp.Set(obs.AAbandoned, int64(vst.Abandoned))
		vsp.Set(obs.ATerms, int64(vst.Terms))
		vsp.EndErr(err)
		// Rolled up on the probe so per-group health folds read one span.
		probe.Set(obs.ACandidates, int64(vst.Candidates))
		probe.Set(obs.AMatches, int64(len(matches)))
		probe.Set(obs.AFalsePositives, int64(falsePos))
		probe.Set(obs.ASkippedLB, int64(st.SkippedLB))
		probe.Set(obs.AAbandoned, int64(vst.Abandoned))
	}
	st.Add(vst)
	if err != nil {
		return nil, st, err
	}
	return matches, st, nil
}

// stage is the filter stage of one transformation rectangle, as filter
// runs it: the group, whose lifted MBRs (mult, add) filter reads, the
// query rectangle and, in one-sided mode, the phase dimensions it
// compares modulo 2*pi; dims, the admission test of a leaf entry in each
// dimension, and tests, those stage.admit runs, in its order, the first
// byInterval of them intervals; bound, which returns the tier (0, 1 or 2)
// at which it dismissed a leaf entry's feature point, or -1 to keep it
// (nil keeps every admitted entry); node, the cascade whose rectangle
// form (rectLB) meets every internal entry the per-dimension intersection
// lets through (nil for none).
type stage struct {
	group
	qrect       geom.Rect
	phaseDims   []bool
	dims, tests []dimTest
	byInterval  int
	bound       func(feat geom.Point) int
	node        *lbCascade
}

// dimTest is the admission test of a leaf entry in dimension d: where
// exact, the closed interval [lo, hi] of the coordinates stage.meets
// admits there (stage.pointInterval), else meets itself.
type dimTest struct {
	lo, hi float64
	d      int32
	exact  bool
}

// newStage builds the filter stage of group g for query q at eps in the
// buffers of sc, the scratch newGroup built g in. The query rectangle's
// per-coefficient bound and the lower bound both take the group's
// symmetry factor, and the rectangle leaves free what the group's box may
// not constrain. The bound is the tiered cascade, which also bounds index
// rectangles; its flat reference prefixLB under FlatLB (whose every
// dismissal is the full prefix bound's, tier 2, and which prunes no
// subtree); none under NaiveVerify. The planner prices a probe with the
// stage the executor runs. The stage is valid until sc's next group, and
// building it into a warm scratch allocates nothing but FlatLB's closure.
func (ix *Index) newStage(sc *scratch, q *Record, g group, eps float64, opts RangeOptions) stage {
	s := stage{group: g}
	dim := ix.dim
	epsC := epsScale(eps, g.sym)
	qbuf := sc.stageRects[4*dim : 6*dim] // after the group's MBRs
	if g.oneSided {
		sc.phaseDims = resized(sc.phaseDims, dim)
		s.qrect = ix.oneSidedQueryRect(q, &s.group, epsC, opts.Mode, qbuf, sc.phaseDims)
		s.phaseDims = sc.phaseDims
	} else {
		s.qrect = ix.queryRect(q, &s.group, epsC, opts.Mode, qbuf)
	}
	sc.dims = resized(sc.dims, 2*dim)
	s.dims, s.tests = sc.dims[:dim], sc.dims[dim:dim]
	for d := range s.dims {
		t := &s.dims[d]
		t.d = int32(d)
		t.lo, t.hi, t.exact = s.pointInterval(d)
	}
	// A leaf entry meets the intervals first, two comparisons each, then
	// the formula. An interval that is the whole line admits every
	// coordinate, NaN included, and is not tested.
	for _, t := range s.dims {
		if t.exact && !(math.IsInf(t.lo, -1) && math.IsInf(t.hi, 1)) {
			s.tests = append(s.tests, t)
		}
	}
	s.byInterval = len(s.tests)
	for _, t := range s.dims {
		if !t.exact {
			s.tests = append(s.tests, t)
		}
	}
	switch {
	case opts.NaiveVerify:
	case opts.FlatLB:
		cut := transform.AbandonCutoff(eps)
		sub, oneSided, sym := g.ts, g.oneSided, g.sym
		s.bound = func(feat geom.Point) int {
			if ix.prefixLB(feat, sub, q, oneSided, sym, cut) > cut {
				return 2
			}
			return -1
		}
	default:
		sc.casc.init(ix.opts.K, &s.group, q, eps)
		if sc.skip == nil {
			sc.skip = sc.casc.skip
		}
		s.node, s.bound = &sc.casc, sc.skip
	}
	return s
}

// filter runs stage s of one transformation rectangle: the Algorithm 1
// traversal and, on every leaf entry it admits, the DFT-prefix lower
// bound s.bound, read off the block of admitted points the leaf scan
// gathers (stage.admit). It returns the ids of the survivors — the
// records verification has to fetch — in traversal order; no feature
// point leaves the traversal, and a record id is read off its leaf only
// for a survivor. A caller that only wants the traversal's counts leaves
// s.bound nil, and every admitted entry survives. A subtree whose s.node
// bound exceeds the cutoff holds only entries the point bound would
// dismiss one by one, and is not read.
//
// The dismissals go to st.SkippedLB* and the time bound took to
// st.LBTimeNs: a leaf's admitted entries meet it in one timed pass, and a
// leaf that admits nothing reads no clock. Node loads carry ctx so a
// storage.QueryIO in it sees them, and when sp is non-nil the traversal
// counters (nodes, leaves, subtrees pruned by the rectangle and by the
// bound, admitted entries) are recorded on it. The caller closes sp. The
// walk is depth-first, one slot per tree level: the parent's entries are
// still being iterated while a child is read. Internal nodes are decoded
// into their slot and leaves are read in place (rtree.LoadView).
// The returned ids live in sc and are valid until sc is released.
func (ix *Index) filter(ctx context.Context, sc *scratch, s *stage, st *QueryStats, sp *obs.Span) ([]int64, error) {
	mult, add, qrect, phaseDims, bound, node := s.mult, s.add, s.qrect, s.phaseDims, s.bound, s.node
	da0, dl0 := st.DAAll, st.DALeaf
	var pruned, prunedLB, admittedTotal int64
	out := sc.cands[:0]
	slots := ix.tree.AcquireSlots()
	defer slots.Release()
	// One scratch rectangle serves every internal entry of the walk
	// (ApplyMBRs would allocate two points per entry inspected); leaf
	// entries take the fused point path (stage.admit) and need none.
	dim := ix.dim
	if len(sc.rect) != 2*dim {
		sc.rect = make([]float64, 2*dim)
	}
	scratchLo, scratchHi := geom.Point(sc.rect[:dim]), geom.Point(sc.rect[dim:])
	// The leaves time their passes against one reading of the clock:
	// time.Since is a single monotonic read, half the cost of time.Now.
	var clock time.Time
	if bound != nil {
		clock = time.Now()
	}
	var walk func(id storage.PageID, depth int) error
	walk = func(id storage.PageID, depth int) error {
		n, leaf, err := ix.tree.LoadView(ctx, id, slots.At(depth))
		if err != nil {
			return err
		}
		st.DAAll++
		if leaf != nil {
			st.DALeaf++
			admitted := s.admit(sc, leaf)
			admittedTotal += int64(len(admitted))
			if len(admitted) == 0 {
				return nil
			}
			if bound == nil {
				for _, i := range admitted {
					out = append(out, leaf.Rec(int(i)))
				}
				return nil
			}
			pts := leaf.Gather(admitted)
			lbStart := time.Since(clock)
			for k, i := range admitted {
				if tier := bound(pts[k*dim : (k+1)*dim]); tier >= 0 {
					st.skippedAt(tier)
					continue
				}
				out = append(out, leaf.Rec(int(i)))
			}
			st.LBTimeNs += int64(time.Since(clock) - lbStart)
			return nil
		}
		for _, e := range n.Entries {
			y := transform.ApplyMBRsInto(scratchLo, scratchHi, mult, add, e.Rect)
			if phaseDims != nil {
				if !intersectsModular(y, qrect, phaseDims) {
					pruned++
					continue
				}
			} else if !y.Intersects(qrect) {
				pruned++
				continue
			}
			if node != nil && node.rectLB(e.Rect.Lo, e.Rect.Hi, node.cut) > node.cut {
				prunedLB++
				continue
			}
			if err := walk(e.Child, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	err := walk(ix.tree.Root(), 0)
	sc.cands = out
	if err != nil {
		return nil, err
	}
	if sp != nil {
		sp.Set(obs.ANodes, int64(st.DAAll-da0))
		sp.Set(obs.ALeaves, int64(st.DALeaf-dl0))
		sp.Set(obs.APruned, pruned)
		sp.Set(obs.APrunedLB, prunedLB)
		sp.Set(obs.ACandidates, admittedTotal)
	}
	return out, nil
}

// admit runs the Algorithm 1 admission test, the stage's tests in their
// order, on every entry of leaf v where the entry lies in the page. An
// entry leaves at the first dimension that rejects it. admit returns the
// positions of the entries it admits, in entry order, valid until the
// next call on sc.
func (s *stage) admit(sc *scratch, v *rtree.PointLeaf) []int32 {
	admitted := sc.admitted[:0]
	intervals, formulas := s.tests[:s.byInterval], s.tests[s.byInterval:]
entries:
	for i := 0; i < v.Len(); i++ {
		for k := range intervals {
			t := &intervals[k]
			if x := v.Coord(i, int(t.d)); x < t.lo || x > t.hi {
				continue entries
			}
		}
		for k := range formulas {
			if d := int(formulas[k].d); !s.meets(d, v.Coord(i, d)) {
				continue entries
			}
		}
		admitted = append(admitted, int32(i))
	}
	sc.admitted = admitted
	return admitted
}

// meets is the admission test of a point coordinate v in dimension d:
// whether the interval the stage's multipliers and offsets map v to
// (pointImage) meets the query's, modulo 2π in a phase dimension of a
// one-sided query (wrapMeets). A NaN coordinate meets every dimension
// that is not a phase.
func (s *stage) meets(d int, v float64) bool {
	lo, hi := pointImage(v, s.mult.Lo[d], s.mult.Hi[d], s.add.Lo[d], s.add.Hi[d])
	if s.phaseDims != nil && s.phaseDims[d] {
		return wrapMeets(lo, hi, s.qrect.Lo[d], s.qrect.Hi[d])
	}
	return !(lo > s.qrect.Hi[d]) && !(s.qrect.Lo[d] > hi)
}

// pointImage is Eq. 12 in one dimension on the degenerate interval
// [v, v]: of the four corner products two remain. Each product is
// converted, which rounds it, so that no platform fuses it with the sum
// into a multiply-add: the intervals newStage derives from this function
// (stage.pointInterval) are exactly what the per-entry test admits.
func pointImage(v, mLo, mHi, aLo, aHi float64) (lo, hi float64) {
	p1, p3 := float64(mLo*v), float64(mHi*v)
	lo, hi = p1, p3
	if p3 < p1 {
		lo, hi = p3, p1
	}
	return lo + aLo, hi + aHi
}

// wrapMeets reports whether the unwrapped phase interval [lo, hi] meets
// [qLo, qHi] after a translation by some multiple k of 2π. The k that do
// are a run of integers, since both tests are monotone in k; its first is
// ⌈(qLo − hi)/2π⌉ up to rounding, so the test tries the four from
// ⌊(qLo − hi)/2π⌋ − 1 on. A composition of time shifts carries a phase
// offset of any size, so no fixed window of k will do. An unbounded query
// interval is met at any k.
func wrapMeets(lo, hi, qLo, qHi float64) bool {
	const twoPi = 2 * math.Pi
	k0 := math.Floor((qLo-hi)/twoPi) - 1
	if math.IsInf(k0, 0) || math.IsNaN(k0) {
		k0 = 0
	}
	for i := 0.0; i < 4; i++ {
		shift := (k0 + i) * twoPi
		if lo+shift <= qHi && qLo <= hi+shift {
			return true
		}
	}
	return false
}

// pointInterval returns, for dimension d, the set of coordinates meets
// admits as a closed interval [lo, hi] (exact), when it is one the test
// can be replaced by: in a dimension compared linearly, not modulo 2π,
// whose multiplier bounds are finite and of one sign and whose offsets
// are finite. There both ends of pointImage are monotone in v, in the
// same direction, because a product with a constant of fixed sign and a
// sum with a constant round monotonically. So the coordinates whose
// image reaches down to the query's high end form a ray, those whose
// image reaches up to its low end form the opposite ray, and both hold
// on an interval. Each end is found by bisection over the float64 order
// with pointImage itself as the oracle (firstTrue), about 64 evaluations
// per end. An empty set is [+Inf, -Inf]. NaN, which no comparison with
// the interval rejects, is admitted by meets too.
func (s *stage) pointInterval(d int) (lo, hi float64, exact bool) {
	mLo, mHi, aLo, aHi, qLo, qHi := s.mult.Lo[d], s.mult.Hi[d], s.add.Lo[d], s.add.Hi[d], s.qrect.Lo[d], s.qrect.Hi[d]
	increasing := 0 < mLo && mHi < math.Inf(1)
	if s.phaseDims != nil && s.phaseDims[d] || !increasing && !(math.Inf(-1) < mLo && mHi < 0) ||
		math.IsInf(aLo, 0) || math.IsNaN(aLo) || math.IsInf(aHi, 0) || math.IsNaN(aHi) {
		return 0, 0, false
	}
	// reachesDown(v): v's image reaches down to qHi; reachesUp(v): up to qLo.
	reachesDown := func(v float64) bool { lo, _ := pointImage(v, mLo, mHi, aLo, aHi); return !(lo > qHi) }
	reachesUp := func(v float64) bool { _, hi := pointImage(v, mLo, mHi, aLo, aHi); return !(qLo > hi) }
	upRay, downRay := reachesUp, reachesDown // the predicate that holds on a ray to +Inf, and the one to -Inf
	if !increasing {
		upRay, downRay = reachesDown, reachesUp
	}
	first := firstTrue(upRay)
	last := firstTrue(func(v float64) bool { return !downRay(v) }) - 1
	if first > last {
		return math.Inf(1), math.Inf(-1), true
	}
	return orderValue(first), orderValue(last), true
}

// infKey is the key of +Inf, and -infKey that of -Inf, in the order of
// orderValue.
const infKey = 0x7FF0000000000000

// orderValue is the float64 at key k of the order from -Inf to +Inf in
// which consecutive floats have consecutive keys: a float that is not
// negative is keyed by its bits, a negative one by those of its absolute
// value, negated. -0 and +0 share key 0, which is +0: no comparison tells
// them apart.
func orderValue(k int64) float64 {
	if k < 0 {
		return math.Float64frombits(uint64(-k) | 1<<63)
	}
	return math.Float64frombits(uint64(k))
}

// firstTrue returns the key (orderValue) of the first float64 from -Inf
// to +Inf at which up holds, a predicate that stays true once it is; infKey+1
// when it holds nowhere.
func firstTrue(up func(v float64) bool) int64 {
	if up(math.Inf(-1)) {
		return -infKey
	}
	if !up(math.Inf(1)) {
		return infKey + 1
	}
	// up(lo) is false and up(hi) true. Their distance takes up to 64
	// bits: it is computed unsigned.
	lo, hi := int64(-infKey), int64(infKey)
	for uint64(hi-lo) > 1 {
		mid := lo + int64(uint64(hi-lo)/2)
		if up(orderValue(mid)) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}

// appendOrderedMatches finds the largest qualifying scale of an ordered
// group (group.ordered, whose positions in the query's set perm holds)
// by binary search (Definition 1 guarantees all smaller scales qualify)
// and appends one match per qualifying transformation. Unless naive, the
// predicate runs through an early-abandoning kernel: pair, bound to the
// ordered transformations and to (r, q), when the index verifies, the
// plain kernel when pair is nil (the scan). The qualify/fail decisions
// (and hence the binary search path) are identical all three ways.
func appendOrderedMatches(out []Match, ordered []transform.Transform, perm []int, r, q *Record, eps float64, st *QueryStats, naive bool, pair *transform.Pair) []Match {
	cut := eps
	if naive {
		cut = math.Inf(1)
	}
	k := transform.OrderedSet{Transforms: ordered}.LargestQualifying(func(i int) bool {
		var d float64
		if pair != nil {
			d, _ = st.evaluatePair(pair, i, cut)
		} else {
			d, _ = st.evaluate(ordered[i], r, q, cut, false)
		}
		return d <= eps
	})
	for i := 0; i <= k; i++ {
		out = append(out, Match{RecordID: r.ID, TransformIdx: perm[i], Distance: -1})
	}
	return out
}

func identityIndexes(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// SortMatches orders matches by record id then transformation index, for
// deterministic comparison in tests and tools.
func SortMatches(ms []Match) {
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].RecordID != ms[j].RecordID {
			return ms[i].RecordID < ms[j].RecordID
		}
		return ms[i].TransformIdx < ms[j].TransformIdx
	})
}
