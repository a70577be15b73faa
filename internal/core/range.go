package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"tsq/internal/geom"
	"tsq/internal/obs"
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
	// shape, they do not meter it exactly.
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
	// Workers parallelizes the probes of a multi-rectangle query, candidate
	// verification and the sequential scan across that many goroutines
	// when above 1. Answers are identical to serial evaluation.
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
	// ShardID and ShardTotal identify the shard a scatter-gather probe
	// runs in. When ShardTotal > 1 every probe span carries an AShard
	// attribute; the zero values leave single-shard traces untouched.
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
// statistics equal the serial scan. A heap file is read in runs of
// consecutive record pages, each page once, with one run buffer per
// worker. When ctx carries a span, a KindScan child records the records
// scanned, comparisons made and matches found.
func SeqScanRange(ctx context.Context, src RecordSource, q *Record, ts []transform.Transform, eps float64, opts RangeOptions) ([]Match, QueryStats, error) {
	var sp *obs.Span
	if parent := obs.SpanFromContext(ctx); parent != nil {
		sp = parent.Child(obs.KindScan, fmt.Sprintf("seq scan (%d records, %d transforms)", src.Len(), len(ts)))
	}
	ordered := orderedPrefix(ts, opts.UseOrdering && !opts.OneSided)
	var all []int
	if ordered != nil {
		all = identityIndexes(len(ts))
	}
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
		return src.visit(ctx, lo, min(lo+chunk, n), new(scanBuf), func(r *Record) error {
			p.st.Candidates++
			if ordered != nil {
				p.matches = appendOrderedMatches(p.matches, ordered, r, q, eps, &p.st, all, opts.NaiveVerify, nil)
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
func (ix *Index) STIndexRange(ctx context.Context, q *Record, ts []transform.Transform, eps float64, opts RangeOptions) ([]Match, QueryStats, error) {
	opts.Groups = SingletonGroups(len(ts))
	return ix.MTIndexRange(ctx, q, ts, eps, opts)
}

// MTIndexRange answers Query 1 with Algorithm 1: build the transformation
// MBR(s), traverse the index once per MBR applying Eq. 12 to every index
// rectangle, and verify candidates against every transformation in the
// rectangle (binary search when ordered). The rectangles are probed by
// up to opts.Workers goroutines and merged in group order, so matches
// and statistics do not depend on the worker count.
//
// When ctx holds a parent span (obs.ContextWithSpan), every rectangle
// contributes a KindProbe span with KindFilter and KindVerify children,
// and the probe's page I/O is attributed via storage.QueryIO. A nil ctx —
// or one without a span — takes the untraced path: the only added work
// is one context lookup per query, no allocations.
func (ix *Index) MTIndexRange(ctx context.Context, q *Record, ts []transform.Transform, eps float64, opts RangeOptions) ([]Match, QueryStats, error) {
	if len(ts) == 0 {
		return nil, QueryStats{}, nil
	}
	groups := opts.Groups
	if groups == nil {
		// One rectangle over the whole set, which rangeGroup takes as a
		// nil group.
		return ix.rangeGroup(ctx, q, ts, nil, 0, 1, eps, opts)
	}
	if len(groups) == 1 {
		// One rectangle is one probe: nothing to fork and nothing to
		// merge, so the probe's matches are returned as they are.
		if len(groups[0]) == 0 {
			return nil, QueryStats{}, nil
		}
		return ix.rangeGroup(ctx, q, ts, groups[0], 0, 1, eps, opts)
	}
	type part struct {
		matches []Match
		st      QueryStats
	}
	parts := make([]part, len(groups))
	err := ParallelFor(len(groups), opts.Workers, func(gi int) (err error) {
		if len(groups[gi]) == 0 {
			return nil // an empty group is no probe at all
		}
		p := &parts[gi]
		p.matches, p.st, err = ix.rangeGroup(ctx, q, ts, groups[gi], gi, len(groups), eps, opts)
		return err
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
	return out, st, nil
}

// rangeGroup runs the filter-and-verify pipeline for one transformation
// rectangle: lift the group's MBR, build the query rectangle, traverse
// the index, and verify the candidates (in parallel when opts.Workers >
// 1). It only reads index state, so any number of rangeGroup calls may
// run concurrently. When ctx carries a parent span, the pipeline is
// recorded as a KindProbe span (one per transformation rectangle, owned
// by the goroutine running this call) with KindFilter and KindVerify
// children, and every page this probe touches is attributed to it. A nil
// group is every transformation of ts; the caller passes no empty one.
func (ix *Index) rangeGroup(ctx context.Context, q *Record, ts []transform.Transform, g []int, gi, ngroups int, eps float64, opts RangeOptions) (_ []Match, _ QueryStats, retErr error) {
	var st QueryStats
	sc := ix.acquireScratch()
	defer ix.releaseScratch(sc)
	if g == nil {
		g = sc.identity(len(ts))
	}
	parent := obs.SpanFromContext(ctx)
	var probe *obs.Span
	var qio *storage.QueryIO
	if parent != nil {
		probe = parent.Child(obs.KindProbe, fmt.Sprintf("probe %d/%d", gi+1, ngroups))
		probe.Set(obs.ATransforms, int64(len(g)))
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
	sub := sc.sub[:0]
	for _, idx := range g {
		if idx < 0 || idx >= len(ts) {
			return nil, st, fmt.Errorf("core: group index %d out of range", idx)
		}
		sub = append(sub, ts[idx])
	}
	sc.sub = sub
	st.IndexSearches++

	var fsp *obs.Span
	if probe != nil {
		fsp = probe.Child(obs.KindFilter, "filter")
	}
	// Building the stage with its lower bound counts as lower-bound time.
	lbStart := time.Now()
	stg := ix.newStage(sc, q, sub, eps, opts)
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
	ordered := orderedPrefix(sub, opts.UseOrdering && !opts.OneSided)
	var vsp *obs.Span
	if probe != nil {
		vsp = probe.Child(obs.KindVerify, "verify")
	}
	matches, vst, falsePos, err := ix.verifyParallel(ctx, sc, survivors, sub, g, q, eps, ordered, opts)
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
// runs it: the group's lifted MBRs (mult, add), the query rectangle and,
// in one-sided mode, the phase dimensions it compares modulo 2*pi; bound,
// which returns the tier (0, 1 or 2) at which it dismissed a leaf entry's
// feature point, or -1 to keep it (nil keeps every admitted entry); and
// node, the cascade whose rectangle form (rectLB) meets every internal
// entry the per-dimension intersection lets through (nil for none).
type stage struct {
	mult, add, qrect geom.Rect
	phaseDims        []bool
	bound            func(feat geom.Point) int
	node             *lbCascade
}

// newStage builds the filter stage of group sub for query q at eps in
// sc's buffers, and with it the group's symmetry factor (Index.symmetry),
// which the query rectangle's per-coefficient bound and the lower bound
// both take. The bound is the tiered cascade, which also bounds index
// rectangles; its flat reference prefixLB under FlatLB (whose every
// dismissal is the full prefix bound's, tier 2, and which prunes no
// subtree); none under NaiveVerify. The planner prices a probe with the
// stage the executor runs. The stage is valid until sc's next stage, and
// building it into a warm scratch allocates nothing but FlatLB's closure.
func (ix *Index) newStage(sc *scratch, q *Record, sub []transform.Transform, eps float64, opts RangeOptions) stage {
	var s stage
	dim := ix.dim
	sym := ix.symmetry(sub, opts.OneSided)
	sc.stageRects = resized(sc.stageRects, 6*dim)
	s.mult, s.add = ix.fullMBRs(sub, sc.stageRects[:4*dim])
	if opts.OneSided {
		sc.phaseDims = resized(sc.phaseDims, dim)
		s.qrect = ix.oneSidedQueryRect(q, epsScale(eps, sym), opts.Mode, sc.stageRects[4*dim:], sc.phaseDims)
		s.phaseDims = sc.phaseDims
	} else {
		s.qrect = ix.queryRect(q, sub, epsScale(eps, sym), opts.Mode, sc.stageRects[4*dim:])
	}
	for j := 1; j <= ix.opts.K; j++ {
		if !intervalSafe(sub, j, opts.OneSided) {
			s.qrect.Lo[2*j], s.qrect.Hi[2*j] = math.Inf(-1), math.Inf(1)
			s.qrect.Lo[2*j+1], s.qrect.Hi[2*j+1] = math.Inf(-1), math.Inf(1)
		}
	}
	switch {
	case opts.NaiveVerify:
	case opts.FlatLB:
		cut := transform.AbandonCutoff(eps)
		s.bound = func(feat geom.Point) int {
			if ix.prefixLB(feat, sub, q, opts.OneSided, sym, cut) > cut {
				return 2
			}
			return -1
		}
	default:
		sc.casc.init(ix.opts.K, sub, q, eps, opts.OneSided, sym)
		if sc.skip == nil {
			sc.skip = sc.casc.skip
		}
		s.node, s.bound = &sc.casc, sc.skip
	}
	return s
}

// filter runs stage s of one transformation rectangle: the Algorithm 1
// traversal and, on every leaf entry it admits, the DFT-prefix lower
// bound s.bound, read straight off the decode slot's feature block. It
// returns the ids of the survivors — the records verification has to
// fetch — in traversal order; no feature point leaves the traversal. A
// caller that only wants the traversal's counts leaves s.bound nil, and
// every admitted entry survives. A subtree whose s.node bound exceeds the
// cutoff holds only entries the point bound would dismiss one by one, and
// is not read.
//
// The dismissals go to st.SkippedLB* and the time bound took to
// st.LBTimeNs: a leaf's admitted entries meet it in one timed pass, and a
// leaf that admits nothing reads no clock. Node loads carry ctx so a
// storage.QueryIO in it sees them, and when sp is non-nil the traversal
// counters (nodes, leaves, subtrees pruned by the rectangle and by the
// bound, admitted entries) are recorded on it. The caller closes sp. The
// walk is depth-first, one decode slot per tree level: the parent's
// entries are still being iterated while a child is read. The returned
// ids live in sc and are valid until sc is released.
func (ix *Index) filter(ctx context.Context, sc *scratch, s *stage, st *QueryStats, sp *obs.Span) ([]int64, error) {
	mult, add, qrect, phaseDims, bound, node := s.mult, s.add, s.qrect, s.phaseDims, s.bound, s.node
	da0, dl0 := st.DAAll, st.DALeaf
	var pruned, prunedLB, admittedTotal int64
	out := sc.cands[:0]
	slots := ix.tree.AcquireSlots()
	defer slots.Release()
	// One scratch rectangle serves every internal entry of the walk
	// (ApplyMBRs would allocate two points per entry inspected); leaf
	// entries take the fused point path below and need no rectangle.
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
		n, err := ix.tree.LoadInto(ctx, id, slots.At(depth))
		if err != nil {
			return err
		}
		st.DAAll++
		if n.Leaf {
			st.DALeaf++
			// Leaf-major fast path: every leaf entry of the feature
			// index is a point (Rect.Lo == Rect.Hi == the record's
			// feature vector), and decoded nodes store all low corners
			// in one contiguous block, so the admission test scans flat
			// float64 data — the transformed-interval intersection test
			// fused per dimension with early exit, no rectangle built —
			// and the bound reads the admitted points from the same
			// block while the leaf is still in cache.
			flat := n.FlatLo()
			admitted := sc.admitted[:0]
			for i := range n.Entries {
				if leafPointAdmit(flat[i*dim:(i+1)*dim], mult, add, qrect, phaseDims) {
					admitted = append(admitted, int32(i))
				}
			}
			sc.admitted = admitted
			admittedTotal += int64(len(admitted))
			if len(admitted) == 0 {
				return nil
			}
			if bound == nil {
				for _, i := range admitted {
					out = append(out, n.Entries[i].Rec)
				}
				return nil
			}
			lbStart := time.Since(clock)
			for _, i := range admitted {
				if tier := bound(flat[int(i)*dim : (int(i)+1)*dim]); tier >= 0 {
					st.skippedAt(tier)
					continue
				}
				out = append(out, n.Entries[i].Rec)
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

// leafPointAdmit is the leaf-entry admission test of the Algorithm 1
// traversal, specialized to point entries: it computes, per dimension,
// the transformed interval of ApplyMBRs on the degenerate rectangle
// [feat, feat] and tests it against the query rectangle immediately,
// with early exit on the first separating dimension. For a point the
// four corner products collapse to two, so the result is identical to
// ApplyMBRs + Intersects (or intersectsModular for the marked phase
// dimensions) without building a rectangle.
func leafPointAdmit(feat geom.Point, mult, add geom.Rect, qrect geom.Rect, phaseDims []bool) bool {
	const twoPi = 2 * math.Pi
	for i, v := range feat {
		p1 := mult.Lo[i] * v
		p3 := mult.Hi[i] * v
		lo, hi := p1, p3
		if p3 < p1 {
			lo, hi = p3, p1
		}
		lo += add.Lo[i]
		hi += add.Hi[i]
		if phaseDims != nil && phaseDims[i] {
			ok := false
			for k := -2.0; k <= 2.0; k++ {
				shift := k * twoPi
				if lo+shift <= qrect.Hi[i] && qrect.Lo[i] <= hi+shift {
					ok = true
					break
				}
			}
			if !ok {
				return false
			}
			continue
		}
		if lo > qrect.Hi[i] || qrect.Lo[i] > hi {
			return false
		}
	}
	return true
}

// orderedPrefix returns an ordered set over ts when ordering is requested
// and ts is a pure positive scale set (Lemma 2); nil otherwise. The
// returned set's transforms are ts in ascending-factor order along with
// the permutation back into ts.
type orderedSet struct {
	set  transform.OrderedSet
	perm []int // perm[i] = index into the original slice
}

func orderedPrefix(ts []transform.Transform, useOrdering bool) *orderedSet {
	if !useOrdering {
		return nil
	}
	factors, ok := transform.OrderableAsScales(ts)
	if !ok {
		return nil
	}
	perm := identityIndexes(len(ts))
	sort.Slice(perm, func(a, b int) bool { return factors[perm[a]] < factors[perm[b]] })
	sorted := make([]transform.Transform, len(ts))
	for i, p := range perm {
		sorted[i] = ts[p]
	}
	return &orderedSet{set: transform.OrderedSet{Transforms: sorted}, perm: perm}
}

// appendOrderedMatches finds the largest qualifying scale by binary search
// (Definition 1 guarantees all smaller scales qualify) and appends one
// match per qualifying transformation. groupIdx maps local positions to
// the caller's transformation indices. Unless naive, the predicate runs
// through an early-abandoning kernel: pair, bound to o's transformations
// and to (r, q), when the index verifies, the plain kernel when pair is
// nil (the scan). The qualify/fail decisions (and hence the binary search
// path) are identical all three ways.
func appendOrderedMatches(out []Match, o *orderedSet, r, q *Record, eps float64, st *QueryStats, groupIdx []int, naive bool, pair *transform.Pair) []Match {
	cut := eps
	if naive {
		cut = math.Inf(1)
	}
	k := o.set.LargestQualifying(func(i int) bool {
		var d float64
		if pair != nil {
			d, _ = st.evaluatePair(pair, i, cut)
		} else {
			d, _ = st.evaluate(o.set.Transforms[i], r, q, cut, false)
		}
		return d <= eps
	})
	for i := 0; i <= k; i++ {
		out = append(out, Match{RecordID: r.ID, TransformIdx: groupIdx[o.perm[i]], Distance: -1})
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
