package core

import (
	"container/heap"
	"context"
	"fmt"
	"math"
	"sort"
	"sync"

	"tsq/internal/geom"
	"tsq/internal/rtree"
	"tsq/internal/series"
	"tsq/internal/storage"
	"tsq/internal/transform"
)

// This file implements the sharded index: the dataset is partitioned
// into N independent shards by a deterministic hash of the global
// series id, each shard owning its own R*-tree, heap file, buffer pool
// and storage counters. Shards are built in parallel and queried
// scatter-gather with a deterministic merge (range: id-ordered union;
// NN: per-shard top-k merged by (distance, id); join/closest-pairs:
// intra-shard walks plus pairwise cross-shard walks). With one shard
// every method is a direct passthrough to the underlying Index — no
// extra spans, no merge, no id translation — so the single-shard
// engine is bit-identical to the pre-shard one.

// ShardOf is the partition function: the shard owning global series id
// g in an n-shard layout. It is a fixed (splitmix64-style) integer mix
// reduced mod n, so the assignment is deterministic across processes,
// uniform even for the sequential ids the loaders produce, and depends
// only on (g, n) — the layout of a file set can always be re-derived.
func ShardOf(g int64, n int) int {
	if n <= 1 {
		return 0
	}
	x := uint64(g)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int(x % uint64(n))
}

// shardLayout derives the global<->local id mapping of an n-shard
// layout over ids 0..total-1: local[g] is g's id within its shard, and
// global[s][l] is the global id of shard s's l-th record. Local ids are
// assigned in ascending global-id order, which the per-shard heap files
// rely on (records append positionally).
func shardLayout(total int64, n int) (local []int64, global [][]int64) {
	local = make([]int64, total)
	global = make([][]int64, n)
	for g := int64(0); g < total; g++ {
		s := ShardOf(g, n)
		local[g] = int64(len(global[s]))
		global[s] = append(global[s], g)
	}
	return local, global
}

// PartitionDataset splits a dataset into n per-shard datasets following
// ShardOf. Each local record is a shallow copy of the global one with
// its ID rewritten to the local ordinal (the series, spectra and name
// are shared, not duplicated). The dataset must be tombstone-free —
// partitioning happens at build time, before any delete.
func PartitionDataset(ds *Dataset, n int) ([]*Dataset, error) {
	local, _ := shardLayout(int64(len(ds.Records)), n)
	out := make([]*Dataset, n)
	for s := 0; s < n; s++ {
		out[s] = &Dataset{N: ds.N}
	}
	for g, r := range ds.Records {
		if r == nil {
			return nil, fmt.Errorf("core: cannot partition dataset with deleted record %d", g)
		}
		r2 := *r
		r2.ID = local[g]
		out[ShardOf(int64(g), n)].Records = append(out[ShardOf(int64(g), n)].Records, &r2)
	}
	return out, nil
}

// Sharded is N independent feature indexes queried scatter-gather. It
// exposes the same query surface as Index; the tsq facade always talks
// to a Sharded, which at one shard is a zero-cost passthrough.
type Sharded struct {
	ds     *Dataset // global dataset; at one shard, identical to shards[0].Dataset()
	shards []*Index
	// local[g] is global id g's id within shard ShardOf(g, n); nil at
	// one shard, where local and global ids coincide.
	local []int64
	// global[s][l] is the global id of shard s's record l.
	global [][]int64
}

// WrapIndex presents a single Index as a one-shard Sharded. Every
// method passes straight through.
func WrapIndex(ix *Index) *Sharded {
	return &Sharded{ds: ix.Dataset(), shards: []*Index{ix}}
}

// BuildSharded partitions the dataset into nshards shards and builds
// their indexes in parallel, one goroutine per shard. nshards <= 1
// builds a single Index over ds itself — exactly the unsharded build.
// opts applies to every shard; opts.Manager must be nil for a
// multi-shard build (each shard owns its own manager and buffer pool).
func BuildSharded(ds *Dataset, nshards int, opts IndexOptions) (*Sharded, error) {
	if nshards <= 1 {
		ix, err := BuildIndex(ds, opts)
		if err != nil {
			return nil, err
		}
		return WrapIndex(ix), nil
	}
	if opts.Manager != nil {
		return nil, fmt.Errorf("core: multi-shard build cannot share one storage manager")
	}
	locals, err := PartitionDataset(ds, nshards)
	if err != nil {
		return nil, err
	}
	shards := make([]*Index, nshards)
	errs := make([]error, nshards)
	var wg sync.WaitGroup
	for s := 0; s < nshards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			o := opts
			if len(locals[s].Records) == 0 {
				// STR bulk loading needs at least one item; an empty
				// shard gets an empty insert-built tree.
				o.BulkLoad = false
			}
			shards[s], errs[s] = BuildIndex(locals[s], o)
		}(s)
	}
	wg.Wait()
	for s, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("core: build shard %d: %w", s, err)
		}
	}
	return assemble(ds, shards)
}

// AssembleShards reassembles a Sharded from independently opened
// per-shard indexes (the persistence layer's open path). The global
// dataset and id mapping are re-derived from the shard record counts;
// a count that contradicts the partition function is a corruption and
// names the offending shard.
func AssembleShards(shards []*Index) (*Sharded, error) {
	if len(shards) == 1 {
		return WrapIndex(shards[0]), nil
	}
	var total int64
	for _, ix := range shards {
		total += int64(len(ix.Dataset().Records))
	}
	n := len(shards)
	local, global := shardLayout(total, n)
	ds := &Dataset{N: shards[0].Dataset().N, Records: make([]*Record, total)}
	for s, ix := range shards {
		sd := ix.Dataset()
		if sd.N != ds.N {
			return nil, fmt.Errorf("core: shard %d: series length %d, shard 0 has %d", s, sd.N, ds.N)
		}
		if ix.Options().K != shards[0].Options().K {
			return nil, fmt.Errorf("core: shard %d: k=%d, shard 0 has k=%d", s, ix.Options().K, shards[0].Options().K)
		}
		if len(sd.Records) != len(global[s]) {
			return nil, fmt.Errorf("core: shard %d: %d records, partition of %d ids expects %d",
				s, len(sd.Records), total, len(global[s]))
		}
		for l, r := range sd.Records {
			if r == nil { // tombstone
				continue
			}
			r2 := *r
			r2.ID = global[s][l]
			ds.Records[r2.ID] = &r2
		}
	}
	return &Sharded{ds: ds, shards: shards, local: local, global: global}, nil
}

// assemble wires an already-partitioned build (global dataset known)
// without rebuilding records.
func assemble(ds *Dataset, shards []*Index) (*Sharded, error) {
	local, global := shardLayout(int64(len(ds.Records)), len(shards))
	return &Sharded{ds: ds, shards: shards, local: local, global: global}, nil
}

func (s *Sharded) single() bool { return len(s.shards) == 1 }

// ShardCount returns the number of shards (1 for an unsharded DB).
func (s *Sharded) ShardCount() int { return len(s.shards) }

// Shard returns shard i's index.
func (s *Sharded) Shard(i int) *Index { return s.shards[i] }

// Dataset returns the global dataset (ids are global).
func (s *Sharded) Dataset() *Dataset { return s.ds }

// Options returns the index options (identical across shards).
func (s *Sharded) Options() IndexOptions { return s.shards[0].Options() }

// Paged reports whether the shards are disk-backed.
func (s *Sharded) Paged() bool { return s.shards[0].Heap() != nil }

// PageSize returns the storage page size (identical across shards).
func (s *Sharded) PageSize() int { return s.shards[0].Manager().PageSize() }

// NumPages sums the allocated pages across shards.
func (s *Sharded) NumPages() int {
	total := 0
	for _, ix := range s.shards {
		total += ix.Manager().NumPages()
	}
	return total
}

// Height returns the maximum tree height across shards.
func (s *Sharded) Height() int {
	h := 0
	for _, ix := range s.shards {
		if th := ix.Tree().Height(); th > h {
			h = th
		}
	}
	return h
}

// Close closes every shard — folding each shard's WAL first when one
// is attached and healthy — returning the first error but closing all.
func (s *Sharded) Close() error {
	var first error
	for _, ix := range s.shards {
		if err := ix.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Checkpoint folds every shard's WAL into its main file (no-op for
// shards without one), returning the first error but attempting all.
func (s *Sharded) Checkpoint() error {
	var first error
	for _, ix := range s.shards {
		if err := ix.Checkpoint(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// DiskStats sums the storage counters across shards.
func (s *Sharded) DiskStats() storage.Stats {
	if s.single() {
		return s.shards[0].DiskStats()
	}
	var total storage.Stats
	for _, ix := range s.shards {
		total = addStats(total, ix.DiskStats())
	}
	return total
}

// ResetDiskStats resets every shard's storage counters.
func (s *Sharded) ResetDiskStats() {
	for _, ix := range s.shards {
		ix.ResetDiskStats()
	}
}

// DropBuffer empties every shard's buffer pool.
func (s *Sharded) DropBuffer() {
	for _, ix := range s.shards {
		ix.DropBuffer()
	}
}

func addStats(a, b storage.Stats) storage.Stats {
	a.Reads += b.Reads
	a.Writes += b.Writes
	a.Allocs += b.Allocs
	a.Frees += b.Frees
	a.Hits += b.Hits
	a.Prefetched += b.Prefetched
	a.IOErrors += b.IOErrors
	a.ChecksumFailures += b.ChecksumFailures
	return a
}

// locate maps a global id to its (shard, local id).
func (s *Sharded) locate(g int64) (int, int64) {
	if s.single() {
		return 0, g
	}
	return ShardOf(g, len(s.shards)), s.local[g]
}

// globalID maps shard sh's local id l back to the global id.
func (s *Sharded) globalID(sh int, l int64) int64 {
	if s.single() {
		return l
	}
	return s.global[sh][l]
}

// fetchGlobal retrieves the record with global id g through its owning
// shard (counting that shard's page I/O), with the ID translated back
// to global. nil, nil marks a deleted record.
func (s *Sharded) fetchGlobal(g int64) (*Record, error) {
	sh, l := s.locate(g)
	r, err := s.shards[sh].fetch(l)
	if r == nil || err != nil {
		return nil, err
	}
	r2 := *r
	r2.ID = g
	return &r2, nil
}

// scatter runs fn once per shard, concurrently, and returns the first
// error in shard order (so error reporting is deterministic).
func (s *Sharded) scatter(fn func(sh int, ix *Index) error) error {
	errs := make([]error, len(s.shards))
	var wg sync.WaitGroup
	for sh := range s.shards {
		wg.Add(1)
		go func(sh int) {
			defer wg.Done()
			errs[sh] = fn(sh, s.shards[sh])
		}(sh)
	}
	wg.Wait()
	for sh, err := range errs {
		if err != nil {
			return fmt.Errorf("shard %d: %w", sh, err)
		}
	}
	return nil
}

// shardQuery returns the query record as shard sh should see it: the
// owning shard receives the query under its local id (NN self-
// exclusion keeps working), every other shard under id -1.
func (s *Sharded) shardQuery(q *Record, sh int) *Record {
	if q.ID < 0 || q.ID >= int64(len(s.local)) {
		return q
	}
	q2 := *q
	if ShardOf(q.ID, len(s.shards)) == sh {
		q2.ID = s.local[q.ID]
	} else {
		q2.ID = -1
	}
	return &q2
}

// MTIndexRange is MTIndexRangeCtx without a trace context.
func (s *Sharded) MTIndexRange(q *Record, ts []transform.Transform, eps float64, opts RangeOptions) ([]Match, QueryStats, error) {
	return s.MTIndexRangeCtx(nil, q, ts, eps, opts)
}

// MTIndexRangeCtx answers a range query scatter-gather: every shard
// runs the unchanged MT-index pipeline (filter, LB cascade, batched
// fetch, early abandoning) over its own tree, concurrently; the
// per-shard answers are translated to global ids and merged into the
// deterministic (RecordID, TransformIdx) order. Statistics sum in
// shard order. With one shard this is a passthrough.
func (s *Sharded) MTIndexRangeCtx(ctx context.Context, q *Record, ts []transform.Transform, eps float64, opts RangeOptions) ([]Match, QueryStats, error) {
	if s.single() {
		return s.shards[0].MTIndexRangeCtx(ctx, q, ts, eps, opts)
	}
	n := len(s.shards)
	matches := make([][]Match, n)
	stats := make([]QueryStats, n)
	err := s.scatter(func(sh int, ix *Index) error {
		o := opts
		o.ShardID, o.ShardTotal = sh, n
		m, st, err := ix.MTIndexRangeCtx(ctx, q, ts, eps, o)
		if err != nil {
			return err
		}
		for i := range m {
			m[i].RecordID = s.globalID(sh, m[i].RecordID)
		}
		matches[sh], stats[sh] = m, st
		return nil
	})
	var st QueryStats
	for _, s := range stats {
		st.Add(s)
	}
	if err != nil {
		return nil, st, err
	}
	var out []Match
	for _, m := range matches {
		out = append(out, m...)
	}
	SortMatches(out)
	return out, st, nil
}

// STIndexRange is STIndexRangeCtx without a trace context.
func (s *Sharded) STIndexRange(q *Record, ts []transform.Transform, eps float64, opts RangeOptions) ([]Match, QueryStats, error) {
	return s.STIndexRangeCtx(nil, q, ts, eps, opts)
}

// STIndexRangeCtx runs the range query with singleton groups (one
// index probe per transformation) on every shard.
func (s *Sharded) STIndexRangeCtx(ctx context.Context, q *Record, ts []transform.Transform, eps float64, opts RangeOptions) ([]Match, QueryStats, error) {
	if s.single() {
		return s.shards[0].STIndexRangeCtx(ctx, q, ts, eps, opts)
	}
	groups := make([][]int, len(ts))
	for i := range ts {
		groups[i] = []int{i}
	}
	opts.Groups = groups
	return s.MTIndexRangeCtx(ctx, q, ts, eps, opts)
}

// MTIndexNN is MTIndexNNCtx without a trace context.
func (s *Sharded) MTIndexNN(q *Record, ts []transform.Transform, k int, oneSided bool) ([]NNMatch, QueryStats, error) {
	return s.MTIndexNNCtx(nil, q, ts, k, oneSided)
}

// MTIndexNNCtx answers a k-NN query scatter-gather: every shard runs
// the unchanged best-first search for its own top k, concurrently; the
// per-shard candidate lists are translated to global ids, merged by
// (distance, id, transform) and truncated to k. The query record is
// handed to its owning shard under its local id so self-exclusion
// matches the single-tree semantics, and as an anonymous query (-1)
// elsewhere. With one shard this is a passthrough.
func (s *Sharded) MTIndexNNCtx(ctx context.Context, q *Record, ts []transform.Transform, k int, oneSided bool) ([]NNMatch, QueryStats, error) {
	if s.single() {
		return s.shards[0].MTIndexNNCtx(ctx, q, ts, k, oneSided)
	}
	n := len(s.shards)
	matches := make([][]NNMatch, n)
	stats := make([]QueryStats, n)
	err := s.scatter(func(sh int, ix *Index) error {
		m, st, err := ix.mtIndexNNShard(ctx, s.shardQuery(q, sh), ts, k, oneSided, sh)
		if err != nil {
			return err
		}
		for i := range m {
			m[i].RecordID = s.globalID(sh, m[i].RecordID)
		}
		matches[sh], stats[sh] = m, st
		return nil
	})
	var st QueryStats
	for _, s := range stats {
		st.Add(s)
	}
	if err != nil {
		return nil, st, err
	}
	var out []NNMatch
	for _, m := range matches {
		out = append(out, m...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Distance != out[j].Distance {
			return out[i].Distance < out[j].Distance
		}
		if out[i].RecordID != out[j].RecordID {
			return out[i].RecordID < out[j].RecordID
		}
		return out[i].TransformIdx < out[j].TransformIdx
	})
	if len(out) > k {
		out = out[:k]
	}
	return out, st, nil
}

// PlanRange is PlanRangeCtx without a trace context.
func (s *Sharded) PlanRange(q *Record, ts []transform.Transform, eps float64, mode QRectMode, params CostParams) (*Plan, error) {
	return s.PlanRangeCtx(nil, q, ts, eps, mode, params)
}

// PlanRangeCtx plans on shard 0 — a plan is a transformation grouping
// plus an algorithm choice, both shard-independent, so one shard's
// sampled probes stand in for all. (At N>1 the absolute cost figures
// describe one shard, i.e. ~1/N of the data; the *relative* ranking of
// the candidate plans, which is all the planner uses, is unaffected.)
func (s *Sharded) PlanRangeCtx(ctx context.Context, q *Record, ts []transform.Transform, eps float64, mode QRectMode, params CostParams) (*Plan, error) {
	return s.shards[0].PlanRangeCtx(ctx, q, ts, eps, mode, params)
}

// STIndexJoin runs the index join with singleton groups on the sharded
// index.
func (s *Sharded) STIndexJoin(ts []transform.Transform, eps float64, opts RangeOptions) ([]JoinMatch, QueryStats, error) {
	if s.single() {
		return s.shards[0].STIndexJoin(ts, eps, opts)
	}
	groups := make([][]int, len(ts))
	for i := range ts {
		groups[i] = []int{i}
	}
	opts.Groups = groups
	return s.MTIndexJoin(ts, eps, opts)
}

// MTIndexJoin answers the transformed join over the sharded index: per
// transformation group, each shard self-joins its own tree and every
// shard pair (s < t) runs a synchronized cross-tree walk, all feeding
// one global candidate-pair set that is verified in deterministic
// (IDA, IDB) order. With one shard this is a passthrough.
func (s *Sharded) MTIndexJoin(ts []transform.Transform, eps float64, opts RangeOptions) ([]JoinMatch, QueryStats, error) {
	if s.single() {
		return s.shards[0].MTIndexJoin(ts, eps, opts)
	}
	if len(ts) == 0 {
		return nil, QueryStats{}, nil
	}
	groups := opts.Groups
	if groups == nil {
		groups = [][]int{identityIndexes(len(ts))}
	}
	n := len(s.shards)
	ix0 := s.shards[0]
	var st QueryStats
	var out []JoinMatch
	for _, g := range groups {
		if len(g) == 0 {
			continue
		}
		sub := make([]transform.Transform, len(g))
		for i, idx := range g {
			if idx < 0 || idx >= len(ts) {
				return nil, st, fmt.Errorf("core: group index %d out of range", idx)
			}
			sub[i] = ts[idx]
		}
		// The lifted MBRs and gap bounds depend only on the transform
		// set and index options, which are identical across shards.
		mult, add := ix0.fullMBRs(sub)
		bounds := ix0.joinBounds(sub, eps, opts.Mode)

		pairs := make(map[[2]int64]bool) // global id pairs, a < b
		addPair := func(shA int, ra int64, shB int, rb int64) {
			ga, gb := s.globalID(shA, ra), s.globalID(shB, rb)
			if ga > gb {
				ga, gb = gb, ga
			}
			pairs[[2]int64{ga, gb}] = true
		}
		for a := 0; a < n; a++ {
			ixa := s.shards[a]
			st.IndexSearches++
			localPairs := make(map[[2]int64]bool)
			if err := ixa.joinWalk(mult, add, bounds, &st, localPairs); err != nil {
				return nil, st, fmt.Errorf("shard %d: %w", a, err)
			}
			for k := range localPairs {
				addPair(a, k[0], a, k[1])
			}
			for b := a + 1; b < n; b++ {
				ixb := s.shards[b]
				st.IndexSearches++
				err := crossJoinWalk(ixa, ixb, mult, add, bounds, &st,
					func(ra, rb int64) { addPair(a, ra, b, rb) })
				if err != nil {
					return nil, st, fmt.Errorf("shards %d x %d: %w", a, b, err)
				}
			}
		}

		keys := make([][2]int64, 0, len(pairs))
		for k := range pairs {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i][0] != keys[j][0] {
				return keys[i][0] < keys[j][0]
			}
			return keys[i][1] < keys[j][1]
		})
		for _, k := range keys {
			a, err := s.fetchGlobal(k[0])
			if err != nil {
				return nil, st, err
			}
			b, err := s.fetchGlobal(k[1])
			if err != nil {
				return nil, st, err
			}
			if a == nil || b == nil { // deleted
				continue
			}
			st.Candidates++
			for i, t := range sub {
				st.Comparisons++
				if d := t.DistancePolar(a.Mags, a.Phases, b.Mags, b.Phases); d <= eps {
					out = append(out, JoinMatch{IDA: a.ID, IDB: b.ID, TransformIdx: g[i], Distance: d})
				}
			}
		}
	}
	return out, st, nil
}

// crossJoinWalk synchronously traverses two distinct shards' trees,
// applying the transformation rectangle to both sides before the gap
// test — joinWalk without the self-pair bookkeeping, since records on
// different shards are always distinct. Qualifying leaf pairs are
// emitted as (local id in A, local id in B).
func crossJoinWalk(ixA, ixB *Index, mult, add geom.Rect, jb joinBounds, st *QueryStats, emit func(ra, rb int64)) error {
	slotsA, slotsB := ixA.Tree().AcquireSlots(), ixB.Tree().AcquireSlots()
	defer slotsA.Release()
	defer slotsB.Release()
	return crossJoinNodes(ixA, ixB, slotsA, slotsB, 0, ixA.Tree().Root(), ixB.Tree().Root(), mult, add, jb, st, emit)
}

// crossJoinNodes joins the subtree at a of shard A with the subtree at b
// of shard B. Each recursion depth holds one node of either tree, in
// slot depth of that tree's slots.
func crossJoinNodes(ixA, ixB *Index, slotsA, slotsB *rtree.Slots, depth int, a, b storage.PageID, mult, add geom.Rect, jb joinBounds, st *QueryStats, emit func(ra, rb int64)) error {
	na, err := ixA.Tree().LoadInto(nil, a, slotsA.At(depth))
	if err != nil {
		return err
	}
	st.DAAll++
	if na.Leaf {
		st.DALeaf++
	}
	nb, err := ixB.Tree().LoadInto(nil, b, slotsB.At(depth))
	if err != nil {
		return err
	}
	st.DAAll++
	if nb.Leaf {
		st.DALeaf++
	}
	if len(na.Entries) == 0 || len(nb.Entries) == 0 {
		return nil // an empty shard joins nothing
	}
	ta := ixA.transformEntries(na, mult, add)
	tb := ixB.transformEntries(nb, mult, add)
	switch {
	case na.Leaf && nb.Leaf:
		for i := range na.Entries {
			for j := range nb.Entries {
				if ixA.joinGapOK(ta[i], tb[j], jb) {
					emit(na.Entries[i].Rec, nb.Entries[j].Rec)
				}
			}
		}
	case !na.Leaf && !nb.Leaf:
		for i := range na.Entries {
			for j := range nb.Entries {
				if ixA.joinGapOK(ta[i], tb[j], jb) {
					if err := crossJoinNodes(ixA, ixB, slotsA, slotsB, depth+1, na.Entries[i].Child, nb.Entries[j].Child, mult, add, jb, st, emit); err != nil {
						return err
					}
				}
			}
		}
	case na.Leaf: // internal b
		for j := range nb.Entries {
			if err := crossJoinNodes(ixA, ixB, slotsA, slotsB, depth+1, a, nb.Entries[j].Child, mult, add, jb, st, emit); err != nil {
				return err
			}
		}
	default: // internal a, leaf b
		for i := range na.Entries {
			if err := crossJoinNodes(ixA, ixB, slotsA, slotsB, depth+1, na.Entries[i].Child, b, mult, add, jb, st, emit); err != nil {
				return err
			}
		}
	}
	return nil
}

// shardPairItem is the sharded analogue of pairItem: each side carries
// its owning shard; resolved record ids are global.
type shardPairItem struct {
	bound    float64
	sa, sb   int
	a, b     storage.PageID
	resolved bool
	ra, rb   int64
}

type shardPairHeap []shardPairItem

func (h shardPairHeap) Len() int            { return len(h) }
func (h shardPairHeap) Less(i, j int) bool  { return h[i].bound < h[j].bound }
func (h shardPairHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *shardPairHeap) Push(x interface{}) { *h = append(*h, x.(shardPairItem)) }
func (h *shardPairHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// MTIndexClosestPairs answers the top-k closest-pairs query over the
// sharded index with one global best-first search: the priority queue
// is seeded with every shard root pair (s <= t) and expands subtree
// pairs — same-shard or cross-shard — in lower-bound order, so the
// search is exact and stops as soon as k pairs beat every remaining
// bound, exactly like the single-tree traversal. With one shard this
// is a passthrough.
func (s *Sharded) MTIndexClosestPairs(ts []transform.Transform, k int) ([]JoinMatch, QueryStats, error) {
	if s.single() {
		return s.shards[0].MTIndexClosestPairs(ts, k)
	}
	var st QueryStats
	if k <= 0 || len(ts) == 0 {
		return nil, st, nil
	}
	ix0 := s.shards[0]
	opts := ix0.Options()
	mult, add := ix0.fullMBRs(ts)
	symFactor := 1.0
	if opts.UseSymmetry {
		symFactor = math.Sqrt2
	}
	lowerBound := func(ya, yb geom.Rect) float64 {
		var ss float64
		for j := 1; j <= opts.K; j++ {
			gap := intervalGap(ya.Lo[2*j], ya.Hi[2*j], yb.Lo[2*j], yb.Hi[2*j])
			ss += gap * gap
		}
		return symFactor * math.Sqrt(ss)
	}

	var results []JoinMatch
	worst := math.Inf(1)
	seen := make(map[[2]int64]bool)
	h := &shardPairHeap{}
	for sa := 0; sa < len(s.shards); sa++ {
		for sb := sa; sb < len(s.shards); sb++ {
			st.IndexSearches++
			heap.Push(h, shardPairItem{sa: sa, sb: sb, a: s.shards[sa].Tree().Root(), b: s.shards[sb].Tree().Root()})
		}
	}
	type cacheKey struct {
		shard int
		page  storage.PageID
	}
	loaded := make(map[cacheKey]*nodeCache)
	// One decode slot per shard tree: a loaded node is copied into its
	// nodeCache at once.
	slots := make([]*rtree.Slots, len(s.shards))
	for sh, ix := range s.shards {
		slots[sh] = ix.Tree().AcquireSlots()
		defer slots[sh].Release()
	}
	// load caches a shard node with its entry rectangles transformed
	// and its record ids already translated to global, so expansion and
	// dedup work in the global id space throughout.
	load := func(sh int, id storage.PageID) (*nodeCache, error) {
		key := cacheKey{sh, id}
		if n, ok := loaded[key]; ok {
			return n, nil
		}
		n, err := s.shards[sh].Tree().LoadInto(nil, id, slots[sh].At(0))
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", sh, err)
		}
		st.DAAll++
		if n.Leaf {
			st.DALeaf++
		}
		nc := &nodeCache{leaf: n.Leaf, rects: make([]geom.Rect, len(n.Entries)), children: make([]storage.PageID, len(n.Entries)), recs: make([]int64, len(n.Entries))}
		for i, e := range n.Entries {
			nc.rects[i] = transform.ApplyMBRs(mult, add, e.Rect)
			nc.children[i] = e.Child
			if n.Leaf {
				nc.recs[i] = s.globalID(sh, e.Rec)
			}
		}
		loaded[key] = nc
		return nc, nil
	}

	for h.Len() > 0 {
		it := heap.Pop(h).(shardPairItem)
		if len(results) == k && it.bound > worst {
			break
		}
		if it.resolved {
			key := [2]int64{it.ra, it.rb}
			if seen[key] {
				continue
			}
			seen[key] = true
			a, err := s.fetchGlobal(it.ra)
			if err != nil {
				return nil, st, err
			}
			b, err := s.fetchGlobal(it.rb)
			if err != nil {
				return nil, st, err
			}
			if a == nil || b == nil {
				continue
			}
			st.Candidates++
			best := JoinMatch{IDA: it.ra, IDB: it.rb, Distance: math.Inf(1)}
			for ti, t := range ts {
				st.Comparisons++
				if d := t.DistancePolar(a.Mags, a.Phases, b.Mags, b.Phases); d < best.Distance {
					best.Distance, best.TransformIdx = d, ti
				}
			}
			results = insertTopK(results, best, k, func(x, y JoinMatch) bool {
				if x.Distance != y.Distance {
					return x.Distance < y.Distance
				}
				if x.IDA != y.IDA {
					return x.IDA < y.IDA
				}
				return x.IDB < y.IDB
			})
			if len(results) == k {
				worst = results[k-1].Distance
			}
			continue
		}
		na, err := load(it.sa, it.a)
		if err != nil {
			return nil, st, err
		}
		nb, err := load(it.sb, it.b)
		if err != nil {
			return nil, st, err
		}
		expandShardPair(h, it, na, nb, lowerBound, worst, len(results) == k)
	}
	return results, st, nil
}

// expandShardPair pushes the children pairs of (na, nb), each side
// tagged with its shard. The self-pair bookkeeping applies only when
// both sides are the same node of the same shard; record ids are
// already global (see load above), so the dedup ordering is global.
func expandShardPair(h *shardPairHeap, it shardPairItem, na, nb *nodeCache, lowerBound func(a, b geom.Rect) float64, worst float64, full bool) {
	if len(na.rects) == 0 || len(nb.rects) == 0 {
		return // an empty shard pairs with nothing
	}
	push := func(lb float64, item shardPairItem) {
		if full && lb > worst {
			return
		}
		item.bound = lb
		heap.Push(h, item)
	}
	same := it.sa == it.sb && it.a == it.b
	switch {
	case na.leaf && nb.leaf:
		for i := range na.rects {
			jStart := 0
			if same {
				jStart = i + 1
			}
			for j := jStart; j < len(nb.rects); j++ {
				ra, rb := na.recs[i], nb.recs[j]
				if ra == rb {
					continue
				}
				if ra > rb {
					ra, rb = rb, ra
				}
				push(lowerBound(na.rects[i], nb.rects[j]), shardPairItem{resolved: true, ra: ra, rb: rb})
			}
		}
	case !na.leaf && !nb.leaf:
		for i := range na.rects {
			jStart := 0
			if same {
				jStart = i // (i, i): pairs within one subtree
			}
			for j := jStart; j < len(nb.rects); j++ {
				push(lowerBound(na.rects[i], nb.rects[j]),
					shardPairItem{sa: it.sa, sb: it.sb, a: na.children[i], b: nb.children[j]})
			}
		}
	case na.leaf: // nb internal
		aMBR := geom.MBRRects(na.rects)
		for j := range nb.rects {
			push(lowerBound(aMBR, nb.rects[j]), shardPairItem{sa: it.sa, sb: it.sb, a: it.a, b: nb.children[j]})
		}
	default: // na internal, nb leaf
		bMBR := geom.MBRRects(nb.rects)
		for i := range na.rects {
			push(lowerBound(na.rects[i], bMBR), shardPairItem{sa: it.sa, sb: it.sb, a: na.children[i], b: it.b})
		}
	}
}

// RawRange answers the raw-distance range query scatter-gather,
// merged into ascending global id order.
func (s *Sharded) RawRange(q *Record, eps float64) ([]RawMatch, QueryStats, error) {
	if s.single() {
		return s.shards[0].RawRange(q, eps)
	}
	n := len(s.shards)
	matches := make([][]RawMatch, n)
	stats := make([]QueryStats, n)
	err := s.scatter(func(sh int, ix *Index) error {
		m, st, err := ix.RawRange(q, eps)
		if err != nil {
			return err
		}
		for i := range m {
			m[i].RecordID = s.globalID(sh, m[i].RecordID)
		}
		matches[sh], stats[sh] = m, st
		return nil
	})
	var st QueryStats
	for _, s := range stats {
		st.Add(s)
	}
	if err != nil {
		return nil, st, err
	}
	var out []RawMatch
	for _, m := range matches {
		out = append(out, m...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].RecordID < out[j].RecordID })
	return out, st, nil
}

// Insert routes a new series to its shard. New ids are assigned
// globally ascending, so the positional (ascending global order)
// invariant of the per-shard layouts is preserved: the new global id is
// the maximum, hence also the last local id of its shard.
func (s *Sharded) Insert(name string, ser series.Series) (int64, error) {
	if s.single() {
		return s.shards[0].Insert(name, ser)
	}
	g := int64(len(s.ds.Records))
	sh := ShardOf(g, len(s.shards))
	l, err := s.shards[sh].Insert(name, ser)
	if err != nil {
		return 0, fmt.Errorf("shard %d: %w", sh, err)
	}
	if l != int64(len(s.global[sh])) {
		return 0, fmt.Errorf("core: shard %d assigned local id %d, layout expects %d", sh, l, len(s.global[sh]))
	}
	s.local = append(s.local, l)
	s.global[sh] = append(s.global[sh], g)
	r := *s.shards[sh].Dataset().Records[l]
	r.ID = g
	s.ds.Records = append(s.ds.Records, &r)
	return g, nil
}

// Delete removes global id g from its shard and tombstones the global
// record (ids are never reused, so the layout stays intact).
func (s *Sharded) Delete(g int64) error {
	if s.single() {
		return s.shards[0].Delete(g)
	}
	if g < 0 || g >= int64(len(s.ds.Records)) || s.ds.Records[g] == nil {
		return fmt.Errorf("core: no record %d", g)
	}
	sh, l := s.locate(g)
	if err := s.shards[sh].Delete(l); err != nil {
		return fmt.Errorf("shard %d: %w", sh, err)
	}
	s.ds.Records[g] = nil
	return nil
}

// Verify checks every shard's structural invariants plus the shard
// layout itself: per-shard record counts must match the partition
// function's assignment and the global dataset must agree with the
// shard-local records.
func (s *Sharded) Verify() error {
	if s.single() {
		return s.shards[0].Verify()
	}
	_, global := shardLayout(int64(len(s.ds.Records)), len(s.shards))
	for sh, ix := range s.shards {
		if err := ix.Verify(); err != nil {
			return fmt.Errorf("shard %d: %w", sh, err)
		}
		if got, want := len(ix.Dataset().Records), len(global[sh]); got != want {
			return fmt.Errorf("core: shard %d holds %d records, partition expects %d", sh, got, want)
		}
		for l, g := range global[sh] {
			lr := ix.Dataset().Records[l]
			gr := s.ds.Records[g]
			if (lr == nil) != (gr == nil) {
				return fmt.Errorf("core: shard %d record %d and global record %d disagree on deletion", sh, l, g)
			}
			if gr != nil && gr.ID != g {
				return fmt.Errorf("core: global record %d carries id %d", g, gr.ID)
			}
		}
	}
	return nil
}

// AvgLeafCapacity returns records per leaf across all shards.
func (s *Sharded) AvgLeafCapacity() (float64, error) {
	if s.single() {
		return s.shards[0].AvgLeafCapacity()
	}
	leaves, records := 0, 0
	for sh, ix := range s.shards {
		err := ix.Tree().Visit(func(n *rtree.Node, level int) error {
			if level == 1 {
				leaves++
			}
			return nil
		})
		if err != nil {
			return 0, fmt.Errorf("shard %d: %w", sh, err)
		}
		records += len(ix.Dataset().Records)
	}
	if leaves == 0 {
		return 0, nil
	}
	return float64(records) / float64(leaves), nil
}

// TreeStats merges the per-shard level statistics leaf-aligned (level
// 1 is the leaf level in every shard): node counts sum, average
// extents combine weighted by node count, and the world rectangle is
// the union. The result feeds the same analytical estimator as the
// single-tree stats.
func (s *Sharded) TreeStats() ([]LevelStats, geom.Rect, error) {
	if s.single() {
		return s.shards[0].TreeStats()
	}
	byLevel := make(map[int]*LevelStats)
	var world geom.Rect
	first := true
	maxLevel := 0
	for sh, ix := range s.shards {
		stats, w, err := ix.TreeStats()
		if err != nil {
			return nil, geom.Rect{}, fmt.Errorf("shard %d: %w", sh, err)
		}
		if len(w.Lo) > 0 {
			if first {
				world = w.Clone()
				first = false
			} else {
				world = world.Union(w)
			}
		}
		for _, ls := range stats {
			m := byLevel[ls.Level]
			if m == nil {
				m = &LevelStats{Level: ls.Level, AvgSide: make([]float64, len(ls.AvgSide))}
				byLevel[ls.Level] = m
			}
			if ls.Level > maxLevel {
				maxLevel = ls.Level
			}
			for d := range ls.AvgSide {
				m.AvgSide[d] += ls.AvgSide[d] * float64(ls.Nodes)
			}
			m.Nodes += ls.Nodes
		}
	}
	out := make([]LevelStats, 0, maxLevel)
	for lvl := maxLevel; lvl >= 1; lvl-- {
		m := byLevel[lvl]
		if m == nil {
			continue
		}
		if m.Nodes > 0 {
			for d := range m.AvgSide {
				m.AvgSide[d] /= float64(m.Nodes)
			}
		}
		out = append(out, *m)
	}
	return out, world, nil
}

// ClusterPartition groups the transformation set by parameter
// clustering; the grouping depends only on the transformations and the
// index options, so shard 0 answers for all.
func (s *Sharded) ClusterPartition(ts []transform.Transform, jumpFactor float64) [][]int {
	return s.shards[0].ClusterPartition(ts, jumpFactor)
}

// ClusterThenEqualPartition is ClusterPartition followed by equal
// splitting, delegated to shard 0 (shard-independent).
func (s *Sharded) ClusterThenEqualPartition(ts []transform.Transform, perGroup int, jumpFactor float64) [][]int {
	return s.shards[0].ClusterThenEqualPartition(ts, perGroup, jumpFactor)
}

// OptimalPartition runs the DP partitioner against shard 0's tree: the
// probe costs it samples describe one shard, but the chosen grouping —
// the only output a caller applies — ranks identically.
func (s *Sharded) OptimalPartition(q *Record, ts []transform.Transform, eps float64, mode QRectMode, params CostParams) ([][]int, float64, error) {
	return s.shards[0].OptimalPartition(q, ts, eps, mode, params)
}

// Health reports the combined and per-shard structural health. With one
// shard the report is exactly the single-index report; with more, the
// top level carries the summed storage counters, the group geometry
// (shard-independent) and a per-shard report in Shards.
func (s *Sharded) Health(ctx context.Context, ts []transform.Transform, groups [][]int) (*HealthReport, error) {
	if s.single() {
		return s.shards[0].Health(ctx, ts, groups)
	}
	opts := s.Options()
	hr := &HealthReport{
		Series:       len(s.ds.Records),
		SeriesLength: s.ds.N,
		K:            opts.K,
		Dim:          2 + 2*opts.K,
		PageSize:     s.PageSize(),
		ShardCount:   len(s.shards),
	}
	for sh, ix := range s.shards {
		shr, err := ix.Health(ctx, nil, nil)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", sh, err)
		}
		hr.Shards = append(hr.Shards, shr)
		hr.Storage = addStats(hr.Storage, shr.Storage)
	}
	gh, err := s.shards[0].groupHealth(ts, groups)
	if err != nil {
		return nil, err
	}
	hr.Groups = gh
	return hr, nil
}
