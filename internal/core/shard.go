package core

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"tsq/internal/geom"
	"tsq/internal/rtree"
	"tsq/internal/series"
	"tsq/internal/storage"
	"tsq/internal/transform"
)

// This file implements the query engine: the dataset is partitioned into
// N independent shards by a deterministic hash of the global series id,
// each shard an Index owning its own R*-tree, heap file, buffer pool and
// storage counters. Shards are built in parallel. Range and raw-range
// probes are scatter-gather with a deterministic merge into id order; the
// join (join.go) walks same-shard plus pairwise cross-shard; NN (nn.go)
// and closest pairs (closest.go) are one best-first search over every
// shard's tree, with one queue and one k-th best. An unsharded database
// is the one-shard case of the same code, not a separate path: the gather
// calls the one stage on the calling goroutine and hands back its answer,
// the cross-shard loops are empty, a search's queue holds one root, and
// no id is translated, so one shard does exactly the work — same matches,
// same statistics, same spans, same page reads — of the bare Index.

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
// partitioning happens at build time, before any delete. One shard (n
// <= 1) is ds itself, not a copy.
func PartitionDataset(ds *Dataset, n int) ([]*Dataset, error) {
	if n <= 1 {
		return []*Dataset{ds}, nil
	}
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

// Sharded is the query engine over N independent feature indexes, each
// Index the per-shard stage of the range shapes and one of the trees the
// NN and closest-pairs searches cover.
// The tsq facade always talks to a Sharded.
type Sharded struct {
	shards []*Index
	// local[g] is global id g's id within shard ShardOf(g, n); nil at
	// one shard, where local and global ids coincide. Its length is the
	// number of global ids. The records themselves are the shards'.
	local []int64
	// global[s][l] is the global id of shard s's record l.
	global [][]int64
}

// WrapIndex presents a single Index as the one-shard engine, sharing its
// records.
func WrapIndex(ix *Index) *Sharded {
	return &Sharded{shards: []*Index{ix}}
}

// BuildSharded partitions the dataset into nshards shards and builds
// their indexes in parallel, one goroutine per shard. opts applies to
// every shard; opts.Manager must be nil for a multi-shard build (each
// shard owns its own manager and buffer pool).
func BuildSharded(ds *Dataset, nshards int, opts IndexOptions) (*Sharded, error) {
	if nshards <= 1 {
		// One shard indexes ds itself rather than a partition's copy of it.
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
	err = ParallelFor(nshards, nshards, func(s int) (err error) {
		if shards[s], err = BuildIndex(locals[s], opts); err != nil {
			return fmt.Errorf("core: build shard %d: %w", s, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	local, global := shardLayout(int64(len(ds.Records)), nshards)
	return &Sharded{shards: shards, local: local, global: global}, nil
}

// AssembleShards reassembles a Sharded from independently opened
// per-shard indexes (the persistence layer's open path). The id mapping
// is re-derived from the shard record counts; a count that contradicts
// the partition function is a corruption and names the offending shard.
func AssembleShards(shards []*Index) (*Sharded, error) {
	if len(shards) == 1 {
		return WrapIndex(shards[0]), nil
	}
	var total int64
	for _, ix := range shards {
		total += int64(ix.Len())
	}
	local, global := shardLayout(total, len(shards))
	for s, ix := range shards {
		if n, n0 := ix.SeriesLength(), shards[0].SeriesLength(); n != n0 {
			return nil, fmt.Errorf("core: shard %d: series length %d, shard 0 has %d", s, n, n0)
		}
		if ix.Options().K != shards[0].Options().K {
			return nil, fmt.Errorf("core: shard %d: k=%d, shard 0 has k=%d", s, ix.Options().K, shards[0].Options().K)
		}
		if ix.Len() != len(global[s]) {
			return nil, fmt.Errorf("core: shard %d: %d records, partition of %d ids expects %d",
				s, ix.Len(), total, len(global[s]))
		}
	}
	return &Sharded{shards: shards, local: local, global: global}, nil
}

// single reports the one-shard layout, which keeps no id mapping (local
// and global ids coincide).
func (s *Sharded) single() bool { return len(s.shards) == 1 }

// shardErr names the failing shard in err; with one shard there is
// nothing to name and the stage's error is the engine's.
func (s *Sharded) shardErr(sh int, err error) error {
	if err == nil || len(s.shards) == 1 {
		return err
	}
	return fmt.Errorf("shard %d: %w", sh, err)
}

// ShardCount returns the number of shards (1 for an unsharded DB).
func (s *Sharded) ShardCount() int { return len(s.shards) }

// Shard returns shard i's index.
func (s *Sharded) Shard(i int) *Index { return s.shards[i] }

// Dataset returns the records of a one-shard in-memory engine, which are
// its shard's own. It is nil for a paged engine, which keeps no record in
// memory, and for more than one shard, where each shard numbers its
// records locally: Record reads any record by global id, and the engine
// is the RecordSource of a sequential scan.
func (s *Sharded) Dataset() *Dataset {
	if !s.single() {
		return nil
	}
	return s.shards[0].Dataset()
}

// Len returns the number of global ids handed out, deleted records
// included.
func (s *Sharded) Len() int {
	if s.single() {
		return s.shards[0].Len()
	}
	return len(s.local)
}

// SeriesLength returns the common series length.
func (s *Sharded) SeriesLength() int { return s.shards[0].SeriesLength() }

// Record returns the record with global id g, named by g, or nil when it
// is deleted or was never stored. It is a copy decoded from its page on
// a paged engine (one page access); in memory it shares the stored
// record's arrays, which the caller must not modify.
func (s *Sharded) Record(g int64) (*Record, error) {
	if g < 0 || g >= int64(s.Len()) {
		return nil, nil
	}
	sh, l := s.locate(g)
	r, err := s.shards[sh].fetch(nil, l)
	if err != nil || r == nil || s.single() {
		return r, s.shardErr(sh, err)
	}
	c := *r
	c.ID = g
	return &c, nil
}

// Series returns the name and the original series of global id g, or
// nil when it is deleted or was never stored. On a paged engine that is
// its raw part, one page access and no spectrum computed; the series is
// the caller's. In memory it is the stored record's, which the caller
// must not modify.
func (s *Sharded) Series(g int64) (string, series.Series, error) {
	if g < 0 || g >= int64(s.Len()) {
		return "", nil, nil
	}
	sh, l := s.locate(g)
	ix := s.shards[sh]
	if ix.heap == nil {
		if r := ix.ds.Record(l); r != nil {
			return r.Name, r.Raw, nil
		}
		return "", nil, nil
	}
	hr, err := ix.heap.Read(l)
	if err != nil || hr == nil {
		return "", nil, s.shardErr(sh, err)
	}
	return hr.Name, hr.Raw, nil
}

// QueryPoint is a stored record serving as the query point of one query
// by id. In memory it is the stored record itself (a copy named by its
// global id at more than one shard). On a paged engine it is decoded
// from its page into a scratch of its shard's pool, which Release gives
// back when the query is done: a query by id costs one page access more
// than an ad-hoc one and, once the pool is warm, no allocation.
type QueryPoint struct {
	// Record is the query point, nil when the id is deleted or was
	// never stored.
	Record *Record
	ix     *Index
	sc     *scratch
}

// QueryPoint returns record g as a query point. On a paged engine that
// is its verify part, which serves every query whose transformations
// are all symmetric for its sidedness (WholeSpectrum reports false), or,
// when whole, the record rebuilt from its series. The caller must
// Release it, and must not modify it.
func (s *Sharded) QueryPoint(g int64, whole bool) (QueryPoint, error) {
	if g < 0 || g >= int64(s.Len()) {
		return QueryPoint{}, nil
	}
	sh, l := s.locate(g)
	ix := s.shards[sh]
	if ix.heap == nil {
		r := ix.ds.Record(l)
		if r != nil && !s.single() {
			c := *r
			c.ID = g
			r = &c
		}
		return QueryPoint{Record: r}, nil
	}
	sc := ix.acquireScratch()
	r, err := ix.point(sc, l, whole)
	if err != nil || r == nil {
		ix.releaseScratch(sc)
		return QueryPoint{}, s.shardErr(sh, err)
	}
	r.ID = g
	return QueryPoint{Record: r, ix: ix, sc: sc}, nil
}

// Release gives a paged query point's buffer back; the record must not be
// used afterwards.
func (p QueryPoint) Release() {
	if p.sc != nil {
		p.ix.releaseScratch(p.sc)
	}
}

// RecordsOnPage returns the global ids of the records of shard sh with a
// part on its heap page id, none on an in-memory engine, so a damaged
// page can be named by what it holds.
func (s *Sharded) RecordsOnPage(sh int, id storage.PageID) []int64 {
	heap := s.shards[sh].heap
	if heap == nil {
		return nil
	}
	recs := heap.RecordsOn(id)
	for i, l := range recs {
		recs[i] = s.globalID(sh, l)
	}
	return recs
}

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
	if s.single() { // no mapping kept: the ids coincide
		return 0, g
	}
	return ShardOf(g, len(s.shards)), s.local[g]
}

// globalID maps shard sh's local id l back to the global id.
func (s *Sharded) globalID(sh int, l int64) int64 {
	if s.single() { // no mapping kept: the ids coincide
		return l
	}
	return s.global[sh][l]
}

// probe is one scatter-gather range query as a per-shard stage receives
// it. It travels by value and the stages are plain functions, not
// closures over the query's arguments: a closure handed to gather would
// escape to the heap on every query, including the one-shard ones that
// fork nothing.
type probe struct {
	ctx  context.Context
	q    *Record
	ts   []transform.Transform
	eps  float64 // threshold of a range or raw-range probe
	opts RangeOptions
}

// gather is the engine's one scatter-gather: run stage on every shard
// concurrently, translate the answers' shard-local record ids (reached
// through id) to global ones, sum the statistics in shard order,
// concatenate and put the whole in order. Each shard's probe spans carry
// the shard tag. The first error in shard order wins and names its shard.
//
// One shard is the degenerate case: its stage runs on the calling
// goroutine and its answer, statistics and error are the engine's as
// they stand — nothing to translate, sum or re-order.
func gather[T any](s *Sharded, p probe, stage func(*Index, probe) ([]T, QueryStats, error), id func(*T) *int64, order func([]T)) ([]T, QueryStats, error) {
	n := len(s.shards)
	if n == 1 {
		return stage(s.shards[0], p)
	}
	parts := make([][]T, n)
	stats := make([]QueryStats, n)
	shared := p // what the goroutines capture; p stays on the one-shard caller's stack
	err := ParallelFor(n, n, func(sh int) (err error) {
		p := shared
		p.opts.ShardID, p.opts.ShardTotal = sh, n
		parts[sh], stats[sh], err = stage(s.shards[sh], p)
		for i := range parts[sh] {
			rec := id(&parts[sh][i])
			*rec = s.globalID(sh, *rec)
		}
		return s.shardErr(sh, err)
	})
	var st QueryStats
	var out []T
	for sh := range parts {
		st.Add(stats[sh])
		out = append(out, parts[sh]...)
	}
	if err != nil {
		return nil, st, err
	}
	order(out)
	return out, st, nil
}

// MTIndexRange answers a range query scatter-gather: every shard runs
// the MT-index pipeline (filter, LB cascade, batched fetch, early
// abandoning) over its own tree, and the answers merge into
// (RecordID, TransformIdx) order. See Index.MTIndexRange for ctx.
func (s *Sharded) MTIndexRange(ctx context.Context, q *Record, ts []transform.Transform, eps float64, opts RangeOptions) ([]Match, QueryStats, error) {
	return gather(s, probe{ctx: ctx, q: q, ts: ts, eps: eps, opts: opts},
		func(ix *Index, p probe) ([]Match, QueryStats, error) {
			return ix.MTIndexRange(p.ctx, p.q, p.ts, p.eps, p.opts)
		},
		func(m *Match) *int64 { return &m.RecordID }, SortMatches)
}

// STIndexRange runs the range query with singleton groups (one index
// probe per transformation) on every shard.
func (s *Sharded) STIndexRange(ctx context.Context, q *Record, ts []transform.Transform, eps float64, opts RangeOptions) ([]Match, QueryStats, error) {
	opts.Groups = SingletonGroups(len(ts))
	return s.MTIndexRange(ctx, q, ts, eps, opts)
}

// RawRange answers the raw-distance range query scatter-gather, merged
// into ascending global id order.
func (s *Sharded) RawRange(q *Record, eps float64) ([]RawMatch, QueryStats, error) {
	return gather(s, probe{q: q, eps: eps},
		func(ix *Index, p probe) ([]RawMatch, QueryStats, error) { return ix.RawRange(p.q, p.eps) },
		func(m *RawMatch) *int64 { return &m.RecordID },
		func(ms []RawMatch) {
			sort.Slice(ms, func(i, j int) bool { return ms[i].RecordID < ms[j].RecordID })
		})
}

// PlanRange plans on shard 0 — a plan is a transformation grouping
// plus an algorithm choice, both shard-independent, so one shard's
// sampled probes stand in for all. (At N>1 the absolute cost figures
// describe one shard, i.e. ~1/N of the data; the *relative* ranking of
// the candidate plans, which is all the planner uses, is unaffected.)
func (s *Sharded) PlanRange(ctx context.Context, q *Record, ts []transform.Transform, eps float64, opts RangeOptions, params CostParams) (*Plan, error) {
	return s.shards[0].PlanRange(ctx, q, ts, eps, opts, params)
}

// Insert routes a new series to its shard. New ids are assigned
// globally ascending, so the positional (ascending global order)
// invariant of the per-shard layouts is preserved: the new global id is
// the maximum, hence also the last local id of its shard.
func (s *Sharded) Insert(name string, ser series.Series) (int64, error) {
	if s.single() { // the shard's ids are the global ones
		return s.shards[0].Insert(name, ser)
	}
	g := int64(len(s.local))
	sh := ShardOf(g, len(s.shards))
	l, err := s.shards[sh].Insert(name, ser)
	if err != nil {
		return 0, s.shardErr(sh, err)
	}
	if l != int64(len(s.global[sh])) {
		return 0, fmt.Errorf("core: shard %d assigned local id %d, layout expects %d", sh, l, len(s.global[sh]))
	}
	s.local = append(s.local, l)
	s.global[sh] = append(s.global[sh], g)
	return g, nil
}

// Delete removes global id g from its shard, which tombstones its record
// (ids are never reused, so the layout stays intact). An id that holds no
// record is named by its global id, as at one shard.
func (s *Sharded) Delete(g int64) error {
	if s.single() { // the shard's ids are the global ones
		return s.shards[0].Delete(g)
	}
	if g < 0 || g >= int64(len(s.local)) {
		return fmt.Errorf("%w %d", errNoRecord, g)
	}
	sh, l := s.locate(g)
	if err := s.shards[sh].Delete(l); err != nil {
		if errors.Is(err, errNoRecord) {
			return fmt.Errorf("%w %d", errNoRecord, g)
		}
		return s.shardErr(sh, err)
	}
	return nil
}

// Verify checks every shard's structural invariants plus the shard
// layout itself: per-shard record counts must match the partition
// function's assignment.
func (s *Sharded) Verify() error {
	_, global := shardLayout(int64(s.Len()), len(s.shards))
	for sh, ix := range s.shards {
		if err := ix.Verify(); err != nil {
			return s.shardErr(sh, err)
		}
		if got, want := ix.Len(), len(global[sh]); got != want {
			return fmt.Errorf("core: shard %d holds %d records, partition expects %d", sh, got, want)
		}
	}
	return nil
}

// AvgLeafCapacity returns records per leaf across all shards.
func (s *Sharded) AvgLeafCapacity() (float64, error) {
	leaves, records := 0, 0
	for sh, ix := range s.shards {
		err := ix.Tree().Visit(func(n *rtree.Node, level int) error {
			if level == 1 {
				leaves++
			}
			return nil
		})
		if err != nil {
			return 0, s.shardErr(sh, err)
		}
		records += ix.Len()
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
	if s.single() { // a weighted mean of one, (x*n)/n, need not round back to x
		return s.shards[0].TreeStats()
	}
	byLevel := make(map[int]*LevelStats)
	var world geom.Rect
	first := true
	maxLevel := 0
	for sh, ix := range s.shards {
		stats, w, err := ix.TreeStats()
		if err != nil {
			return nil, geom.Rect{}, s.shardErr(sh, err)
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
	if s.single() { // the classic report has no per-shard sub-reports
		return s.shards[0].Health(ctx, ts, groups)
	}
	opts := s.Options()
	hr := &HealthReport{
		Series:       s.Len(),
		SeriesLength: s.SeriesLength(),
		K:            opts.K,
		Dim:          2 + 2*opts.K,
		PageSize:     s.PageSize(),
		ShardCount:   len(s.shards),
	}
	for sh, ix := range s.shards {
		shr, err := ix.Health(ctx, nil, nil)
		if err != nil {
			return nil, s.shardErr(sh, err)
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
