package core

import (
	"errors"
	"fmt"

	"tsq/internal/series"
	"tsq/internal/storage"
)

// This file implements the query engine: the dataset is partitioned into
// N independent shards by a deterministic hash of the global series id,
// each shard an Index that owns its storage — R*-tree, heap file, buffer
// pool, WAL, storage counters and the idle query buffers — and nothing
// else. Every query shape, statistic and report is a method of the
// engine, written once as a loop over its shards. A range query is one
// fan-out over its (shard, rectangle) pairs, merged into id order; raw
// range is one over the shards; the join (join.go) walks same-shard plus
// pairwise cross-shard; NN (nn.go) and closest pairs (closest.go) are one
// best-first search over every shard's tree. An unsharded database is
// the one-shard case of the same code: no id is translated and nothing is
// re-ordered, a single probe runs on the calling goroutine, the
// cross-shard loops are empty and a search's queue holds one root.

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

// Sharded is the query engine over N independent shards, each an Index.
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
		total += int64(ix.len())
	}
	local, global := shardLayout(total, len(shards))
	for s, ix := range shards {
		if n, n0 := ix.n, shards[0].n; n != n0 {
			return nil, fmt.Errorf("core: shard %d: series length %d, shard 0 has %d", s, n, n0)
		}
		if k, k0 := ix.opts.K, shards[0].opts.K; k != k0 {
			return nil, fmt.Errorf("core: shard %d: k=%d, shard 0 has k=%d", s, k, k0)
		}
		if ix.len() != len(global[s]) {
			return nil, fmt.Errorf("core: shard %d: %d records, partition of %d ids expects %d",
				s, ix.len(), total, len(global[s]))
		}
	}
	return &Sharded{shards: shards, local: local, global: global}, nil
}

// single reports the one-shard layout, which keeps no id mapping (local
// and global ids coincide).
func (s *Sharded) single() bool { return len(s.shards) == 1 }

// shardErr names the failing shard in err; with one shard there is
// nothing to name and the shard's error is the engine's.
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
	return s.shards[0].ds
}

// Len returns the number of global ids handed out, deleted records
// included.
func (s *Sharded) Len() int {
	if s.single() {
		return s.shards[0].len()
	}
	return len(s.local)
}

// SeriesLength returns the common series length.
func (s *Sharded) SeriesLength() int { return s.shards[0].n }

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
// from its page into a point buffer of its shard, which Release gives
// back when the query is done: a query by id costs one page access more
// than an ad-hoc one and, once the shard has served one, no allocation.
type QueryPoint struct {
	// Record is the query point, nil when the id is deleted or was
	// never stored.
	Record *Record
	ix     *Index
	pb     *pointBuf
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
		r, err := s.Record(g)
		return QueryPoint{Record: r}, err
	}
	pb := ix.idlePoints.get()
	r, err := pb.read(ix.heap, l, whole)
	if err != nil || r == nil {
		ix.idlePoints.put(pb)
		return QueryPoint{}, s.shardErr(sh, err)
	}
	r.ID = g
	return QueryPoint{Record: r, ix: ix, pb: pb}, nil
}

// Release gives a paged query point's buffer back; the record must not be
// used afterwards.
func (p QueryPoint) Release() {
	if p.pb != nil {
		p.ix.idlePoints.put(p.pb)
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
func (s *Sharded) Options() IndexOptions { return s.shards[0].opts }

// Paged reports whether the shards are disk-backed.
func (s *Sharded) Paged() bool { return s.shards[0].heap != nil }

// PageSize returns the storage page size (identical across shards).
func (s *Sharded) PageSize() int { return s.shards[0].mgr.PageSize() }

// NumPages sums the allocated pages across shards.
func (s *Sharded) NumPages() int {
	total := 0
	for _, ix := range s.shards {
		total += ix.mgr.NumPages()
	}
	return total
}

// Height returns the maximum tree height across shards.
func (s *Sharded) Height() int {
	h := 0
	for _, ix := range s.shards {
		h = max(h, ix.tree.Height())
	}
	return h
}

// Close closes every shard — folding each shard's WAL first when one
// is attached and healthy — returning the first error but closing all.
func (s *Sharded) Close() error { return s.each((*Index).Close) }

// Checkpoint folds every shard's WAL into its main file (no-op for
// shards without one), returning the first error but attempting all.
func (s *Sharded) Checkpoint() error { return s.each((*Index).checkpoint) }

// each calls f on every shard and returns the first error.
func (s *Sharded) each(f func(*Index) error) error {
	var first error
	for _, ix := range s.shards {
		if err := f(ix); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// DiskStats sums the storage counters across shards.
func (s *Sharded) DiskStats() storage.Stats {
	var total storage.Stats
	for _, ix := range s.shards {
		total = addStats(total, ix.mgr.Stats())
	}
	return total
}

// ResetDiskStats resets every shard's storage counters.
func (s *Sharded) ResetDiskStats() {
	for _, ix := range s.shards {
		ix.mgr.ResetStats()
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

// Insert routes a new series to its shard. New ids are assigned
// globally ascending, so the positional (ascending global order)
// invariant of the per-shard layouts is preserved: the new global id is
// the maximum, hence also the last local id of its shard.
func (s *Sharded) Insert(name string, ser series.Series) (int64, error) {
	if s.single() { // the shard's ids are the global ones
		return s.shards[0].insert(name, ser)
	}
	g := int64(len(s.local))
	sh := ShardOf(g, len(s.shards))
	l, err := s.shards[sh].insert(name, ser)
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
		return s.shards[0].remove(g)
	}
	if g < 0 || g >= int64(len(s.local)) {
		return fmt.Errorf("%w %d", errNoRecord, g)
	}
	sh, l := s.locate(g)
	if err := s.shards[sh].remove(l); err != nil {
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
		if got, want := ix.len(), len(global[sh]); got != want {
			return fmt.Errorf("core: shard %d holds %d records, partition expects %d", sh, got, want)
		}
	}
	return nil
}
