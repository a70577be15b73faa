package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"tsq/internal/geom"
	"tsq/internal/heapfile"
	"tsq/internal/rtree"
	"tsq/internal/series"
	"tsq/internal/storage"
	"tsq/internal/wal"
)

// QRectMode selects how the MT-index query rectangle is built.
type QRectMode int

const (
	// QRectSafe (the default) widens phase dimensions by a provable bound
	// on the angular difference of two complex numbers within the
	// per-coefficient distance, falling back to the full phase range when
	// the interval would wrap across +-pi. With it, the index filter
	// provably admits every qualifying sequence (no false dismissals).
	QRectSafe QRectMode = iota
	// QRectPaper is the paper's construction: a plain eps-width box in
	// every indexed dimension. Phases are not true coordinates of an
	// isometric embedding, so in adversarial cases (coefficients with
	// near-zero magnitude) this can miss matches; on the evaluation
	// workloads it behaves identically and filters slightly better.
	QRectPaper
)

// IndexOptions configures BuildIndex.
type IndexOptions struct {
	// K is the number of DFT coefficients indexed (coefficients 1..K of
	// the normal form). The paper uses 2, giving a 6-dimensional index
	// with the mean and std dimensions. Default 2.
	K int
	// PageSize is the storage page size; storage.DefaultPageSize if zero.
	PageSize int
	// BufferPages enables an LRU buffer pool of that many pages. Zero
	// (default) counts every node fetch as a disk access, the paper's
	// convention.
	BufferPages int
	// UseSymmetry applies the DFT symmetry property (Eq. 6) where it is
	// proven: the mirror coefficient n-f duplicates the distance of
	// coefficient f, shrinking the per-coefficient search bound by sqrt(2)
	// and doubling the prefix bounds, for every transformation group whose
	// members are all classified symmetric (group, newGroup); any other
	// group is filtered without it. False never doubles. Default true
	// (DefaultIndexOptions).
	UseSymmetry bool
	// Paged stores full records in a heap file on the same storage
	// manager, so candidate verification retrieves pages — the Eq. 18
	// "find and retrieve" accounting becomes a real I/O path. Required
	// for persistence.
	Paged bool
	// Manager, when non-nil, supplies the storage manager (e.g. a
	// file-backed one for persistence) instead of a fresh in-memory one.
	Manager *storage.Manager
	// BulkLoad builds the R*-tree with Sort-Tile-Recursive packing
	// instead of repeated insertion: faster to build and near-full nodes
	// (fewer disk accesses per query). The tree remains fully updatable.
	// Every build of the tsq facade packs; insertion is kept for the
	// tests of the insert path.
	BulkLoad bool
}

// statDims is the number of leading feature dimensions, mean and std,
// that the tree carries without organising by them: every predicate
// compares normal forms, so no range, NN or join query constrains them
// (RawRange filters on them and reads more of the tree for it).
const statDims = 2

// DefaultIndexOptions returns the paper's configuration.
func DefaultIndexOptions() IndexOptions {
	return IndexOptions{K: 2, PageSize: storage.DefaultPageSize, UseSymmetry: true}
}

// Index is one shard of the engine: the multidimensional feature index of
// Sec. 5, an R*-tree over [mean, std, |F_1|, angle(F_1), ..., |F_k|,
// angle(F_k)], with the records it indexes and the storage both live on.
// It keeps per-shard state and storage only; the queries over it are the
// engine's (Sharded).
type Index struct {
	// ds holds an in-memory index's records, their only copy. A paged
	// index has none: its records live on their heap pages (source.go).
	ds    *Dataset
	n     int // series length
	opts  IndexOptions
	mgr   *storage.Manager
	tree  *rtree.Tree
	heap  *heapfile.File // non-nil when Paged
	comps []int          // polar component ids of the transform-sensitive dims
	dim   int

	// idleScratch holds the query buffers of finished probes for the next
	// ones, idlePoints those of finished queries by id (see scratch.go).
	idleScratch idle[scratch]
	idlePoints  idle[pointBuf]

	// nnDismissed, when a test sets it, sees every leaf entry of this
	// shard the NN search dismisses by the prefix bound, those still queued
	// when the search stops included, with the k-th best distance in
	// force.
	nnDismissed func(rec int64, worst float64)

	// Online-write state (see write.go). wal and stage are nil for
	// purely in-memory indexes, which mutate directly with in-memory
	// unwind instead of log-then-apply.
	wal          *wal.Log
	stage        *storage.StagedBackend
	walThreshold int64
	readOnly     bool
	failErr      error
}

// BuildIndex constructs the feature index over the dataset. An in-memory
// index keeps ds as its records (and Insert and Delete change it); a
// paged one writes the records to its heap and keeps no reference to ds.
func BuildIndex(ds *Dataset, opts IndexOptions) (*Index, error) {
	if opts.K == 0 {
		opts.K = 2
	}
	if opts.PageSize == 0 {
		opts.PageSize = storage.DefaultPageSize
	}
	if opts.K < 1 || 2*opts.K >= ds.N {
		return nil, fmt.Errorf("core: k=%d out of range for series length %d", opts.K, ds.N)
	}
	mgr := opts.Manager
	if mgr == nil {
		mgr = storage.NewManager(storage.Options{PageSize: opts.PageSize, BufferPages: opts.BufferPages})
	}
	ix := newIndex(opts, mgr, ds.N)
	if !opts.Paged {
		ix.ds = ds
	} else {
		heap, err := heapfile.Create(mgr, ds.N)
		if err != nil {
			return nil, err
		}
		ix.heap = heap
	}
	// The tree packs the items; without any it is empty, and the records
	// it did not pack are inserted. A magnitude's unit is 1 and a phase's
	// the mean magnitude of its coefficient over the items, the arc one
	// radian spans at a typical magnitude: STR cuts the coefficient
	// dimensions into tiles about equal-sided in distance.
	var items []rtree.BulkItem
	units := make([]float64, 2*opts.K)
	if opts.BulkLoad {
		items = make([]rtree.BulkItem, len(ds.Records))
		for i, r := range ds.Records {
			items[i] = rtree.BulkItem{Rect: geom.PointRect(r.Feature(opts.K)), Rec: r.ID}
			for j := 1; j <= opts.K; j++ {
				units[2*j-1] += r.Mags[j] / float64(len(items))
			}
		}
	}
	for j := 0; j < opts.K; j++ {
		units[2*j] = 1
	}
	tree, err := rtree.BulkLoad(mgr, ix.dim, statDims, items, units...)
	if err != nil {
		return nil, err
	}
	ix.tree = tree
	for _, r := range ds.Records[len(items):] {
		if err := tree.InsertPoint(r.Feature(opts.K), r.ID); err != nil {
			return nil, err
		}
	}
	if ix.heap != nil {
		if err := ix.packHeap(ds); err != nil {
			return nil, err
		}
	}
	return ix, nil
}

// packHeap writes the records of ds, which the tree indexes, to the empty
// heap: the verify parts of each leaf's entries side by side, in leaf
// order, cut into pages by the STR tiling of the entries' feature points
// (rtree.Tile), and the raw parts in id order. A range probe's
// candidates cluster in the leaves it reads, so they share pages, and a
// page read serves the ones close to each other in feature space.
func (ix *Index) packHeap(ds *Dataset) error {
	per := ix.heap.VerifyPerPage()
	var pages [][]int
	var entries []rtree.Entry
	err := ix.tree.Visit(func(n *rtree.Node, level int) error {
		if level != 1 {
			return nil
		}
		entries = append(entries[:0], n.Entries...)
		for _, tile := range rtree.Tile(entries, per, statDims) {
			page := make([]int, len(tile))
			for i, e := range tile {
				page[i] = int(e.Rec)
			}
			pages = append(pages, page)
		}
		return nil
	})
	if err != nil {
		return err
	}
	recs := make([]*heapfile.Rec, len(ds.Records))
	for i, r := range ds.Records {
		if r.ID != int64(i) {
			return fmt.Errorf("core: record %d at position %d", r.ID, i)
		}
		recs[i] = recordToHeap(r)
	}
	if err := ix.heap.Pack(recs, pages); err != nil {
		return err
	}
	return ix.heap.Sync()
}

// newIndex returns an index with no tree, heap or records yet.
func newIndex(opts IndexOptions, mgr *storage.Manager, n int) *Index {
	ix := &Index{n: n, opts: opts, mgr: mgr, dim: statDims + 2*opts.K}
	for f := 1; f <= opts.K; f++ {
		ix.comps = append(ix.comps, 2*f, 2*f+1)
	}
	return ix
}

// OpenIndex attaches to an existing paged index: the R*-tree rooted at
// treeMeta and the record heap at heapDir, both on mgr. It reads the heap
// directory and the tree's meta page, and no record.
func OpenIndex(mgr *storage.Manager, treeMeta, heapDir storage.PageID, n int, opts IndexOptions) (*Index, error) {
	if opts.K == 0 {
		opts.K = 2
	}
	opts.Paged = true
	opts.Manager = mgr
	heap, err := heapfile.Open(mgr, heapDir, n)
	if err != nil {
		return nil, err
	}
	tree, err := rtree.Open(mgr, treeMeta, statDims)
	if err != nil {
		return nil, err
	}
	if tree.Dim() != statDims+2*opts.K {
		return nil, fmt.Errorf("core: tree dimension %d does not match k=%d", tree.Dim(), opts.K)
	}
	ix := newIndex(opts, mgr, n)
	ix.tree, ix.heap = tree, heap
	return ix, nil
}

// recordToHeap converts a Record for heap storage.
func recordToHeap(r *Record) *heapfile.Rec {
	return &heapfile.Rec{
		Name: r.Name,
		Mean: r.Mean,
		Std:  r.Std,
		Raw:  r.Raw, Mags: r.Mags, Phases: r.Phases,
	}
}

// errNoRecord is the error of a write naming an id that holds no record.
var errNoRecord = errors.New("core: no record")

// len returns the number of ids the index has handed out, deleted
// records included.
func (ix *Index) len() int {
	if ix.heap != nil {
		return ix.heap.Len()
	}
	return len(ix.ds.Records)
}

// fetch retrieves the whole record of id, which must be below len. In
// paged mode this reads (and counts) the page of the record's raw part,
// the Eq. 18 retrieval, crediting a storage.QueryIO in ctx (nil is
// fine), and rebuilds the record from its series with NewRecord's
// formula; otherwise it returns the in-memory record. A nil result with
// nil error marks a deleted record.
func (ix *Index) fetch(ctx context.Context, id int64) (*Record, error) {
	if ix.heap == nil {
		return ix.ds.Record(id), nil
	}
	hr, err := ix.heap.ReadCtx(ctx, id)
	if err != nil || hr == nil {
		return nil, err
	}
	return NewRecord(id, hr.Name, hr.Raw), nil
}

// pointBuf holds the query point of a query by id on a paged index
// (Sharded.QueryPoint) as read from its page: the record, the one-page
// fetch state and the transform buffer a whole record is rebuilt with.
// Each shard keeps its idle ones apart from its probes' scratches, so a
// query by id holds one scratch, its probe's, and a small buffer.
type pointBuf struct {
	rec   Record
	ids   []int64
	fetch heapfile.Scratch
	spec  []complex128
}

// read decodes record id of heap into pb: its verify part — mean, std
// and the half spectrum symmetric sums read — or, when whole, the record
// rebuilt from its raw part. One page access, and no allocation once pb
// has held a record before. It returns nil for a deleted record.
func (pb *pointBuf) read(heap *heapfile.File, id int64, whole bool) (*Record, error) {
	var r *Record
	p := &pb.rec
	pb.ids = append(pb.ids[:0], id)
	if whole {
		err := heap.VisitRaw(nil, pb.ids, &pb.fetch, func(_ int, v *heapfile.RawView) error {
			if v != nil {
				pb.spec, r = p.rebuild(id, v.Raw, pb.spec), p
			}
			return nil
		})
		return r, err
	}
	err := heap.Visit(nil, pb.ids, &pb.fetch, func(_ int, v *heapfile.View) error {
		if v != nil {
			p.Raw, p.Norm = p.Raw[:0], p.Norm[:0]
			p.Mags = append(p.Mags[:0], v.Mags...)
			p.Phases = append(p.Phases[:0], v.Phases...)
			p.ID, p.Mean, p.Std = id, v.Mean, v.Std
			r = p
		}
		return nil
	})
	return r, err
}

// feature returns the feature point of live record id as the tree
// indexes it, nil for a deleted record: in memory the record's, paged
// the one its verify part holds, read into a point buffer.
func (ix *Index) feature(id int64) (geom.Point, error) {
	var r *Record
	if ix.heap == nil {
		r = ix.ds.Record(id)
	} else {
		pb := ix.idlePoints.get()
		defer ix.idlePoints.put(pb)
		var err error
		if r, err = pb.read(ix.heap, id, false); err != nil {
			return nil, err
		}
	}
	if r == nil {
		return nil, nil
	}
	return r.Feature(ix.opts.K), nil
}

// insert adds a new series to the dataset, the heap (when paged) and the
// tree, returning its id. With a WAL attached the mutation is staged,
// logged, and only then applied to the file (write.go); without one it
// mutates in place but unwinds on partial failure, so a failed insert
// never leaves an orphaned heap record.
func (ix *Index) insert(name string, s series.Series) (int64, error) {
	if err := ix.checkWritable(); err != nil {
		return 0, err
	}
	if len(s) != ix.n {
		return 0, fmt.Errorf("core: inserting series of length %d into dataset of length %d", len(s), ix.n)
	}
	id := int64(ix.len())
	if err := checkFinite(s); err != nil { // before the WAL sees the record
		return 0, fmt.Errorf("core: series %d: %w", id, err)
	}
	r := NewRecord(id, name, s)
	if ix.wal != nil && ix.stage != nil {
		if err := ix.insertStaged(r, name, s); err != nil {
			return 0, err
		}
	} else if err := ix.insertDirect(r); err != nil {
		return 0, err
	}
	if ix.ds != nil {
		ix.ds.Records = append(ix.ds.Records, r)
	}
	return id, nil
}

// insertDirect applies an insert straight to the heap and tree (no WAL).
// The tree insertion runs between the heap append and the directory
// sync: if it fails, the append is unwound before anything references
// the new page, and only an unwind failure — in-memory state now
// unknown — fail-stops the index.
func (ix *Index) insertDirect(r *Record) error {
	if ix.heap != nil {
		rec, err := ix.heap.Append(recordToHeap(r))
		if err != nil {
			return err
		}
		if rec != r.ID {
			return fmt.Errorf("core: heap record %d for id %d", rec, r.ID)
		}
		if err := ix.tree.InsertPoint(r.Feature(ix.opts.K), r.ID); err != nil {
			if uerr := ix.heap.Unappend(rec); uerr != nil {
				ix.failStop(fmt.Errorf("unwinding insert of record %d: %v (after %w)", r.ID, uerr, err))
			}
			return err
		}
		if err := ix.heap.Sync(); err != nil {
			if uerr := ix.tree.Delete(geom.PointRect(r.Feature(ix.opts.K)), r.ID); uerr != nil {
				ix.failStop(fmt.Errorf("unwinding insert of record %d: %v (after %w)", r.ID, uerr, err))
			} else if uerr := ix.heap.Unappend(rec); uerr != nil {
				ix.failStop(fmt.Errorf("unwinding insert of record %d: %v (after %w)", r.ID, uerr, err))
			}
			return err
		}
		return nil
	}
	return ix.tree.InsertPoint(r.Feature(ix.opts.K), r.ID)
}

// remove deletes series id from the index and marks its record deleted
// (the heap pages, if any, are left in place). A paged index reads the
// record's verify part for the feature it removes from the tree. With a WAL
// attached the mutation is staged and logged first (write.go); without
// one, a heap tombstone failure restores the just-removed tree entry so
// the record never becomes unreachable-but-live.
func (ix *Index) remove(id int64) error {
	if err := ix.checkWritable(); err != nil {
		return err
	}
	var feat geom.Point
	var err error
	if id >= 0 && id < int64(ix.len()) {
		feat, err = ix.feature(id)
	}
	if err != nil {
		return err
	}
	if feat == nil {
		return fmt.Errorf("%w %d", errNoRecord, id)
	}
	if ix.wal != nil && ix.stage != nil {
		if err := ix.deleteStaged(id, feat); err != nil {
			return err
		}
	} else if err := ix.deleteDirect(id, feat); err != nil {
		return err
	}
	if ix.ds != nil {
		ix.ds.Records[id] = nil
	}
	return nil
}

// deleteDirect applies a delete straight to the tree and heap (no WAL),
// re-inserting the tree entry if the heap tombstone fails.
func (ix *Index) deleteDirect(id int64, feat geom.Point) error {
	if err := ix.tree.Delete(geom.PointRect(feat), id); err != nil {
		return err
	}
	if ix.heap != nil {
		if err := ix.heap.Delete(id); err != nil {
			if rerr := ix.tree.InsertPoint(feat, id); rerr != nil {
				ix.failStop(fmt.Errorf("restoring index entry %d: %v (after %w)", id, rerr, err))
			}
			return err
		}
	}
	return nil
}

// Manager returns the storage manager backing the index.
func (ix *Index) Manager() *storage.Manager { return ix.mgr }

// Heap returns the record heap (nil unless paged).
func (ix *Index) Heap() *heapfile.File { return ix.heap }

// Tree exposes the underlying R*-tree (read-only use).
func (ix *Index) Tree() *rtree.Tree { return ix.tree }

// rectIn returns the rectangle whose low corner is the first half of buf
// and whose high corner is the second.
func rectIn(buf []float64) geom.Rect {
	dim := len(buf) / 2
	return geom.Rect{Lo: buf[:dim:dim], Hi: buf[dim:]}
}

// queryRect builds the search region for a two-sided group g: the
// bounding box of the transformed query features {t(q)}, expanded per
// dimension by the per-coefficient distance bound epsC (epsScale under
// the group's symmetry factor) on magnitudes, and either the same
// (QRectPaper) or the provable angular bound (QRectSafe) on phases. The
// mean and std dimensions are unconstrained: the predicate is on normal
// forms (Sec. 3.2), so the originals' statistics must not filter; so is a
// coefficient the group's box may not constrain (group.boxes). The
// corners are buf's 2·dim floats.
func (ix *Index) queryRect(q *Record, g *group, epsC float64, mode QRectMode, buf []float64) geom.Rect {
	r := rectIn(buf)
	lo, hi := r.Lo, r.Hi
	for d := range lo {
		lo[d], hi[d] = math.Inf(-1), math.Inf(1)
	}
	for j := 1; j <= ix.opts.K; j++ {
		if !g.boxes(j) {
			continue
		}
		magDim, phDim := 2*j, 2*j+1
		qm, qp := q.Mags[j], q.Phases[j]
		// Transformed query magnitude and phase spans over the group.
		mLo, mHi := math.Inf(1), math.Inf(-1)
		pLo, pHi := math.Inf(1), math.Inf(-1)
		bLo, bHi := math.Inf(1), math.Inf(-1)
		for _, t := range g.ts {
			mv := t.A[2*j]*qm + t.B[2*j]
			pv := t.A[2*j+1]*qp + t.B[2*j+1]
			mLo, mHi = math.Min(mLo, mv), math.Max(mHi, mv)
			pLo, pHi = math.Min(pLo, pv), math.Max(pHi, pv)
			bLo, bHi = math.Min(bLo, t.B[2*j+1]), math.Max(bHi, t.B[2*j+1])
		}
		lo[magDim], hi[magDim] = mLo-epsC, mHi+epsC

		pb := epsC // paper mode: plain box
		if mode == QRectSafe {
			pb = phaseBound(epsC, mLo)
		}
		if mode == QRectSafe && (pb >= math.Pi || qp+pb > math.Pi || qp-pb < -math.Pi) {
			// The acceptance interval wraps across the branch cut; admit
			// the full phase range shifted by the group's additive span.
			lo[phDim], hi[phDim] = bLo-math.Pi, bHi+math.Pi
		} else {
			lo[phDim], hi[phDim] = pLo-pb, pHi+pb
		}
	}
	return r
}

// oneSidedQueryRect builds the search region for a one-sided group g
// (the literal Algorithm 1: find s with D(t(s), q) <= eps for some t in
// the rectangle): a box around the query's own features — the paper's
// "search rectangle of width eps around q" — with the per-coefficient
// bound epsC on magnitudes and phases, and unconstrained where the
// group's box may not constrain (group.boxes). It also reports which
// dimensions are phases, because the transformed data-side phase values
// are unwrapped and must be compared modulo 2*pi (see intersectsModular).
// The corners are buf's 2·dim floats, and phaseDims, dim long, is filled.
func (ix *Index) oneSidedQueryRect(q *Record, g *group, epsC float64, mode QRectMode, buf []float64, phaseDims []bool) geom.Rect {
	qrect := rectIn(buf)
	lo, hi := qrect.Lo, qrect.Hi
	clear(phaseDims)
	for d := range lo {
		lo[d], hi[d] = math.Inf(-1), math.Inf(1)
	}
	for j := 1; j <= ix.opts.K; j++ {
		phaseDims[2*j+1] = true
		if !g.boxes(j) {
			continue
		}
		qm, qp := q.Mags[j], q.Phases[j]
		lo[2*j], hi[2*j] = qm-epsC, qm+epsC
		pb := epsC
		if mode == QRectSafe {
			pb = phaseBound(epsC, qm)
		}
		lo[2*j+1], hi[2*j+1] = qp-pb, qp+pb
	}
	return qrect
}

// intersectsModular reports whether the rectangles intersect when phase
// dimensions are interpreted modulo 2*pi: transformed data phases are
// unwrapped linear values (raw phase plus the additive span of the
// transformation rectangle), so a data interval may match the query
// interval only after a translation by a multiple of 2*pi (wrapMeets).
func intersectsModular(data, query geom.Rect, phaseDims []bool) bool {
	for d := range data.Lo {
		if !phaseDims[d] {
			if data.Lo[d] > query.Hi[d] || query.Lo[d] > data.Hi[d] {
				return false
			}
			continue
		}
		if !wrapMeets(data.Lo[d], data.Hi[d], query.Lo[d], query.Hi[d]) {
			return false
		}
	}
	return true
}

// phaseBound returns a bound on the angular difference between two complex
// numbers u, v with |u - v| <= epsC and |v| >= magLo: both magnitudes are
// then at least m = magLo - epsC, and for fixed angle delta the chord is
// at least 2*m*sin(delta/2), so delta <= 2*asin(epsC/(2m)). Returns pi
// (no information) when m <= epsC/2... i.e. whenever the asin argument
// reaches 1 or the magnitudes may vanish.
func phaseBound(epsC, magLo float64) float64 {
	m := magLo - epsC
	if m <= 0 {
		return math.Pi
	}
	arg := epsC / (2 * m)
	if arg >= 1 {
		return math.Pi
	}
	return 2 * math.Asin(arg)
}

// Verify performs a full integrity check of the index and record store:
// R*-tree structural invariants and agreement between the tree's leaf
// entries and the records — every live record indexed exactly once, at
// exactly the feature point its record computes, and no entry naming a
// deleted or missing record. A paged index checks its heap file against
// its tree directly, reading and checking every page of verify parts,
// whose features the tree must hold, and every page of raw parts, whose
// liveness must agree. It returns the first problem found.
func (ix *Index) Verify() error {
	if err := ix.tree.CheckInvariants(); err != nil {
		return err
	}
	// Collect every leaf entry.
	type entryInfo struct {
		count int
		pt    geom.Point
	}
	indexed := make(map[int64]entryInfo)
	err := ix.tree.Visit(func(n *rtree.Node, level int) error {
		if level != 1 {
			return nil
		}
		for _, e := range n.Entries {
			info := indexed[e.Rec]
			info.count++
			info.pt = e.Rect.Lo.Clone() // the node is gone after the callback
			indexed[e.Rec] = info
		}
		return nil
	})
	if err != nil {
		return err
	}
	// Every live record — its verify part read page by page from a heap
	// file, every page checked — is indexed exactly once, at the feature
	// it computes.
	// The one-shard engine over ix visits its records by their local ids.
	one := WrapIndex(ix)
	live, nlive := make([]bool, ix.len()), 0
	err = one.visit(nil, 0, len(live), new(scanBuf), func(r *Record) error {
		live[r.ID] = true
		nlive++
		info, ok := indexed[r.ID]
		switch {
		case !ok:
			// An insert that appended the record and failed before the
			// tree, or a delete that removed the entry and never
			// tombstoned the page.
			return fmt.Errorf("core: record %d missing from the index — orphaned append or delete", r.ID)
		case info.count != 1:
			return fmt.Errorf("core: record %d indexed %d times", r.ID, info.count)
		}
		feat := r.Feature(ix.opts.K)
		for d := range feat {
			if feat[d] != info.pt[d] {
				return fmt.Errorf("core: record %d feature dim %d: index has %v, record computes %v", r.ID, d, info.pt[d], feat[d])
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	// Every raw part decodes, and a record is live in both parts or in
	// neither.
	if ix.heap != nil {
		rawLive := make([]bool, len(live))
		err = one.visit(nil, 0, len(live), &scanBuf{whole: true}, func(r *Record) error {
			rawLive[r.ID] = true
			return nil
		})
		if err != nil {
			return err
		}
		for id := range live {
			if live[id] != rawLive[id] {
				return fmt.Errorf("core: record %d is live in its verify part (%v) but not in its raw part, or the reverse", id, live[id])
			}
		}
	}
	// Every entry names a live record: the lowest one that does not is
	// reported.
	bad, found := int64(0), false
	for rec := range indexed {
		if (rec < 0 || rec >= int64(len(live)) || !live[rec]) && (!found || rec < bad) {
			bad, found = rec, true
		}
	}
	if found {
		return fmt.Errorf("core: index holds %d entries for %d live records: record %d is deleted or was never stored — orphaned append or delete",
			len(indexed), nlive, bad)
	}
	return nil
}
