package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"tsq/internal/geom"
	"tsq/internal/heapfile"
	"tsq/internal/rtree"
	"tsq/internal/series"
	"tsq/internal/storage"
	"tsq/internal/transform"
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
	// members are all classified symmetric (Index.symmetry); any other
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
	BulkLoad bool
}

// DefaultIndexOptions returns the paper's configuration.
func DefaultIndexOptions() IndexOptions {
	return IndexOptions{K: 2, PageSize: storage.DefaultPageSize, UseSymmetry: true}
}

// Index is the multidimensional feature index of Sec. 5: an R*-tree over
// [mean, std, |F_1|, angle(F_1), ..., |F_k|, angle(F_k)].
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

	// idleScratch holds the query buffers of finished range probes for
	// the next ones (see scratch.go).
	scratchMu   sync.Mutex
	idleScratch []*scratch

	// nnDismissed, when a test sets it, sees every leaf entry MTIndexNN
	// dismisses by the prefix bound, with the k-th best distance in
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
		for _, r := range ds.Records {
			rec, err := heap.Append(recordToHeap(r))
			if err != nil {
				return nil, err
			}
			if rec != r.ID {
				return nil, fmt.Errorf("core: heap record %d for id %d", rec, r.ID)
			}
		}
		if err := heap.Sync(); err != nil {
			return nil, err
		}
	}
	if opts.BulkLoad {
		items := make([]rtree.BulkItem, len(ds.Records))
		for i, r := range ds.Records {
			items[i] = rtree.BulkItem{Rect: geom.PointRect(r.Feature(opts.K)), Rec: r.ID}
		}
		tree, err := rtree.BulkLoad(mgr, ix.dim, items)
		if err != nil {
			return nil, err
		}
		ix.tree = tree
		return ix, nil
	}
	tree, err := rtree.New(mgr, ix.dim)
	if err != nil {
		return nil, err
	}
	ix.tree = tree
	for _, r := range ds.Records {
		if err := tree.InsertPoint(r.Feature(opts.K), r.ID); err != nil {
			return nil, err
		}
	}
	return ix, nil
}

// newIndex returns an index with no tree, heap or records yet.
func newIndex(opts IndexOptions, mgr *storage.Manager, n int) *Index {
	ix := &Index{n: n, opts: opts, mgr: mgr, dim: 2 + 2*opts.K}
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
	tree, err := rtree.Open(mgr, treeMeta)
	if err != nil {
		return nil, err
	}
	if tree.Dim() != 2+2*opts.K {
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

// heapToRecord rebuilds a Record from an owned heap record, taking over
// its arrays. The normal form is recomputed from the raw series and
// statistics with series.NormalForm's formula, so it is bit-identical to
// the one the record was built with.
func heapToRecord(id int64, hr *heapfile.Rec) *Record {
	norm := make(series.Series, len(hr.Raw))
	if hr.Std != 0 {
		for i, v := range hr.Raw {
			norm[i] = (v - hr.Mean) / hr.Std
		}
	}
	return &Record{
		ID:   id,
		Name: hr.Name,
		Raw:  series.Series(hr.Raw),
		Norm: norm,
		Mean: hr.Mean,
		Std:  hr.Std,
		Mags: hr.Mags, Phases: hr.Phases,
	}
}

// errNoRecord is the error of a write naming an id that holds no record.
var errNoRecord = errors.New("core: no record")

// Len returns the number of ids the index has handed out, deleted
// records included.
func (ix *Index) Len() int {
	if ix.heap != nil {
		return ix.heap.Len()
	}
	return len(ix.ds.Records)
}

// SeriesLength returns the common series length.
func (ix *Index) SeriesLength() int { return ix.n }

// Record returns record id, or nil when it is deleted or was never
// stored. In memory that is the stored record, which the caller must not
// modify; a paged index decodes a copy from the record's page, one page
// access.
func (ix *Index) Record(id int64) (*Record, error) {
	if id < 0 || id >= int64(ix.Len()) {
		return nil, nil
	}
	return ix.fetch(nil, id)
}

// fetch retrieves the full record of id, which must be below Len. In
// paged mode this reads (and counts) one record page, the Eq. 18
// retrieval, crediting a storage.QueryIO in ctx (nil is fine); otherwise
// it returns the in-memory record. A nil result with nil error marks a
// deleted record.
func (ix *Index) fetch(ctx context.Context, id int64) (*Record, error) {
	if ix.heap == nil {
		return ix.ds.Record(id), nil
	}
	hr, err := ix.heap.ReadCtx(ctx, id)
	if err != nil || hr == nil {
		return nil, err
	}
	return heapToRecord(id, hr), nil
}

// point decodes record id into sc.point, the query point of a query by
// id (Sharded.QueryPoint): one page access, and no allocation once sc
// has held a record before. It returns nil for a tombstone.
func (ix *Index) point(sc *scratch, id int64) (*Record, error) {
	var r *Record
	sc.ids = append(sc.ids[:0], id)
	err := ix.heap.Visit(nil, sc.ids, &sc.fetch, func(_ int, v *heapfile.View) error {
		if v == nil {
			return nil
		}
		p := &sc.point
		p.Raw = append(p.Raw[:0], v.Raw...)
		p.Mags = append(p.Mags[:0], v.Mags...)
		p.Phases = append(p.Phases[:0], v.Phases...)
		p.ID, p.Mean, p.Std = id, v.Mean, v.Std
		r = p
		return nil
	})
	return r, err
}

// Insert adds a new series to the dataset, the heap (when paged) and the
// tree, returning its id. With a WAL attached the mutation is staged,
// logged, and only then applied to the file (write.go); without one it
// mutates in place but unwinds on partial failure, so a failed insert
// never leaves an orphaned heap record.
func (ix *Index) Insert(name string, s series.Series) (int64, error) {
	if err := ix.checkWritable(); err != nil {
		return 0, err
	}
	if len(s) != ix.n {
		return 0, fmt.Errorf("core: inserting series of length %d into dataset of length %d", len(s), ix.n)
	}
	id := int64(ix.Len())
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

// Delete removes series id from the index and marks its record deleted
// (the heap page, if any, is left in place). A paged index reads the
// record's page for the feature it removes from the tree. With a WAL
// attached the mutation is staged and logged first (write.go); without
// one, a heap tombstone failure restores the just-removed tree entry so
// the record never becomes unreachable-but-live.
func (ix *Index) Delete(id int64) error {
	if err := ix.checkWritable(); err != nil {
		return err
	}
	r, err := ix.Record(id)
	if err != nil {
		return err
	}
	if r == nil {
		return fmt.Errorf("%w %d", errNoRecord, id)
	}
	if ix.wal != nil && ix.stage != nil {
		if err := ix.deleteStaged(r); err != nil {
			return err
		}
	} else if err := ix.deleteDirect(r); err != nil {
		return err
	}
	if ix.ds != nil {
		ix.ds.Records[id] = nil
	}
	return nil
}

// deleteDirect applies a delete straight to the tree and heap (no WAL),
// re-inserting the tree entry if the heap tombstone fails.
func (ix *Index) deleteDirect(r *Record) error {
	feat := r.Feature(ix.opts.K)
	if err := ix.tree.Delete(geom.PointRect(feat), r.ID); err != nil {
		return err
	}
	if ix.heap != nil {
		if err := ix.heap.Delete(r.ID); err != nil {
			if rerr := ix.tree.InsertPoint(feat, r.ID); rerr != nil {
				ix.failStop(fmt.Errorf("restoring index entry %d: %v (after %w)", r.ID, rerr, err))
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

// Dataset returns the records of an in-memory index, nil for a paged one,
// whose records are on their heap pages only.
func (ix *Index) Dataset() *Dataset { return ix.ds }

// Options returns the build options.
func (ix *Index) Options() IndexOptions { return ix.opts }

// Tree exposes the underlying R*-tree (read-only use).
func (ix *Index) Tree() *rtree.Tree { return ix.tree }

// DiskStats returns the storage counters accumulated so far.
func (ix *Index) DiskStats() storage.Stats { return ix.mgr.Stats() }

// ResetDiskStats zeroes the storage counters.
func (ix *Index) ResetDiskStats() { ix.mgr.ResetStats() }

// DropBuffer empties the buffer pool (no-op without one).
func (ix *Index) DropBuffer() { ix.mgr.DropBuffer() }

// fullMBRs lifts the transformation MBRs of the given transforms to index
// dimensionality: the mean and std dimensions are untouched by
// transformations (identity), the DFT dimensions carry the mult-/add-MBR
// of Sec. 4.1. The corners are buf's 4·dim floats, mult's then add's, or
// new ones when buf is nil.
func (ix *Index) fullMBRs(ts []transform.Transform, buf []float64) (mult, add geom.Rect) {
	if buf == nil {
		buf = make([]float64, 4*ix.dim)
	}
	mult, add = rectIn(buf[:2*ix.dim]), rectIn(buf[2*ix.dim:])
	transform.MBRs(geom.Rect{Lo: mult.Lo[2:], Hi: mult.Hi[2:]}, geom.Rect{Lo: add.Lo[2:], Hi: add.Hi[2:]}, ts, ix.comps)
	for d := 0; d < 2; d++ {
		mult.Lo[d], mult.Hi[d] = 1, 1
		add.Lo[d], add.Hi[d] = 0, 0
	}
	return mult, add
}

// rectIn returns the rectangle whose low corner is the first half of buf
// and whose high corner is the second.
func rectIn(buf []float64) geom.Rect {
	dim := len(buf) / 2
	return geom.Rect{Lo: buf[:dim:dim], Hi: buf[dim:]}
}

// symmetry decides the symmetry factor of a transformation group: 2 when
// the index was built with UseSymmetry and every member of sub is
// classified as acting alike on mirror coefficients under the predicate's
// sidedness (transform.Transform.Symmetric), so that on spectra of real
// series term n-f of the distance equals term f and a squared sum over
// the indexed coefficients 1..K may be doubled (and eps shrunk by sqrt(2)
// per coefficient, epsScale); 1 otherwise. It is the only reader of
// UseSymmetry. A struct literal, a hand-made asymmetric vector or a set
// TransformQuery returned in full order (its query point is no real
// spectrum) gets 1, and so does a group mixing one with built-ins. The
// raw, untransformed spectra of RawRange ask with no transformation.
func (ix *Index) symmetry(sub []transform.Transform, oneSided bool) float64 {
	if !ix.opts.UseSymmetry {
		return 1
	}
	for _, t := range sub {
		if !t.Symmetric(oneSided) {
			return 1
		}
	}
	return 2
}

// queryRect builds the search region for one transformation group: the
// bounding box of the transformed query features {t(q)}, expanded per
// dimension by the per-coefficient distance bound epsC (epsScale under
// the group's symmetry factor) on magnitudes, and either the same
// (QRectPaper) or the provable angular bound (QRectSafe) on phases. The
// mean and std dimensions are unconstrained: the predicate is on normal
// forms (Sec. 3.2), so the originals' statistics must not filter. The
// corners are buf's 2·dim floats.
func (ix *Index) queryRect(q *Record, ts []transform.Transform, epsC float64, mode QRectMode, buf []float64) geom.Rect {
	r := rectIn(buf)
	lo, hi := r.Lo, r.Hi
	lo[0], hi[0] = math.Inf(-1), math.Inf(1)
	lo[1], hi[1] = math.Inf(-1), math.Inf(1)
	for j := 1; j <= ix.opts.K; j++ {
		magDim, phDim := 2*j, 2*j+1
		qm, qp := q.Mags[j], q.Phases[j]
		// Transformed query magnitude and phase spans over the group.
		mLo, mHi := math.Inf(1), math.Inf(-1)
		pLo, pHi := math.Inf(1), math.Inf(-1)
		bLo, bHi := math.Inf(1), math.Inf(-1)
		for _, t := range ts {
			mv := t.A[2*j]*qm + t.B[2*j]
			pv := t.A[2*j+1]*qp + t.B[2*j+1]
			mLo, mHi = math.Min(mLo, mv), math.Max(mHi, mv)
			pLo, pHi = math.Min(pLo, pv), math.Max(pHi, pv)
			bLo, bHi = math.Min(bLo, t.B[2*j+1]), math.Max(bHi, t.B[2*j+1])
		}
		lo[magDim], hi[magDim] = mLo-epsC, mHi+epsC

		g := epsC // paper mode: plain box
		if mode == QRectSafe {
			g = phaseBound(epsC, mLo)
		}
		if mode == QRectSafe && (g >= math.Pi || qp+g > math.Pi || qp-g < -math.Pi) {
			// The acceptance interval wraps across the branch cut; admit
			// the full phase range shifted by the group's additive span.
			lo[phDim], hi[phDim] = bLo-math.Pi, bHi+math.Pi
		} else {
			lo[phDim], hi[phDim] = pLo-g, pHi+g
		}
	}
	return r
}

// intervalSafe reports whether the query rectangle may constrain
// coefficient j for every member of ts. Its test compares signed
// transformed magnitudes and unwrapped transformed phases, interval with
// interval, which bounds the distance of two complex numbers only while
// their magnitudes cannot differ in sign: one-sided, the query's own
// magnitude is never negative, so no map a·m + b may be negative for an
// m >= 0; two-sided, none may change sign. Two-sided, a phase multiplier
// above 1 in absolute value wraps a phase difference more than once,
// which the branch-cut test does not see. Every built-in passes; a
// hand-made map that fails leaves the coefficient unconstrained, and the
// bound on index rectangles, which handles both, still prunes.
func intervalSafe(ts []transform.Transform, j int, oneSided bool) bool {
	for _, t := range ts {
		a, b := t.A[2*j], t.B[2*j]
		if oneSided && (a < 0 || b < 0) || !oneSided && (a*b < 0 || math.Abs(t.A[2*j+1]) > 1) {
			return false
		}
	}
	return true
}

// oneSidedQueryRect builds the search region for the one-sided semantics
// (the literal Algorithm 1: find s with D(t(s), q) <= eps for some t in
// the rectangle): a box around the query's own features — the paper's
// "search rectangle of width eps around q" — with the per-coefficient
// bound epsC on magnitudes and phases. It also reports which dimensions
// are phases, because the transformed data-side phase values are
// unwrapped and must be compared modulo 2*pi (see intersectsModular).
// The corners are buf's 2·dim floats, and phaseDims, dim long, is filled.
func (ix *Index) oneSidedQueryRect(q *Record, epsC float64, mode QRectMode, buf []float64, phaseDims []bool) geom.Rect {
	qrect := rectIn(buf)
	lo, hi := qrect.Lo, qrect.Hi
	clear(phaseDims)
	lo[0], hi[0] = math.Inf(-1), math.Inf(1)
	lo[1], hi[1] = math.Inf(-1), math.Inf(1)
	for j := 1; j <= ix.opts.K; j++ {
		qm, qp := q.Mags[j], q.Phases[j]
		lo[2*j], hi[2*j] = qm-epsC, qm+epsC
		g := epsC
		if mode == QRectSafe {
			g = phaseBound(epsC, qm)
		}
		lo[2*j+1], hi[2*j+1] = qp-g, qp+g
		phaseDims[2*j+1] = true
	}
	return qrect
}

// intersectsModular reports whether the rectangles intersect when phase
// dimensions are interpreted modulo 2*pi: transformed data phases are
// unwrapped linear values (raw phase plus the additive span of the
// transformation rectangle), so a data interval may match the query
// interval only after a +-2*pi (or +-4*pi) translation.
func intersectsModular(data, query geom.Rect, phaseDims []bool) bool {
	const twoPi = 2 * math.Pi
	for d := range data.Lo {
		if !phaseDims[d] {
			if data.Lo[d] > query.Hi[d] || query.Lo[d] > data.Hi[d] {
				return false
			}
			continue
		}
		ok := false
		for k := -2.0; k <= 2.0; k++ {
			shift := k * twoPi
			if data.Lo[d]+shift <= query.Hi[d] && query.Lo[d] <= data.Hi[d]+shift {
				ok = true
				break
			}
		}
		if !ok {
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
// its tree directly, reading and checksumming every record page. It
// returns the first problem found.
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
	// Every live record — read page by page from a heap file, every page
	// decoded and checksummed — is indexed exactly once, at the feature
	// it computes.
	live, nlive := make([]bool, ix.Len()), 0
	err = ix.visit(nil, 0, len(live), new(scanBuf), func(r *Record) error {
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
