package rtree

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"tsq/internal/geom"
	"tsq/internal/storage"
)

// reinsertFraction is the R*-tree forced-reinsertion parameter p: on the
// first overflow at a level, the 30% of entries farthest from the node
// center are removed and reinserted.
const reinsertFraction = 0.3

// minFillFraction is the minimum node fill m as a fraction of capacity M
// (the R*-tree paper recommends 40%).
const minFillFraction = 0.4

// Tree is a disk-resident R*-tree. Writes need exclusive access; any
// number of read traversals may run concurrently with each other, each
// decoding into its own Slots.
type Tree struct {
	mgr *storage.Manager
	meta
	maxE, minE         int // M and m of an internal node
	leafMaxE, leafMinE int // M and m of a leaf: more entries when they are points
	// carried is the number of leading dimensions the tree stores but does
	// not organise by: ChooseSubtree, the split and forced reinsertion
	// measure only the dimensions from carried on, and bulk loading slices
	// only those. Bounding rectangles, searches and the checks cover every
	// dimension. It is not stored: it decides where a new entry goes,
	// never how a page is read.
	carried int
	metaID  storage.PageID
	buf     []byte       // scratch page buffer for writes outside an operation
	ovf     splitScratch // buffers of the split and reinsert decisions
	ws      writeSet     // the pages of the running Insert or Delete
	// write holds the decode slots of the write path, one per level, and
	// path the root-to-target path an insertion or deletion is working
	// on. Both are valid until the next choosePath or findLeaf: writes
	// are exclusive, and an insertion that starts another (forced
	// reinsertion, a deletion's orphans) is done with its own path by
	// then. A node modified in a slot is stored before the next path is
	// loaded, which reloads it from the write set.
	write []*Scratch
	path  []pathElem

	// idleSlots holds the decode slots of finished traversals for the
	// next ones. The pool belongs to the tree because a slot is sized
	// for one page size and dimensionality: a pool shared by the process
	// would hand a slot to a tree it does not fit.
	slotMu    sync.Mutex
	idleSlots []*Slots
}

// maxIdleSlots bounds what a burst of concurrent traversals leaves
// behind in a tree's pool (a set is about 45 KB at 4 KiB pages and
// height 3); traversals beyond it allocate their slots and drop them.
const maxIdleSlots = 32

// ErrNotPoint is returned when a rectangle with extent is inserted into a
// tree whose leaves store points.
var ErrNotPoint = errors.New("rtree: rectangle with extent inserted into a tree of points")

// New creates an empty tree of the given dimensionality on mgr whose
// leaves store points. It organises by every dimension; BulkLoad with no
// items makes an empty tree that carries some.
func New(mgr *storage.Manager, dim int) (*Tree, error) {
	return create(mgr, meta{leafKind: kindPointLeaf, dim: dim}, 0)
}

// NewRectLeaves creates an empty tree whose leaves store rectangles with
// extent, such as the bounding boxes of sub-trails.
func NewRectLeaves(mgr *storage.Manager, dim int) (*Tree, error) {
	return create(mgr, meta{leafKind: kindRectLeaf, dim: dim}, 0)
}

// create allocates the meta page and an empty root leaf of a new tree.
func create(mgr *storage.Manager, m meta, carried int) (*Tree, error) {
	t, err := newTree(mgr, m, carried)
	if err != nil {
		return nil, err
	}
	if t.metaID, err = mgr.Alloc(); err != nil {
		return nil, err
	}
	if t.root, err = mgr.Alloc(); err != nil {
		return nil, err
	}
	t.height = 1
	if err := t.store(&Node{ID: t.root, Leaf: true}); err != nil {
		return nil, err
	}
	if err := t.writeMeta(); err != nil {
		return nil, err
	}
	return t, nil
}

// newTree returns the in-memory tree described by m, with the capacities
// of its two kinds of node, carrying the first carried dimensions.
func newTree(mgr *storage.Manager, m meta, carried int) (*Tree, error) {
	if carried < 0 || carried >= m.dim {
		return nil, fmt.Errorf("rtree: %d carried dimensions leave none of %d to organise by", carried, m.dim)
	}
	maxE := MaxEntries(mgr.PageSize(), m.dim)
	if maxE < 4 {
		return nil, fmt.Errorf("rtree: page size %d too small for dimension %d (capacity %d)", mgr.PageSize(), m.dim, maxE)
	}
	leafMaxE := maxE
	if m.leafKind == kindPointLeaf {
		leafMaxE = MaxPointEntries(mgr.PageSize(), m.dim)
	}
	return &Tree{
		mgr:  mgr,
		meta: m,
		maxE: maxE, minE: minFill(maxE),
		leafMaxE: leafMaxE, leafMinE: minFill(leafMaxE),
		carried: carried,
		buf:     make([]byte, mgr.PageSize()),
	}, nil
}

func minFill(maxE int) int { return max(2, int(minFillFraction*float64(maxE))) }

// Open loads an existing tree whose meta page is metaID. Its leaves store
// points or rectangles as the meta page says. The entries it places from
// now on are placed by the dimensions after the first carried; the file
// does not record how its existing entries were placed, and reads the
// same either way.
func Open(mgr *storage.Manager, metaID storage.PageID, carried int) (*Tree, error) {
	buf := make([]byte, mgr.PageSize())
	if err := mgr.Read(metaID, buf); err != nil {
		return nil, fmt.Errorf("rtree: reading meta page %d: %w", metaID, err)
	}
	m, err := decodeMeta(buf)
	if err != nil {
		return nil, fmt.Errorf("rtree: meta page %d: %w", metaID, err)
	}
	t, err := newTree(mgr, m, carried)
	if err != nil {
		return nil, fmt.Errorf("rtree: meta page %d: %w", metaID, err)
	}
	t.metaID = metaID
	return t, nil
}

// MetaID returns the id of the tree's metadata page (needed to Open it).
func (t *Tree) MetaID() storage.PageID { return t.metaID }

// Dim returns the dimensionality of the indexed rectangles.
func (t *Tree) Dim() int { return t.dim }

// Root returns the root page id.
func (t *Tree) Root() storage.PageID { return t.root }

// Height returns the tree height; 1 means the root is a leaf.
func (t *Tree) Height() int { return t.height }

// Len returns the number of stored records.
func (t *Tree) Len() int64 { return t.size }

// Capacity returns (m, M), the minimum and maximum entries, of a leaf or
// of an internal node. It is the only reader of the capacities: every
// overflow, split, condense and check asks it for the node at hand.
func (t *Tree) Capacity(leaf bool) (int, int) {
	if leaf {
		return t.leafMinE, t.leafMaxE
	}
	return t.minE, t.maxE
}

// Load reads and decodes one node. Each call costs one page access, which
// is how the experiments count disk accesses. The node is the caller's to
// keep and modify; the checks go through Load. Read traversals use
// LoadInto or LoadView. Insert and Delete read through their write set
// instead (writeSet), which reads each page once per operation.
func (t *Tree) Load(id storage.PageID) (*Node, error) {
	return t.LoadInto(nil, id, newScratch(t.mgr.PageSize(), t.dim))
}

// LoadInto reads and decodes one node into the slot s, allocating
// nothing. It costs the same one page access through the storage manager
// as Load and verifies the same checksum. The returned node is valid
// until the next LoadInto on s; copy what must outlive it.
func (t *Tree) LoadInto(ctx context.Context, id storage.PageID, s *Scratch) (*Node, error) {
	if err := t.read(ctx, id, s); err != nil {
		return nil, err
	}
	return s.decode(id)
}

// LoadView reads one node into the slot s like LoadInto, with the same
// page access and the same checks, but a leaf is not decoded: it comes
// back as a view of the slot's page (node nil). An internal node is
// decoded (leaf nil). Either is valid until the next load into s. The
// range filter and the NN search read their leaves this way.
func (t *Tree) LoadView(ctx context.Context, id storage.PageID, s *Scratch) (node *Node, leaf *PointLeaf, err error) {
	if err := t.read(ctx, id, s); err != nil {
		return nil, nil, err
	}
	return s.view(id)
}

// read reads page id into the slot's page buffer, emptying the slot on
// error.
func (t *Tree) read(ctx context.Context, id storage.PageID, s *Scratch) error {
	if s.dim != t.dim || len(s.page) != t.mgr.PageSize() {
		panic(fmt.Sprintf("rtree: decode slot for %d-byte pages of dimension %d used on a tree with %d-byte pages of dimension %d",
			len(s.page), s.dim, t.mgr.PageSize(), t.dim))
	}
	if err := t.mgr.ReadCtx(ctx, id, s.page); err != nil {
		s.node, s.leaf = Node{}, PointLeaf{}
		return err
	}
	return nil
}

// Slots is the set of decode slots of one read traversal, indexed by the
// traversal's own numbering. A depth-first walk uses one slot per level,
// because the parent is still being iterated while a child is read; a
// best-first walk consumes each node before loading the next and uses
// one; a synchronized join holds two nodes per level.
type Slots struct {
	t     *Tree
	slots []*Scratch
}

// AcquireSlots returns the decode slots for one traversal of t, reusing
// an idle set when there is one. The traversal owns them until Release.
func (t *Tree) AcquireSlots() *Slots {
	t.slotMu.Lock()
	defer t.slotMu.Unlock()
	if n := len(t.idleSlots); n > 0 {
		s := t.idleSlots[n-1]
		t.idleSlots = t.idleSlots[:n-1]
		return s
	}
	return &Slots{t: t}
}

// At returns slot i, making it on first use.
func (s *Slots) At(i int) *Scratch {
	for len(s.slots) <= i {
		s.slots = append(s.slots, newScratch(s.t.mgr.PageSize(), s.t.dim))
	}
	return s.slots[i]
}

// Release hands the slots back to the tree. Every node loaded into them
// is invalid from here on.
func (s *Slots) Release() {
	t := s.t
	t.slotMu.Lock()
	defer t.slotMu.Unlock()
	if len(t.idleSlots) < maxIdleSlots {
		t.idleSlots = append(t.idleSlots, s)
	}
}

// store encodes n into its page: into the running operation's write set,
// or straight to the manager outside an operation (building a tree).
func (t *Tree) store(n *Node) error {
	if _, maxE := t.Capacity(n.Leaf); len(n.Entries) > maxE {
		return fmt.Errorf("rtree: storing overfull node %d (%d > %d)", n.ID, len(n.Entries), maxE)
	}
	kind := kindInternal
	if n.Leaf {
		kind = t.leafKind
	}
	return t.encode(n.ID, func(buf []byte) { encodeNode(n, kind, t.dim, buf) })
}

func (t *Tree) writeMeta() error {
	return t.encode(t.metaID, func(buf []byte) {
		clear(buf)
		encodeMeta(buf, t.meta)
	})
}

// encode has enc fill the page id, the way store describes.
func (t *Tree) encode(id storage.PageID, enc func([]byte)) error {
	if !t.ws.open {
		enc(t.buf)
		return t.mgr.Write(id, t.buf)
	}
	p, _ := t.page(id)
	enc(p.page)
	p.dirty = true
	return nil
}

// Reload re-reads the meta page and restores the in-memory root,
// height, and size from it. Callers use it after rolling back the
// backing store underneath an open tree (an aborted staged mutation):
// the durable meta page is the pre-mutation state, and Reload discards
// whatever the failed operation left in the struct.
func (t *Tree) Reload() error {
	buf := make([]byte, t.mgr.PageSize())
	if err := t.mgr.Read(t.metaID, buf); err != nil {
		return fmt.Errorf("rtree: reloading meta page %d: %w", t.metaID, err)
	}
	m, err := decodeMeta(buf)
	if err != nil {
		return fmt.Errorf("rtree: reloading meta page %d: %w", t.metaID, err)
	}
	if m.dim != t.dim || m.leafKind != t.leafKind {
		return fmt.Errorf("rtree: reloading meta page %d: dimension or leaf kind changed", t.metaID)
	}
	t.meta = m
	return nil
}

// Insert adds a rectangle with the given record id. The tree copies r. A
// tree of points takes only rectangles without extent (ErrNotPoint).
func (t *Tree) Insert(r geom.Rect, rec int64) error {
	if err := t.fits(r); err != nil {
		return err
	}
	t.begin()
	return t.end(t.insert(Entry{Rect: r, Rec: rec}))
}

// insert is the body of Insert, run as one operation (writeSet).
func (t *Tree) insert(e Entry) error {
	if err := t.insertAtLevel(e, 1, new(levelSet)); err != nil {
		return err
	}
	t.size++
	return t.writeMeta()
}

// fits checks that r can be a leaf entry of the tree.
func (t *Tree) fits(r geom.Rect) error {
	if r.Dim() != t.dim {
		return fmt.Errorf("rtree: inserting %d-dimensional rect into %d-dimensional tree", r.Dim(), t.dim)
	}
	for d := 0; t.leafKind == kindPointLeaf && d < t.dim; d++ {
		if math.Float64bits(r.Lo[d]) != math.Float64bits(r.Hi[d]) {
			return fmt.Errorf("%w: %v", ErrNotPoint, r)
		}
	}
	return nil
}

// levelSet tracks, per level, whether forced reinsertion already ran
// during one insertion (the R* rule: reinsert only once per level). It is
// indexed by level, not sized by the height, because a root split during
// reinsertion can grow the height mid-insert; with at least two entries
// per node a tree of int64 records is never 64 levels high.
type levelSet [64]bool

// InsertPoint adds a point with the given record id.
func (t *Tree) InsertPoint(p geom.Point, rec int64) error {
	return t.Insert(geom.Rect{Lo: p, Hi: p}, rec)
}

// insertAtLevel inserts entry e at the given level (1 = leaf). The entry's
// Child must be set when level > 1. e's rectangle is copied, and must not
// live in a write slot: choosePath reloads them.
func (t *Tree) insertAtLevel(e Entry, level int, overflowed *levelSet) error {
	path, err := t.choosePath(e.Rect, level)
	if err != nil {
		return err
	}
	path[len(path)-1].slot.push(e)
	return t.handleOverflowAndAdjust(path, level, overflowed)
}

// pathElem is one step of a root-to-target path. slot is the write slot
// node lives in.
type pathElem struct {
	node     *Node
	slot     *Scratch
	entryIdx int // index within the parent's entries (undefined for root)
}

// choosePath descends from the root to a node at the target level (1 =
// leaf) using the R* ChooseSubtree criteria, returning the full path. The
// path and its nodes are the tree's (see Tree.write).
func (t *Tree) choosePath(r geom.Rect, targetLevel int) ([]pathElem, error) {
	id := t.root
	level := t.height
	path := t.path[:0]
	entryIdx := -1
	for {
		slot := t.writeSlot(len(path))
		n, err := t.loadOp(id, slot)
		if err != nil {
			return nil, err
		}
		path = append(path, pathElem{node: n, slot: slot, entryIdx: entryIdx})
		if level == targetLevel {
			t.path = path
			return path, nil
		}
		if n.Leaf {
			return nil, fmt.Errorf("rtree: reached leaf above target level %d", targetLevel)
		}
		if level-1 == 1 {
			entryIdx = chooseLeastOverlap(n.Entries, r, t.carried)
		} else {
			entryIdx = chooseLeastEnlargement(n.Entries, r, t.carried)
		}
		id = n.Entries[entryIdx].Child
		level--
	}
}

// writeSlot returns the write slot of path depth i, making it on first
// use.
func (t *Tree) writeSlot(i int) *Scratch {
	for len(t.write) <= i {
		t.write = append(t.write, newScratch(t.mgr.PageSize(), t.dim))
	}
	return t.write[i]
}

// chooseLeastOverlap implements the R* leaf-level choice: the child whose
// overlap with its siblings grows least; ties broken by least area
// enlargement, then least area. A candidate is abandoned once its partial
// sum exceeds the best complete one: every term is >= 0 in floating point
// too (a union is no narrower than its part in any dimension, and a
// product of non-negative widths is monotone), so the sum only grows and a
// strict > drops neither a winner nor a tie. Every rectangle is measured
// in the dimensions from c on (organised).
func chooseLeastOverlap(entries []Entry, r geom.Rect, c int) int {
	r = organised(r, c)
	best := -1
	bestOverlap, bestEnlarge, bestArea := math.Inf(1), 0.0, 0.0
candidates:
	for i, e := range entries {
		er := organised(e.Rect, c)
		var overlapDelta float64
		for j, other := range entries {
			if j == i {
				continue
			}
			or := organised(other.Rect, c)
			overlapDelta += er.UnionOverlapArea(r, or) - er.OverlapArea(or)
			if overlapDelta > bestOverlap {
				continue candidates
			}
		}
		enlarge := er.Enlargement(r)
		area := er.Area()
		if best == -1 || overlapDelta < bestOverlap ||
			(overlapDelta == bestOverlap && (enlarge < bestEnlarge ||
				(enlarge == bestEnlarge && area < bestArea))) {
			best, bestOverlap, bestEnlarge, bestArea = i, overlapDelta, enlarge, area
		}
	}
	return best
}

// chooseLeastEnlargement implements the internal-level choice: least area
// enlargement, ties broken by least area, in the dimensions from c on.
func chooseLeastEnlargement(entries []Entry, r geom.Rect, c int) int {
	r = organised(r, c)
	best := -1
	bestEnlarge, bestArea := 0.0, 0.0
	for i, e := range entries {
		er := organised(e.Rect, c)
		enlarge := er.Enlargement(r)
		area := er.Area()
		if best == -1 || enlarge < bestEnlarge || (enlarge == bestEnlarge && area < bestArea) {
			best, bestEnlarge, bestArea = i, enlarge, area
		}
	}
	return best
}

// organised returns the view of r over the dimensions from c on, the ones
// a tree carrying c dimensions places by. It shares r's memory.
func organised(r geom.Rect, c int) geom.Rect {
	return geom.Rect{Lo: r.Lo[c:], Hi: r.Hi[c:]}
}

// handleOverflowAndAdjust stores the modified tail node of path, resolving
// overflow by forced reinsertion or split, and adjusts bounding rectangles
// upwards until one comes out bit for bit as it was: the ancestors above
// that node did not change.
func (t *Tree) handleOverflowAndAdjust(path []pathElem, level int, overflowed *levelSet) error {
	for i := len(path) - 1; i >= 0; i-- {
		n := path[i].node
		curLevel := t.height - i // level of this node before any root split
		if _, maxE := t.Capacity(n.Leaf); len(n.Entries) > maxE {
			isRoot := i == 0
			if !isRoot && !overflowed[curLevel] {
				overflowed[curLevel] = true
				if err := t.reinsert(path, i, curLevel, overflowed); err != nil {
					return err
				}
				return nil
			}
			if err := t.split(path, i, curLevel, overflowed); err != nil {
				return err
			}
			return nil
		}
		if err := t.store(n); err != nil {
			return err
		}
		if i == 0 || !n.refit(path[i-1].node.Entries[path[i].entryIdx].Rect) {
			return nil
		}
	}
	return nil
}

// reinsert implements R* forced reinsertion at path[i]: remove the
// reinsertFraction of entries whose centers are farthest from the node's
// center, tighten the node, then re-insert them at the same level. The
// distance is taken in the organised dimensions, in units of the node's
// extent per dimension (see splitScratch.inv), squared: only its rank
// matters.
func (t *Tree) reinsert(path []pathElem, i, level int, overflowed *levelSet) error {
	n := path[i].node
	dim, sc := t.dim, &t.ovf
	sc.normalise(n.Entries, dim)
	box := sc.bounds(n, dim)
	sc.dist = sc.dist[:0]
	for j, e := range n.Entries {
		var ss float64
		for d := t.carried; d < dim; d++ {
			c := ((e.Rect.Lo[d]+e.Rect.Hi[d])/2 - (box.Lo[d]+box.Hi[d])/2) * sc.inv[d]
			ss += c * c
		}
		sc.dist = append(sc.dist, distEntry{d: ss, i: j})
	}
	// Sort by distance descending (simple insertion sort keeps this
	// dependency-free; nodes hold at most a few dozen entries).
	des := sc.dist
	for a := 1; a < len(des); a++ {
		for b := a; b > 0 && des[b].d > des[b-1].d; b-- {
			des[b], des[b-1] = des[b-1], des[b]
		}
	}
	p := int(reinsertFraction * float64(len(des)))
	if p < 1 {
		p = 1
	}
	// The removed entries live in the slot the first reinsertion reloads:
	// they move to the scratch, one set per level, since a reinsertion can
	// overflow the level above and start that level's.
	for len(sc.removed) <= level {
		sc.removed = append(sc.removed, held{})
	}
	sc.work = sc.work[:0]
	for _, de := range des[:p] {
		sc.work = append(sc.work, n.Entries[de.i])
	}
	removed := sc.removed[level].keep(sc.work, dim)
	sc.work = sc.work[:0]
	for _, de := range des[p:] {
		sc.work = append(sc.work, n.Entries[de.i])
	}
	n.Entries = append(n.Entries[:0], sc.work...)
	if err := t.store(n); err != nil {
		return err
	}
	// Tighten ancestors before reinserting, up to the first whose entry
	// does not change.
	for j := i; j > 0 && path[j].node.refit(path[j-1].node.Entries[path[j].entryIdx].Rect); j-- {
		if err := t.store(path[j-1].node); err != nil {
			return err
		}
	}
	// Reinsert far entries first (the "close reinsert" variant reinserts
	// entries ordered by distance, maximizing the chance they land in
	// other nodes).
	for _, e := range removed {
		if err := t.insertAtLevel(e, level, overflowed); err != nil {
			return err
		}
	}
	return nil
}

// split implements the R* split of the overfull node path[i] at the given
// level, propagating the new entry upward (splitting ancestors as needed).
func (t *Tree) split(path []pathElem, i, level int, overflowed *levelSet) error {
	n := path[i].node
	minE, _ := t.Capacity(n.Leaf)
	left, right := t.ovf.splitEntries(n.Entries, minE, t.carried, t.dim)
	n.Entries = left
	if err := t.store(n); err != nil {
		return err
	}
	newID, err := t.mgr.Alloc()
	if err != nil {
		return err
	}
	sibling := &Node{ID: newID, Leaf: n.Leaf, Entries: right}
	if err := t.store(sibling); err != nil {
		return err
	}
	newEntry := Entry{Rect: t.ovf.bounds(sibling, t.dim), Child: newID}

	if i == 0 {
		// Root split: grow the tree.
		newRootID, err := t.mgr.Alloc()
		if err != nil {
			return err
		}
		newRoot := &Node{ID: newRootID, Leaf: false, Entries: []Entry{
			{Rect: n.mbr(), Child: n.ID},
			newEntry,
		}}
		if err := t.store(newRoot); err != nil {
			return err
		}
		t.root = newRootID
		t.height++
		return t.writeMeta()
	}

	// Update the parent: tighten the split node's rect and add the sibling.
	n.refit(path[i-1].node.Entries[path[i].entryIdx].Rect)
	path[i-1].slot.push(newEntry)
	return t.handleOverflowAndAdjust(path[:i], level+1, overflowed)
}
