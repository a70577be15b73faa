// Package rtree implements an R*-tree (Beckmann, Kriegel, Schneider,
// Seeger, SIGMOD '90) over the paged storage manager: ChooseSubtree with
// overlap-minimizing leaf choice, margin-driven split-axis selection,
// overlap-driven split-distribution selection, and forced reinsertion.
// Every node occupies exactly one storage page, so storage-level read
// counts are the paper's "number of disk accesses".
//
// Internal nodes store axis-aligned rectangles; leaves store points (New,
// BulkLoad) or rectangles (NewRectLeaves) with an int64 record id each. It
// is the substrate of the ST-index and MT-index algorithms, which drive
// their own traversals via Root, AcquireSlots, LoadInto, and Node; plain
// range, nearest-neighbor, and spatial self-join searches are provided here.
// A read traversal that only scans leaf points loads with LoadView: a leaf
// comes back as a PointLeaf, a checksummed read-only view of its page that
// reads a point or a record id where it lies, so a scan decodes only what
// it keeps.
package rtree

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"tsq/internal/geom"
	"tsq/internal/storage"
)

// ErrCorruptNode is wrapped by the errors of a node page that cannot be
// decoded: an unknown kind, or more entries than the page holds.
var ErrCorruptNode = errors.New("rtree: corrupt node")

// Entry is one slot of a node: a bounding rectangle plus either a child
// page (internal nodes) or a record id (leaves).
type Entry struct {
	Rect  geom.Rect
	Child storage.PageID // internal nodes only
	Rec   int64          // leaf nodes only
}

// Node is the decoded form of one tree page.
type Node struct {
	ID      storage.PageID
	Leaf    bool
	Entries []Entry

	// kind is the page's kind byte, set by decode.
	kind byte
}

// Scratch is a reusable decode slot: the page buffer a node is read
// into and every piece of memory its decoded form lives in, sized once
// for a tree's page size and dimensionality. Tree.LoadInto decodes into
// a slot without allocating; the *Node it returns — its Entries and
// their rectangles — and the *PointLeaf Tree.LoadView returns are valid
// until the slot's next load, so whatever must outlive that is copied
// out first. A slot serves one traversal at a time and only the tree it
// was made for.
type Scratch struct {
	dim     int
	page    []byte
	lo, hi  []float64 // leaf-major corner slabs
	entries []Entry
	node    Node
	leaf    PointLeaf
}

// PointLeaf is a read-only view of a leaf in its slot's page buffer,
// made after the page passed the header and checksum checks a decode
// makes (checkPage). It reads every entry as a point: a point leaf's
// entry is one, and of a rectangle leaf's entry, whose rectangle is a
// point in a feature index, it reads the low corner, which starts the
// entry as a point does. Entry i's point and record id are read off the
// page where they lie, so a scan that keeps few entries of a leaf
// decodes no more than those. It is valid until the slot's next load.
type PointLeaf struct {
	page       []byte // header and entries, the checksummed region
	dim, count int
	stride     int       // bytes per entry
	block      []float64 // the slot's low-corner slab, which a view leaves unused
}

// Len returns the number of entries.
func (v *PointLeaf) Len() int { return v.count }

// Coord returns coordinate d of entry i's point.
func (v *PointLeaf) Coord(i, d int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(v.page[nodeHeaderSize+i*v.stride+8*d:]))
}

// Point returns entry i's point, decoded into the slot. It is valid until
// the next Point or Gather on v, or the slot's next load.
func (v *PointLeaf) Point(i int) []float64 {
	p := v.block[:v.dim]
	getFloats(p, v.page, nodeHeaderSize+i*v.stride)
	return p
}

// Gather returns the points of the entries at positions idx, distinct,
// decoded one after another in the order of idx into one block of the
// slot. It is valid until the next Point or Gather on v, or the slot's
// next load.
func (v *PointLeaf) Gather(idx []int32) []float64 {
	dim := v.dim
	pts := v.block[:len(idx)*dim]
	for k, i := range idx {
		getFloats(pts[k*dim:(k+1)*dim], v.page, nodeHeaderSize+int(i)*v.stride)
	}
	return pts
}

// Rec returns entry i's record id.
func (v *PointLeaf) Rec(i int) int64 {
	return int64(binary.LittleEndian.Uint64(v.page[nodeHeaderSize+(i+1)*v.stride-8:]))
}

// newScratch sizes a slot for one entry more than a page holds, the one
// an insertion pushes onto a full node before it splits it; only the
// entries of rectangle nodes, the smaller ones, need high corners.
func newScratch(pageSize, dim int) *Scratch {
	room := MaxPointEntries(pageSize, dim) + 1
	return &Scratch{
		dim:     dim,
		page:    make([]byte, pageSize),
		lo:      make([]float64, room*dim),
		hi:      make([]float64, (MaxEntries(pageSize, dim)+1)*dim),
		entries: make([]Entry, room),
	}
}

// push appends e to the slot's node, copying its rectangle into the slabs
// behind the decoded ones. The node must still be laid out as decoded
// (entry i in place i): a slot takes one push per load.
func (s *Scratch) push(e Entry) {
	n, dim := &s.node, s.dim
	j := len(n.Entries)
	lo := geom.Point(s.lo[j*dim : (j+1)*dim : (j+1)*dim])
	copy(lo, e.Rect.Lo)
	hi := lo
	if n.kind != kindPointLeaf {
		hi = geom.Point(s.hi[j*dim : (j+1)*dim : (j+1)*dim])
		copy(hi, e.Rect.Hi)
	}
	e.Rect = geom.Rect{Lo: lo, Hi: hi}
	n.Entries = append(n.Entries, e)
}

// mbr returns the minimum bounding rectangle of all entries of the node.
func (n *Node) mbr() geom.Rect {
	dim := n.Entries[0].Rect.Dim()
	r := geom.Rect{Lo: make(geom.Point, dim), Hi: make(geom.Point, dim)}
	n.refit(r)
	return r
}

// refit writes the node's minimum bounding rectangle into dst, which must
// not be one of its entries' rectangles, and reports whether any bit of
// dst changed.
func (n *Node) refit(dst geom.Rect) bool {
	changed := false
	for d := range dst.Lo {
		lo, hi := n.Entries[0].Rect.Lo[d], n.Entries[0].Rect.Hi[d]
		for _, e := range n.Entries[1:] {
			lo, hi = min(lo, e.Rect.Lo[d]), max(hi, e.Rect.Hi[d])
		}
		changed = changed || math.Float64bits(lo) != math.Float64bits(dst.Lo[d]) ||
			math.Float64bits(hi) != math.Float64bits(dst.Hi[d])
		dst.Lo[d], dst.Hi[d] = lo, hi
	}
	return changed
}

// Page layout (little endian):
//
//	offset 0: kind (1 byte, see kindInternal)
//	offset 1: reserved (1 byte)
//	offset 2: entry count (uint16)
//	offset 4: CRC32 (IEEE) of the used page region with this field zeroed
//	offset 8: entries, each entrySize(kind, dim) bytes:
//	    dim float64 lows, dim float64 highs (not in a point leaf),
//	    uint64 ref (the child page id for internal nodes, the record id
//	    for leaves)
const nodeHeaderSize = 8

// The node kinds. Internal nodes always store rectangles; a leaf's kind is
// the tree's, recorded in its meta page.
const (
	kindInternal  byte = 0 // rectangles and child page ids
	kindRectLeaf  byte = 1 // rectangles and record ids
	kindPointLeaf byte = 2 // points (the low corners) and record ids
)

// entrySize returns the encoded size of one entry of a node of the given
// kind and dimensionality.
func entrySize(kind byte, dim int) int {
	if kind == kindPointLeaf {
		return 8*dim + 8
	}
	return 16*dim + 8
}

// MaxEntries returns the capacity of a node of rectangles (every internal
// node, and the leaves of NewRectLeaves) for a page size and dimension.
func MaxEntries(pageSize, dim int) int {
	return (pageSize - nodeHeaderSize) / entrySize(kindInternal, dim)
}

// MaxPointEntries returns the capacity of a point leaf for the given page
// size and dimensionality.
func MaxPointEntries(pageSize, dim int) int {
	return (pageSize - nodeHeaderSize) / entrySize(kindPointLeaf, dim)
}

// encodeNode serializes n into buf (one page) as a node of the given kind.
// The page past the last entry is zeroed, so a node's bytes depend on the
// node alone and not on what the buffer held before.
func encodeNode(n *Node, kind byte, dim int, buf []byte) {
	buf[0], buf[1] = kind, 0
	binary.LittleEndian.PutUint16(buf[2:], uint16(len(n.Entries)))
	binary.LittleEndian.PutUint32(buf[4:], 0)
	off := nodeHeaderSize
	for _, e := range n.Entries {
		off = putFloats(buf, off, e.Rect.Lo)
		if kind != kindPointLeaf {
			off = putFloats(buf, off, e.Rect.Hi)
		}
		ref := uint64(e.Child)
		if n.Leaf {
			ref = uint64(e.Rec)
		}
		binary.LittleEndian.PutUint64(buf[off:], ref)
		off += 8
	}
	clear(buf[off:])
	binary.LittleEndian.PutUint32(buf[4:], crc32.ChecksumIEEE(buf[:off]))
}

func putFloats(buf []byte, off int, p geom.Point) int {
	for _, v := range p {
		binary.LittleEndian.PutUint64(buf[off:], math.Float64bits(v))
		off += 8
	}
	return off
}

func getFloats(p geom.Point, buf []byte, off int) int {
	for i := range p {
		p[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[off:]))
		off += 8
	}
	return off
}

// checkPage makes the checks every read of a node page passes before
// anything of it is used, a decode and a view alike: a known kind, an
// entry count the page holds, and the checksum of the used region. It
// returns the kind and the count.
func checkPage(buf []byte, id storage.PageID, dim int) (kind byte, count int, err error) {
	kind = buf[0]
	if kind > kindPointLeaf {
		return 0, 0, fmt.Errorf("%w %d: unknown kind %d", ErrCorruptNode, id, kind)
	}
	count = int(binary.LittleEndian.Uint16(buf[2:]))
	used := nodeHeaderSize + count*entrySize(kind, dim)
	if used > len(buf) {
		return 0, 0, fmt.Errorf("%w %d: count %d exceeds page", ErrCorruptNode, id, count)
	}
	stored := binary.LittleEndian.Uint32(buf[4:])
	binary.LittleEndian.PutUint32(buf[4:], 0)
	sum := crc32.ChecksumIEEE(buf[:used])
	binary.LittleEndian.PutUint32(buf[4:], stored)
	if sum != stored {
		return 0, 0, fmt.Errorf("rtree: node %d fails its checksum", id)
	}
	return kind, count, nil
}

// view checks the slot's page buffer (checkPage) and, for a leaf of
// either kind, returns a view of it instead of decoding it; an internal
// node is decoded into the slot's node. Exactly one of the two results
// is non-nil without an error. On error the slot holds an empty node and
// an empty view.
func (s *Scratch) view(id storage.PageID) (*Node, *PointLeaf, error) {
	s.leaf = PointLeaf{}
	if s.page[0] == kindInternal {
		n, err := s.decode(id)
		return n, nil, err
	}
	s.node = Node{}
	kind, count, err := checkPage(s.page, id, s.dim)
	if err != nil {
		return nil, nil, err
	}
	stride := entrySize(kind, s.dim)
	s.leaf = PointLeaf{page: s.page[:nodeHeaderSize+count*stride], dim: s.dim, count: count, stride: stride, block: s.lo}
	return nil, &s.leaf, nil
}

// decode deserializes the slot's page buffer into the slot's node,
// verifying the page checksum. On error the slot holds an empty node:
// nothing of the node decoded before stays visible.
func (s *Scratch) decode(id storage.PageID) (*Node, error) {
	buf, dim := s.page, s.dim
	s.node = Node{}
	kind, count, err := checkPage(buf, id, dim)
	if err != nil {
		return nil, err
	}
	n := &s.node
	n.ID, n.Leaf, n.kind = id, kind != kindInternal, kind
	n.Entries = s.entries[:count]
	// All low corners share one slab (likewise the highs). A point's
	// high corner is its low one: nothing writes a leaf entry's Hi, so it
	// aliases the low slab.
	off := nodeHeaderSize
	for j := 0; j < count; j++ {
		lo := geom.Point(s.lo[j*dim : (j+1)*dim : (j+1)*dim])
		off = getFloats(lo, buf, off)
		hi := lo
		if kind != kindPointLeaf {
			hi = geom.Point(s.hi[j*dim : (j+1)*dim : (j+1)*dim])
			off = getFloats(hi, buf, off)
		}
		ref := binary.LittleEndian.Uint64(buf[off:])
		off += 8
		e := Entry{Rect: geom.Rect{Lo: lo, Hi: hi}}
		if n.Leaf {
			e.Rec = int64(ref)
		} else {
			e.Child = storage.PageID(ref)
		}
		n.Entries[j] = e
	}
	return n, nil
}

// Meta page layout (page allocated first, id recorded by the caller):
//
//	offset 0: magic (4 bytes): "RST" and the tree's leaf kind as a digit,
//	          "RST2" for point leaves, "RST1" for rectangle leaves
//	offset 4: dim (uint32)
//	offset 8: root page (uint32)
//	offset 12: height (uint32)
//	offset 16: size (uint64)
type meta struct {
	leafKind    byte
	dim, height int
	root        storage.PageID
	size        int64
}

func encodeMeta(buf []byte, m meta) {
	copy(buf, "RST")
	buf[3] = '0' + m.leafKind
	binary.LittleEndian.PutUint32(buf[4:], uint32(m.dim))
	binary.LittleEndian.PutUint32(buf[8:], uint32(m.root))
	binary.LittleEndian.PutUint32(buf[12:], uint32(m.height))
	binary.LittleEndian.PutUint64(buf[16:], uint64(m.size))
}

func decodeMeta(buf []byte) (meta, error) {
	if string(buf[:3]) != "RST" || (buf[3] != '0'+kindRectLeaf && buf[3] != '0'+kindPointLeaf) {
		return meta{}, fmt.Errorf("rtree: bad meta page magic %q", buf[:4])
	}
	m := meta{
		leafKind: buf[3] - '0',
		dim:      int(binary.LittleEndian.Uint32(buf[4:])),
		root:     storage.PageID(binary.LittleEndian.Uint32(buf[8:])),
		height:   int(binary.LittleEndian.Uint32(buf[12:])),
		size:     int64(binary.LittleEndian.Uint64(buf[16:])),
	}
	// A corrupt meta page must be rejected here with a descriptive
	// error, not surface as a panic (or an absurd allocation) in the
	// first traversal that trusts the fields.
	if m.dim < 1 || m.dim > 1024 {
		return meta{}, fmt.Errorf("rtree: corrupt meta page: implausible dimension %d", m.dim)
	}
	if m.root == storage.NilPage {
		return meta{}, fmt.Errorf("rtree: corrupt meta page: nil root page")
	}
	if m.height < 1 || m.height > 64 {
		return meta{}, fmt.Errorf("rtree: corrupt meta page: implausible height %d", m.height)
	}
	if m.size < 0 {
		return meta{}, fmt.Errorf("rtree: corrupt meta page: negative size %d", m.size)
	}
	return m, nil
}
