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

	// flatLo is the leaf-major layout of decoded nodes: every entry's
	// Rect.Lo is a subslice of this one contiguous block
	// (flatLo[i*dim : (i+1)*dim] is entry i's low corner). For the point
	// entries of a feature index the low corner IS the feature vector,
	// so a scan over the node's candidates walks one flat []float64
	// instead of chasing per-entry slice headers. Nil for nodes built in
	// memory (insert/split paths), non-nil after a decode.
	flatLo []float64
	// kind is the page's kind byte, set by decode.
	kind byte
}

// FlatLo returns the node's contiguous low-corner block (leaf-major
// layout), or nil when the node was not produced by decoding a page.
// Entry i's low corner is FlatLo()[i*dim : (i+1)*dim].
func (n *Node) FlatLo() []float64 { return n.flatLo }

// Scratch is a reusable decode slot: the page buffer a node is read
// into and every piece of memory its decoded form lives in, sized once
// for a tree's page size and dimensionality. Tree.LoadInto decodes into
// a slot without allocating; the *Node it returns — its Entries, their
// rectangles, FlatLo — is valid until the slot's next load, so whatever
// must outlive that is copied out first. A slot serves one traversal at
// a time and only the tree it was made for.
type Scratch struct {
	dim     int
	page    []byte
	lo, hi  []float64 // leaf-major corner slabs
	entries []Entry
	node    Node
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
	n.flatLo = s.lo[:(j+1)*dim]
}

// mbr returns the minimum bounding rectangle of all entries of the node.
func (n *Node) mbr() geom.Rect {
	dim := n.Entries[0].Rect.Dim()
	r := geom.Rect{Lo: make(geom.Point, dim), Hi: make(geom.Point, dim)}
	n.mbrInto(r)
	return r
}

// mbrInto writes the node's minimum bounding rectangle into dst, which
// must not be one of its entries' rectangles.
func (n *Node) mbrInto(dst geom.Rect) {
	copy(dst.Lo, n.Entries[0].Rect.Lo)
	copy(dst.Hi, n.Entries[0].Rect.Hi)
	for _, e := range n.Entries[1:] {
		for d := range dst.Lo {
			dst.Lo[d] = min(dst.Lo[d], e.Rect.Lo[d])
			dst.Hi[d] = max(dst.Hi[d], e.Rect.Hi[d])
		}
	}
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

// decode deserializes the slot's page buffer into the slot's node,
// verifying the page checksum. On error the slot holds an empty node:
// nothing of the node decoded before stays visible.
func (s *Scratch) decode(id storage.PageID) (*Node, error) {
	buf, dim := s.page, s.dim
	s.node = Node{}
	kind := buf[0]
	if kind > kindPointLeaf {
		return nil, fmt.Errorf("%w %d: unknown kind %d", ErrCorruptNode, id, kind)
	}
	count := int(binary.LittleEndian.Uint16(buf[2:]))
	used := nodeHeaderSize + count*entrySize(kind, dim)
	if used > len(buf) {
		return nil, fmt.Errorf("%w %d: count %d exceeds page", ErrCorruptNode, id, count)
	}
	stored := binary.LittleEndian.Uint32(buf[4:])
	binary.LittleEndian.PutUint32(buf[4:], 0)
	sum := crc32.ChecksumIEEE(buf[:used])
	binary.LittleEndian.PutUint32(buf[4:], stored)
	if sum != stored {
		return nil, fmt.Errorf("rtree: node %d fails its checksum", id)
	}
	n := &s.node
	n.ID, n.Leaf, n.kind = id, kind != kindInternal, kind
	n.Entries = s.entries[:count]
	// Leaf-major layout: all low corners share one contiguous slab
	// (likewise the highs), so a scan over the entries' feature vectors
	// is a linear walk of one block. A point's high corner is its low
	// one: nothing writes a leaf entry's Hi, so it aliases the low slab.
	n.flatLo = s.lo[:count*dim]
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
