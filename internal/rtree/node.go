// Package rtree implements an R*-tree (Beckmann, Kriegel, Schneider,
// Seeger, SIGMOD '90) over the paged storage manager: ChooseSubtree with
// overlap-minimizing leaf choice, margin-driven split-axis selection,
// overlap-driven split-distribution selection, and forced reinsertion.
// Every node occupies exactly one storage page, so storage-level read
// counts are the paper's "number of disk accesses".
//
// The tree stores axis-aligned rectangles (points are degenerate
// rectangles) with an int64 record id per leaf entry. It is the substrate
// of the ST-index and MT-index algorithms, which drive their own
// traversals via Root, AcquireSlots, LoadInto, and Node; plain range,
// nearest-neighbor, and spatial self-join searches are provided here.
package rtree

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"tsq/internal/geom"
	"tsq/internal/storage"
)

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
	lo, hi  []float64 // leaf-major corner slabs, maxE*dim each
	entries []Entry   // maxE headers
	node    Node
}

// newScratch sizes a slot for one entry more than a page holds, the one
// an insertion pushes onto a full node before it splits it.
func newScratch(pageSize, dim int) *Scratch {
	room := MaxEntries(pageSize, dim) + 1
	return &Scratch{
		dim:     dim,
		page:    make([]byte, pageSize),
		lo:      make([]float64, room*dim),
		hi:      make([]float64, room*dim),
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
	hi := geom.Point(s.hi[j*dim : (j+1)*dim : (j+1)*dim])
	copy(lo, e.Rect.Lo)
	copy(hi, e.Rect.Hi)
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
//	offset 0: leaf flag (1 byte)
//	offset 1: reserved (1 byte)
//	offset 2: entry count (uint16)
//	offset 4: CRC32 (IEEE) of the used page region with this field zeroed
//	offset 8: entries, each 16*dim + 8 bytes:
//	    dim float64 lows, dim float64 highs, uint64 ref
//	    (ref is the child page id for internal nodes, the record id for
//	    leaves)
const nodeHeaderSize = 8

// entrySize returns the encoded size of one entry for the given
// dimensionality.
func entrySize(dim int) int { return 16*dim + 8 }

// MaxEntries returns the node capacity for the given page size and
// dimensionality.
func MaxEntries(pageSize, dim int) int {
	return (pageSize - nodeHeaderSize) / entrySize(dim)
}

// encodeNode serializes n into buf (one page).
func encodeNode(n *Node, dim int, buf []byte) {
	if n.Leaf {
		buf[0] = 1
	} else {
		buf[0] = 0
	}
	buf[1] = 0
	binary.LittleEndian.PutUint16(buf[2:], uint16(len(n.Entries)))
	binary.LittleEndian.PutUint32(buf[4:], 0)
	off := nodeHeaderSize
	for _, e := range n.Entries {
		for i := 0; i < dim; i++ {
			binary.LittleEndian.PutUint64(buf[off:], math.Float64bits(e.Rect.Lo[i]))
			off += 8
		}
		for i := 0; i < dim; i++ {
			binary.LittleEndian.PutUint64(buf[off:], math.Float64bits(e.Rect.Hi[i]))
			off += 8
		}
		var ref uint64
		if n.Leaf {
			ref = uint64(e.Rec)
		} else {
			ref = uint64(e.Child)
		}
		binary.LittleEndian.PutUint64(buf[off:], ref)
		off += 8
	}
	binary.LittleEndian.PutUint32(buf[4:], crc32.ChecksumIEEE(buf[:off]))
}

// decode deserializes the slot's page buffer into the slot's node,
// verifying the page checksum. On error the slot holds an empty node:
// nothing of the node decoded before stays visible.
func (s *Scratch) decode(id storage.PageID) (*Node, error) {
	buf, dim := s.page, s.dim
	s.node = Node{}
	count := int(binary.LittleEndian.Uint16(buf[2:]))
	used := nodeHeaderSize + count*entrySize(dim)
	if used > len(buf) {
		return nil, fmt.Errorf("rtree: corrupt node %d: count %d exceeds page", id, count)
	}
	stored := binary.LittleEndian.Uint32(buf[4:])
	binary.LittleEndian.PutUint32(buf[4:], 0)
	sum := crc32.ChecksumIEEE(buf[:used])
	binary.LittleEndian.PutUint32(buf[4:], stored)
	if sum != stored {
		return nil, fmt.Errorf("rtree: node %d fails its checksum", id)
	}
	n := &s.node
	n.ID, n.Leaf = id, buf[0] == 1
	n.Entries = s.entries[:count]
	// Leaf-major layout: all low corners share one contiguous slab
	// (likewise the highs), so a scan over the entries' feature vectors
	// is a linear walk of one block.
	n.flatLo = s.lo[:count*dim]
	off := nodeHeaderSize
	for j := 0; j < count; j++ {
		lo := geom.Point(s.lo[j*dim : (j+1)*dim : (j+1)*dim])
		hi := geom.Point(s.hi[j*dim : (j+1)*dim : (j+1)*dim])
		for i := 0; i < dim; i++ {
			lo[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[off:]))
			off += 8
		}
		for i := 0; i < dim; i++ {
			hi[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[off:]))
			off += 8
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
//	offset 0: magic (4 bytes "RST1")
//	offset 4: dim (uint32)
//	offset 8: root page (uint32)
//	offset 12: height (uint32)
//	offset 16: size (uint64)
var metaMagic = [4]byte{'R', 'S', 'T', '1'}

func encodeMeta(buf []byte, dim int, root storage.PageID, height int, size int64) {
	copy(buf, metaMagic[:])
	binary.LittleEndian.PutUint32(buf[4:], uint32(dim))
	binary.LittleEndian.PutUint32(buf[8:], uint32(root))
	binary.LittleEndian.PutUint32(buf[12:], uint32(height))
	binary.LittleEndian.PutUint64(buf[16:], uint64(size))
}

func decodeMeta(buf []byte) (dim int, root storage.PageID, height int, size int64, err error) {
	if [4]byte(buf[:4]) != metaMagic {
		return 0, 0, 0, 0, fmt.Errorf("rtree: bad meta page magic %q", buf[:4])
	}
	dim = int(binary.LittleEndian.Uint32(buf[4:]))
	root = storage.PageID(binary.LittleEndian.Uint32(buf[8:]))
	height = int(binary.LittleEndian.Uint32(buf[12:]))
	size = int64(binary.LittleEndian.Uint64(buf[16:]))
	// A corrupt meta page must be rejected here with a descriptive
	// error, not surface as a panic (or an absurd allocation) in the
	// first traversal that trusts the fields.
	if dim < 1 || dim > 1024 {
		return 0, 0, 0, 0, fmt.Errorf("rtree: corrupt meta page: implausible dimension %d", dim)
	}
	if root == storage.NilPage {
		return 0, 0, 0, 0, fmt.Errorf("rtree: corrupt meta page: nil root page")
	}
	if height < 1 || height > 64 {
		return 0, 0, 0, 0, fmt.Errorf("rtree: corrupt meta page: implausible height %d", height)
	}
	if size < 0 {
		return 0, 0, 0, 0, fmt.Errorf("rtree: corrupt meta page: negative size %d", size)
	}
	return dim, root, height, size, nil
}
