package rtree

import (
	"errors"
	"math"
	"strings"
	"testing"

	"tsq/internal/geom"
	"tsq/internal/storage"
)

// decodePage decodes a copy of page into the slot, the way LoadInto does
// after the storage read.
func decodePage(s *Scratch, page []byte) (*Node, error) {
	copy(s.page, page)
	return s.decode(storage.PageID(1))
}

// sameNode compares two decoded nodes bit for bit (NaN coordinates
// included, which reflect.DeepEqual would call unequal).
func sameNode(a, b *Node, dim int) bool {
	if a.ID != b.ID || a.Leaf != b.Leaf || a.kind != b.kind || len(a.Entries) != len(b.Entries) {
		return false
	}
	for i := range a.Entries {
		ea, eb := a.Entries[i], b.Entries[i]
		if ea.Child != eb.Child || ea.Rec != eb.Rec || len(ea.Rect.Lo) != dim || len(eb.Rect.Lo) != dim {
			return false
		}
		for d := 0; d < dim; d++ {
			if math.Float64bits(ea.Rect.Lo[d]) != math.Float64bits(eb.Rect.Lo[d]) ||
				math.Float64bits(ea.Rect.Hi[d]) != math.Float64bits(eb.Rect.Hi[d]) {
				return false
			}
		}
	}
	return true
}

// viewPage reads a copy of page through the slot the way LoadView does
// after the storage read.
func viewPage(s *Scratch, page []byte) (*Node, *PointLeaf, error) {
	copy(s.page, page)
	return s.view(storage.PageID(1))
}

// sameView reports whether view v holds exactly leaf n's points (its
// entries' low corners), bit for bit, and record ids, in order.
func sameView(v *PointLeaf, n *Node, dim int) bool {
	if !n.Leaf || v.Len() != len(n.Entries) {
		return false
	}
	all := make([]int32, v.Len())
	for i := range all {
		all[i] = int32(i)
	}
	for i, e := range n.Entries {
		p := v.Point(i)
		if v.Rec(i) != e.Rec || len(p) != dim {
			return false
		}
		for d := 0; d < dim; d++ {
			if math.Float64bits(v.Coord(i, d)) != math.Float64bits(e.Rect.Lo[d]) || math.Float64bits(p[d]) != math.Float64bits(e.Rect.Lo[d]) {
				return false
			}
		}
	}
	// Gathered in reverse, every entry lands where the order puts it.
	for i, j := 0, len(all)-1; i < j; i, j = i+1, j-1 {
		all[i], all[j] = all[j], all[i]
	}
	pts := v.Gather(all)
	if len(pts) != len(all)*dim {
		return false
	}
	for k, i := range all {
		for d := 0; d < dim; d++ {
			if math.Float64bits(pts[k*dim+d]) != math.Float64bits(n.Entries[i].Rect.Lo[d]) {
				return false
			}
		}
	}
	return true
}

// FuzzDecodeNode checks the node codec never panics on corrupt pages
// (every rejection is a corrupt-node or a checksum error), that every
// node produced by encodeNode decodes back identically as the kind its
// page names, and the reuse rule of a decode slot: whatever the slot held
// before (a valid node of prev entries, fewer or more than the page under
// test holds), decoding the page gives exactly what a fresh slot gives,
// and a rejected page leaves none of the previous node visible. A read
// through the view (LoadView's path) meets every page too: it fails
// exactly when the decode fails, with the same error, and otherwise
// yields a leaf's points (of a rectangle leaf, the low corners) and
// record ids bit for bit as the decode does, or the decode's own node for
// an internal one; so a corrupt leaf never reaches a view, and a rejected
// page leaves no view behind.
func FuzzDecodeNode(f *testing.F) {
	// Seed with valid encoded nodes of both leaf kinds.
	dim := 3
	n := &Node{ID: 7, Leaf: true, Entries: []Entry{
		{Rect: geom.NewRect(geom.Point{1, 2, 3}, geom.Point{4, 5, 6}), Rec: 42},
		{Rect: geom.NewRect(geom.Point{-1, -2, -3}, geom.Point{0, 0, 0}), Rec: -9},
	}}
	buf := make([]byte, 512)
	encodeNode(n, kindRectLeaf, dim, buf)
	f.Add(buf, dim, 1) // the page holds more entries than the slot did
	f.Add(buf, dim, 5) // and fewer
	torn := append([]byte(nil), buf...)
	torn[nodeHeaderSize+3] ^= 0x40
	f.Add(torn, dim, 4) // checksum failure after a valid node
	points := &Node{ID: 7, Leaf: true}
	for i := 0; i < MaxPointEntries(512, dim); i++ {
		p := geom.Point{float64(i), -float64(i), 0.5}
		points.Entries = append(points.Entries, Entry{Rect: geom.PointRect(p), Rec: int64(i)})
	}
	full := make([]byte, 512)
	encodeNode(points, kindPointLeaf, dim, full)
	f.Add(full, dim, 2) // a full point leaf: more entries than a rectangle node holds
	tornPoints := append([]byte(nil), full...)
	tornPoints[len(tornPoints)/2] ^= 0x08
	f.Add(tornPoints, dim, 3) // a point leaf failing its checksum: the view must refuse it
	longPoints := append([]byte(nil), full...)
	longPoints[2]++
	f.Add(longPoints, dim, 1) // a point leaf counting one entry more than the page holds
	for _, kind := range []byte{0, 1, 3, 255} {
		relabelled := append([]byte(nil), full...)
		relabelled[0] = kind // too many rectangles for the page, or no kind at all
		f.Add(relabelled, dim, 0)
	}
	f.Add(make([]byte, 512), 2, 0)
	f.Add([]byte{1, 0, 255, 255, 0, 0, 0, 0}, 6, 0)
	f.Add([]byte{2, 0, 3, 0, 0, 0, 0, 0}, 1, 0)
	f.Fuzz(func(t *testing.T, page []byte, d, prev int) {
		if d < 1 || d > 16 || len(page) < nodeHeaderSize {
			return
		}
		fresh, freshErr := decodePage(newScratch(len(page), d), page)

		slot := newScratch(len(page), d)
		prev = max(0, min(prev, MaxEntries(len(page), d)))
		before := &Node{ID: 9, Leaf: false}
		for i := 0; i < prev; i++ {
			p := make(geom.Point, d)
			for j := range p {
				p[j] = float64(100*i + j)
			}
			before.Entries = append(before.Entries, Entry{Rect: geom.PointRect(p), Child: storage.PageID(i + 2)})
		}
		first := make([]byte, len(page))
		encodeNode(before, kindInternal, d, first)
		held, err := decodePage(slot, first)
		if err != nil || len(held.Entries) != prev {
			t.Fatalf("valid %d-entry node did not decode: %v", prev, err)
		}
		vnode, view, verr := viewPage(slot, page)
		if (verr == nil) != (freshErr == nil) || (verr != nil && verr.Error() != freshErr.Error()) {
			t.Fatalf("view: error %v, decode: %v", verr, freshErr)
		}
		switch {
		case verr != nil:
			if vnode != nil || view != nil || slot.leaf.Len() != 0 || slot.leaf.page != nil || len(slot.node.Entries) != 0 {
				t.Fatal("a rejected page left a view or a node in the slot")
			}
		case page[0] != kindInternal:
			if vnode != nil || view == nil || !sameView(view, fresh, d) {
				t.Fatalf("view of a %d-entry leaf of kind %d differs from its decode", len(fresh.Entries), page[0])
			}
		case view != nil || vnode == nil || !sameNode(vnode, fresh, d):
			t.Fatalf("page of kind %d: the view path did not decode it as decode does", page[0])
		}
		held, err = decodePage(slot, first)
		if err != nil || len(held.Entries) != prev {
			t.Fatalf("valid %d-entry node did not decode after the view: %v", prev, err)
		}
		node, err := decodePage(slot, page)
		if (err == nil) != (freshErr == nil) || (err != nil && err.Error() != freshErr.Error()) {
			t.Fatalf("reused slot: error %v, fresh slot: %v", err, freshErr)
		}
		if page[0] > kindPointLeaf && !errors.Is(err, ErrCorruptNode) {
			t.Fatalf("page of kind %d: error %v, want a corrupt-node error", page[0], err)
		}
		if err != nil {
			if !errors.Is(err, ErrCorruptNode) && !strings.Contains(err.Error(), "fails its checksum") {
				t.Fatalf("unexpected decode error: %v", err)
			}
			if node != nil || len(held.Entries) != 0 {
				t.Fatalf("rejected page left %d entries of the previous node visible", len(held.Entries))
			}
			return
		}
		if !sameNode(node, fresh, d) {
			t.Fatalf("decode into a slot that held %d entries differs from a fresh decode (%d entries)", prev, len(fresh.Entries))
		}
		// Whatever decoded must re-encode into a page of the same size
		// without panicking, and round-trip.
		out := make([]byte, len(page))
		if nodeHeaderSize+len(node.Entries)*entrySize(node.kind, d) > len(out) {
			t.Fatalf("decoder accepted %d entries that cannot fit the page", len(node.Entries))
		}
		if node.kind != page[0] || node.Leaf != (page[0] != kindInternal) {
			t.Fatalf("page of kind %d decoded as kind %d, leaf %v", page[0], node.kind, node.Leaf)
		}
		encodeNode(node, node.kind, d, out)
		back, err := decodePage(newScratch(len(out), d), out)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !sameNode(back, node, d) {
			t.Fatal("round trip changed the node")
		}
	})
}

// FuzzMetaCodec checks the metadata page codec: a page decodes or fails
// with a named error, and what decodes round-trips, leaf kind included.
func FuzzMetaCodec(f *testing.F) {
	for _, kind := range []byte{kindRectLeaf, kindPointLeaf} {
		valid := make([]byte, 64)
		encodeMeta(valid, meta{leafKind: kind, dim: 6, root: 3, height: 2, size: 1068})
		f.Add(valid)
	}
	f.Add(make([]byte, 64))
	for _, magic := range []string{"RST0", "RST3", "RSTA", "RST\x02"} {
		bad := make([]byte, 64)
		encodeMeta(bad, meta{leafKind: kindPointLeaf, dim: 6, root: 3, height: 2})
		copy(bad, magic)
		f.Add(bad)
	}
	f.Fuzz(func(t *testing.T, page []byte) {
		if len(page) < 24 {
			return
		}
		m, err := decodeMeta(page)
		if err != nil {
			if !strings.HasPrefix(err.Error(), "rtree: ") {
				t.Fatalf("unnamed meta error: %v", err)
			}
			return
		}
		if want := "RST" + string('0'+m.leafKind); string(page[:4]) != want || (m.leafKind != kindRectLeaf && m.leafKind != kindPointLeaf) {
			t.Fatalf("magic %q decoded as leaf kind %d", page[:4], m.leafKind)
		}
		out := make([]byte, len(page))
		encodeMeta(out, m)
		back, err := decodeMeta(out)
		if err != nil || back != m {
			t.Fatalf("meta round trip: %+v, %v; want %+v", back, err, m)
		}
	})
}
