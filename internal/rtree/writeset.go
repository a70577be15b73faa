package rtree

import (
	"cmp"
	"slices"

	"tsq/internal/storage"
)

// writeSet holds, for the length of one Insert or Delete, every node page
// the operation has read or encoded, so that the operation reads each
// page from the manager at most once and writes each changed page once,
// when it ends. A tree touches a handful of pages per operation, so the
// set is a slice searched in order, and the page buffers of finished
// operations are kept for the next ones.
type writeSet struct {
	open  bool
	start meta // the tree's meta when the operation began
	pages []opPage
	idle  [][]byte
}

// opPage is one page of a write set: its contents as the operation last
// left them, and whether they differ from the manager's.
type opPage struct {
	id    storage.PageID
	page  []byte
	dirty bool
}

// maxIdlePages bounds the page buffers a tree keeps between operations.
// An ordinary insert holds under ten pages; a reinsertion storm that holds
// more allocates the rest and drops them when it ends.
const maxIdlePages = 32

// begin opens an operation.
func (t *Tree) begin() {
	t.ws.open, t.ws.start = true, t.meta
}

// end closes the operation begun by begin, whose outcome is err. A
// successful one hands each changed page to the manager once, in page-id
// order. A failed one writes nothing (more, when one of these writes is
// what failed) and restores the tree's meta from the start of the
// operation: the manager's pages and the meta are the tree as it was.
func (t *Tree) end(err error) error {
	ws := &t.ws
	slices.SortFunc(ws.pages, func(a, b opPage) int { return cmp.Compare(a.id, b.id) })
	for _, p := range ws.pages {
		if err == nil && p.dirty {
			err = t.mgr.Write(p.id, p.page)
		}
		ws.recycle(p.page)
	}
	if err != nil {
		t.meta = ws.start
	}
	clear(ws.pages)
	ws.pages, ws.open = ws.pages[:0], false
	return err
}

// recycle keeps a page buffer for the next operations, up to
// maxIdlePages of them.
func (ws *writeSet) recycle(buf []byte) {
	if len(ws.idle) < maxIdlePages {
		ws.idle = append(ws.idle, buf)
	}
}

// page returns the write set's page id. A page the set does not hold is
// added, clean and with undefined contents, and fresh reports that.
func (t *Tree) page(id storage.PageID) (p *opPage, fresh bool) {
	ws := &t.ws
	if i := slices.IndexFunc(ws.pages, func(p opPage) bool { return p.id == id }); i >= 0 {
		return &ws.pages[i], false
	}
	var buf []byte
	if n := len(ws.idle); n > 0 {
		buf, ws.idle = ws.idle[n-1], ws.idle[:n-1]
	} else {
		buf = make([]byte, t.mgr.PageSize())
	}
	ws.pages = append(ws.pages, opPage{id: id, page: buf})
	return &ws.pages[len(ws.pages)-1], true
}

// drop removes page id from the write set, if the set holds it.
func (ws *writeSet) drop(id storage.PageID) {
	if i := slices.IndexFunc(ws.pages, func(p opPage) bool { return p.id == id }); i >= 0 {
		ws.recycle(ws.pages[i].page)
		ws.pages = slices.Delete(ws.pages, i, i+1)
	}
}

// loadOp decodes node id into the slot s for the running operation,
// reading the page from the manager only when the operation has not read
// or written it yet. The node is valid until the next load into s.
func (t *Tree) loadOp(id storage.PageID, s *Scratch) (*Node, error) {
	p, fresh := t.page(id)
	if fresh {
		if err := t.mgr.Read(id, p.page); err != nil {
			t.ws.drop(id)
			s.node = Node{}
			return nil, err
		}
	}
	copy(s.page, p.page)
	return s.decode(id)
}

// free returns page id to the manager and drops it from the running
// operation: a freed page is not written.
func (t *Tree) free(id storage.PageID) {
	t.ws.drop(id)
	t.mgr.Free(id)
}
