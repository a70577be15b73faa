package heapfile

import (
	"context"
	"encoding/binary"
	"fmt"

	"tsq/internal/storage"
)

// Health is a heap file's storage report: record liveness, how the
// records lie on their pages, and how much of the allocated page space
// they use. Low utilization with many deleted records signals the heap
// should be rebuilt; many out-of-order records, that it should be
// re-packed (a rebuild writes every verify part in tree-leaf order).
type Health struct {
	Records int `json:"records"` // allocated record numbers
	Live    int `json:"live"`
	Deleted int `json:"deleted"`
	// VerifyPages hold the verify parts a bulk build packed, VerifyFill
	// their mean share of the parts a page can hold; RawPages hold the
	// packed raw parts. InsertPages hold one appended record each, both
	// parts, and RecordPages one record each of a format-1 heap.
	VerifyPages    int     `json:"verify_pages"`
	VerifyFill     float64 `json:"verify_fill"`
	RawPages       int     `json:"raw_pages"`
	InsertPages    int     `json:"insert_pages"`
	RecordPages    int     `json:"record_pages"`
	DirectoryPages int     `json:"directory_pages"`
	// OutOfOrder counts the records whose verify part is not on a packed
	// verify page — appended since the build, or written before the
	// split — so a leaf's candidates do not share its pages.
	OutOfOrder     int   `json:"out_of_order"`
	BytesUsed      int64 `json:"bytes_used"` // live record bytes
	BytesAllocated int64 `json:"bytes_allocated"`
	// Utilization is BytesUsed / BytesAllocated over record pages.
	Utilization float64 `json:"utilization"`
}

// ComputeHealth reads every record page once, checking it as a fetch
// does (buffered pages count as hits), and tallies liveness, page kinds
// and space usage. When ctx carries a storage.QueryIO the reads are
// attributed to it.
func (f *File) ComputeHealth(ctx context.Context) (*Health, error) {
	pageSize := f.mgr.PageSize()
	h := &Health{Records: len(f.verify), DirectoryPages: len(f.dirPages)}
	// The records with a part on each page, in page order.
	onPage := make(map[storage.PageID][]int64)
	var pages []storage.PageID
	for rec := range int64(len(f.verify)) {
		for _, id := range [2]storage.PageID{f.verify[rec], f.rawPage(rec)} {
			if l := onPage[id]; len(l) == 0 || l[len(l)-1] != int64(rec) {
				if len(l) == 0 {
					pages = append(pages, id)
				}
				onPage[id] = append(l, rec)
			}
		}
	}
	var fill float64
	buf := make([]byte, pageSize)
	for _, id := range pages {
		if err := f.mgr.ReadCtx(ctx, id, buf); err != nil {
			return nil, f.pageErr(id, err)
		}
		if err := f.checkPage(buf); err != nil {
			return nil, f.pageErr(id, err)
		}
		h.BytesAllocated += int64(pageSize)
		switch buf[0] {
		case kindVerify:
			h.VerifyPages++
			fill += float64(buf[1]) / float64(f.VerifyPerPage())
		case kindSeries:
			h.RawPages++
		case kindInsert:
			h.InsertPages++
		default:
			h.RecordPages++
		}
		for _, rec := range onPage[id] {
			if f.verify[rec] == id {
				if buf[0] != kindVerify {
					h.OutOfOrder++
				}
				_, live, err := f.verifyAt(buf, rec)
				if err != nil {
					return nil, f.pageErr(id, err)
				}
				switch {
				case !live:
					h.Deleted++
				case buf[0] == kindRecord:
					h.Live++
					h.BytesUsed += int64(recSize(f.n, int(binary.LittleEndian.Uint16(buf[2:]))))
				default:
					h.Live++
					h.BytesUsed += int64(verifySize(f.n))
				}
			}
			if f.rawPage(rec) == id && buf[0] != kindRecord && buf[0] != kindTomb {
				_, nameLen, live, err := f.rawAt(buf, rec)
				if err != nil {
					return nil, f.pageErr(id, err)
				}
				if live {
					h.BytesUsed += int64(rawSize(f.n, nameLen))
				}
			}
		}
	}
	if h.VerifyPages > 0 {
		h.VerifyFill = fill / float64(h.VerifyPages)
	}
	if h.BytesAllocated > 0 {
		h.Utilization = float64(h.BytesUsed) / float64(h.BytesAllocated)
	}
	return h, nil
}

// String renders the report on one line, as tsquery -inspect and -check
// print it.
func (h *Health) String() string {
	return fmt.Sprintf("%d records (%d live, %d deleted); %d verify pages %.1f%% full, %d raw, %d insert, %d format-1 record, %d directory; %d out of leaf order; %.1f%% utilized",
		h.Records, h.Live, h.Deleted, h.VerifyPages, 100*h.VerifyFill, h.RawPages, h.InsertPages, h.RecordPages, h.DirectoryPages, h.OutOfOrder, 100*h.Utilization)
}
