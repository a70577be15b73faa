package core

import (
	"context"
	"slices"

	"tsq/internal/heapfile"
)

// Where a record lives is one decision, taken by the index: an in-memory
// index keeps its records in a Dataset, which is their only copy, and a
// paged index keeps none, only the series length, its heap directory and
// its tree, and reads a record from its page whenever it needs one.

// RecordSource is where a sequential scan reads the stored records from:
// a Dataset, an Index (its records in memory, or its heap file) or the
// sharded engine, which numbers them globally.
type RecordSource interface {
	// Len returns the number of ids handed out, deleted records
	// included: the ids are 0..Len()-1.
	Len() int
	// SeriesLength returns the common series length.
	SeriesLength() int
	// visit calls fn with every live record whose id lies in [lo, hi), in
	// id order, and stops at the first error fn or a page read returns.
	// A record read from a heap file is buf's and valid only until fn
	// returns; it carries no name and no normal form. A stored in-memory
	// record is passed as it is and must not be modified.
	visit(ctx context.Context, lo, hi int, buf *scanBuf, fn func(*Record) error) error
}

// scanChunk is the number of consecutive ids a scan fetches per batch:
// one run of record pages, read with one run buffer.
const scanChunk = 64

// scanBuf is what one scan worker reads a heap file through: the batch
// fetch state, and the chunk of records at hand copied out of their
// pages, because the heap streams them in page order and a scan visits
// them in id order.
type scanBuf struct {
	fetch heapfile.Scratch
	// ids are the ids being fetched from one heap, at their positions in
	// the chunk.
	ids []int64
	at  []int
	// recs is the chunk, live marks its records that exist, and slab
	// holds the arrays of the ones copied from a page.
	recs []Record
	live []bool
	slab []float64
}

// chunks runs a visit over [lo, hi) in chunks of scanChunk ids: fill
// loads the chunk [c, end) into b (through load), and fn then sees its
// live records in id order, each named by its id.
func (b *scanBuf) chunks(lo, hi, n int, fill func(c, end int) error, fn func(*Record) error) error {
	for c := lo; c < hi; c += scanChunk {
		m := min(scanChunk, hi-c)
		b.recs = slices.Grow(b.recs[:0], m)[:m]
		b.live = slices.Grow(b.live[:0], m)[:m]
		clear(b.live)
		if need := 3 * m * n; len(b.slab) < need {
			b.slab = make([]float64, need)
		}
		if err := fill(c, c+m); err != nil {
			return err
		}
		for i := range b.recs {
			if !b.live[i] {
				continue
			}
			r := &b.recs[i]
			r.ID = int64(c + i)
			if err := fn(r); err != nil {
				return err
			}
		}
	}
	return nil
}

// set copies the record v into chunk position i.
func (b *scanBuf) set(i int, v *heapfile.View) {
	n := len(v.Raw)
	arr := b.slab[3*i*n : 3*(i+1)*n]
	b.recs[i] = Record{
		Mean:   v.Mean,
		Std:    v.Std,
		Raw:    arr[:n:n],
		Mags:   arr[n : 2*n : 2*n],
		Phases: arr[2*n : 3*n : 3*n],
	}
	copy(b.recs[i].Raw, v.Raw)
	copy(b.recs[i].Mags, v.Mags)
	copy(b.recs[i].Phases, v.Phases)
	b.live[i] = true
}

// load puts the records b.ids of ix at their chunk positions b.at: a
// stored record is copied by value (its arrays are shared), a paged one
// is copied out of its page. Deleted records stay not live.
func (ix *Index) load(ctx context.Context, b *scanBuf) error {
	if ix.heap == nil {
		for i, id := range b.ids {
			if r := ix.ds.Record(id); r != nil {
				b.recs[b.at[i]], b.live[b.at[i]] = *r, true
			}
		}
		return nil
	}
	return ix.heap.Visit(ctx, b.ids, &b.fetch, func(i int, v *heapfile.View) error {
		if v != nil { // a tombstone stays not live
			b.set(b.at[i], v)
		}
		return nil
	})
}

// visit makes the index a RecordSource over its local ids: its dataset
// in memory, its heap file in chunks of consecutive ids otherwise.
func (ix *Index) visit(ctx context.Context, lo, hi int, b *scanBuf, fn func(*Record) error) error {
	if ix.heap == nil {
		return ix.ds.visit(ctx, lo, hi, b, fn)
	}
	return b.chunks(lo, hi, ix.n, func(c, end int) error {
		b.ids, b.at = b.ids[:0], b.at[:0]
		for id := c; id < end; id++ {
			b.ids, b.at = append(b.ids, int64(id)), append(b.at, id-c)
		}
		return ix.load(ctx, b)
	}, fn)
}

// visit makes the engine a RecordSource over global ids. One shard is its
// shard; with more, every chunk of global ids is loaded shard by shard.
func (s *Sharded) visit(ctx context.Context, lo, hi int, b *scanBuf, fn func(*Record) error) error {
	if s.single() {
		return s.shards[0].visit(ctx, lo, hi, b, fn)
	}
	return b.chunks(lo, hi, s.SeriesLength(), func(c, end int) error {
		for sh, ix := range s.shards {
			b.ids, b.at = b.ids[:0], b.at[:0]
			for g := c; g < end; g++ {
				if gs, l := s.locate(int64(g)); gs == sh {
					b.ids, b.at = append(b.ids, l), append(b.at, g-c)
				}
			}
			if err := ix.load(ctx, b); err != nil {
				return s.shardErr(sh, err)
			}
		}
		return nil
	}, fn)
}

// liveSpectra returns the spectra of src's live records in id order, for
// the scans that compare every record with every other: copies, which
// the caller holds for as long as it keeps the slice.
func liveSpectra(src RecordSource) ([]*Record, error) {
	var out []*Record
	err := src.visit(nil, 0, src.Len(), new(scanBuf), func(r *Record) error {
		out = append(out, &Record{ID: r.ID, Mags: slices.Clone(r.Mags), Phases: slices.Clone(r.Phases)})
		return nil
	})
	return out, err
}
