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
// a Dataset or the engine, which numbers its shards' records globally.
type RecordSource interface {
	// Len returns the number of ids handed out, deleted records
	// included: the ids are 0..Len()-1.
	Len() int
	// SeriesLength returns the common series length.
	SeriesLength() int
	// visit calls fn with every live record whose id lies in [lo, hi), in
	// id order, and stops at the first error fn or a page read returns.
	// A record read from a heap file is buf's and valid only until fn
	// returns; it carries no name and no normal form, and unless
	// buf.whole it is the record's verify part: no series, and the
	// spectrum for f = 0..n/2 only. A stored in-memory record is passed
	// as it is and must not be modified.
	visit(ctx context.Context, lo, hi int, buf *scanBuf, fn func(*Record) error) error
}

// scanChunk is the number of consecutive ids a scan fetches per batch:
// one run of raw pages, read with one run buffer.
const scanChunk = 64

// scanBuf is what one scan worker reads a heap file through: the batch
// fetch state, and the chunk of records at hand copied out of their
// pages, because the heap streams them in page order and a scan visits
// them in id order.
type scanBuf struct {
	// whole asks for whole records: read from their raw parts and
	// rebuilt (derive), into norm and spec. The scans take them, because
	// raw parts lie in id order, as a scan visits them, and a page of
	// them is read once per chunk; so does a run of NN candidates whose
	// distances read the upper half of the spectrum (WholeSpectrum).
	// Otherwise a paged record is its verify part.
	whole bool
	norm  []float64
	spec  []complex128
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
func (b *scanBuf) chunks(lo, hi int, fill func(c, end int) error, fn func(*Record) error) error {
	for c := lo; c < hi; c += scanChunk {
		m := min(scanChunk, hi-c)
		b.reset(m)
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

// reset makes b a chunk of m records, none of them live.
func (b *scanBuf) reset(m int) {
	b.recs = slices.Grow(b.recs[:0], m)[:m]
	b.live = slices.Grow(b.live[:0], m)[:m]
	clear(b.live)
}

// slots returns the arrays of chunk position i: series, magnitudes and
// phases, each n long.
func (b *scanBuf) slots(i, n int) (raw, mags, phases []float64) {
	arr := b.slab[3*i*n : 3*(i+1)*n]
	return arr[:n:n], arr[n : 2*n : 2*n], arr[2*n : 3*n : 3*n]
}

// set copies the verify part v into chunk position i.
func (b *scanBuf) set(i int, v *heapfile.View) {
	_, mags, phases := b.slots(i, len(v.Mags))
	copy(mags, v.Mags)
	copy(phases, v.Phases)
	b.recs[i] = Record{Mean: v.Mean, Std: v.Std, Mags: mags, Phases: phases}
	b.live[i] = true
}

// setWhole rebuilds the record of the raw part v at chunk position i.
func (b *scanBuf) setWhole(i int, v *heapfile.RawView) {
	n := len(v.Raw)
	raw, mags, phases := b.slots(i, n)
	copy(raw, v.Raw)
	b.norm, b.spec = resized(b.norm, n), resized(b.spec, n)
	mean, std := derive(raw, b.norm, mags, phases, b.spec)
	b.recs[i] = Record{Mean: mean, Std: std, Raw: raw, Mags: mags, Phases: phases}
	b.live[i] = true
}

// load puts the records b.ids of ix at their chunk positions b.at: a
// stored record is copied by value (its arrays are shared), a paged one
// is copied out of its page, its verify part or, when b.whole, rebuilt
// from its raw part. Deleted records stay not live.
func (ix *Index) load(ctx context.Context, b *scanBuf) error {
	if ix.heap == nil {
		for i, id := range b.ids {
			if r := ix.ds.Record(id); r != nil {
				b.recs[b.at[i]], b.live[b.at[i]] = *r, true
			}
		}
		return nil
	}
	if need := 3 * len(b.recs) * ix.n; len(b.slab) < need {
		b.slab = make([]float64, need)
	}
	if b.whole {
		return ix.heap.VisitRaw(ctx, b.ids, &b.fetch, func(i int, v *heapfile.RawView) error {
			if v != nil { // a deleted record stays not live
				b.setWhole(b.at[i], v)
			}
			return nil
		})
	}
	return ix.heap.Visit(ctx, b.ids, &b.fetch, func(i int, v *heapfile.View) error {
		if v != nil {
			b.set(b.at[i], v)
		}
		return nil
	})
}

// visit makes the engine a RecordSource over global ids. A one-shard
// in-memory engine is its dataset; otherwise every chunk of global ids is
// loaded shard by shard, from memory or in runs of heap pages.
func (s *Sharded) visit(ctx context.Context, lo, hi int, b *scanBuf, fn func(*Record) error) error {
	if ds := s.Dataset(); ds != nil {
		return ds.visit(ctx, lo, hi, b, fn)
	}
	return b.chunks(lo, hi, func(c, end int) error {
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
	err := src.visit(nil, 0, src.Len(), &scanBuf{whole: true}, func(r *Record) error {
		out = append(out, &Record{ID: r.ID, Mags: slices.Clone(r.Mags), Phases: slices.Clone(r.Phases)})
		return nil
	})
	return out, err
}
