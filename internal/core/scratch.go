package core

import (
	"unsafe"

	"tsq/internal/heapfile"
	"tsq/internal/transform"
)

// scratch holds the buffers a probe fills and empties on every query,
// kept between queries so a steady workload stops allocating them. A
// range probe takes one for its filter stage (rangeGroup) and one per
// verifySerial call, so parallel verification workers never share one;
// an NN search, a join and a closest-pairs search take one each. Nothing
// in a scratch outlives the call that acquired it: what a query returns
// is copied out first.
type scratch struct {
	// Filter stage: the admitted candidates and the arena their feature
	// points are copied into.
	cands []candidate
	feats featArena

	// Verify stage: the candidates the lower bound let through, the ids
	// of those to fetch, the record decode slot and run buffer, the
	// matches in the order their pages streamed by, and each fetched
	// id's span of them.
	survivors []candidate
	ids       []int64
	fetch     heapfile.Scratch
	matches   []Match
	spans     []matchSpan

	// Verification, of a range probe's survivors, an NN search's leaf
	// candidates or a join's candidate pairs: the pair kernel, which
	// keeps one cosine per coefficient of the record and query at hand
	// for all the transformations of the rectangle. Its buffer is one
	// series length and is left out of bytes().
	pair transform.Pair

	// NN search: one leaf's candidates and their spectra, copied out of
	// the decode slot because the leaf is verified in entry order.
	leaf []nnCand
	slab []float64
}

// matchSpan is the half-open range of scratch.matches one verified
// record produced.
type matchSpan struct{ lo, hi int }

const (
	// maxScratchBytes bounds what one idle scratch may hold on to: a
	// scratch grown past it by a large query is dropped on release
	// rather than kept. 384 KiB is room for the filter stage of a probe
	// that admits about 4 000 candidates; above it the benchmark's
	// file-backed range workload ends with more than 1 % more live heap
	// than without the free list.
	maxScratchBytes = 384 << 10
	// maxIdleScratch bounds what a burst of concurrent probes leaves
	// behind.
	maxIdleScratch = 8
)

func (sc *scratch) bytes() int {
	return cap(sc.cands)*int(unsafe.Sizeof(candidate{})) +
		sc.feats.bytes() +
		cap(sc.survivors)*int(unsafe.Sizeof(candidate{})) +
		8*cap(sc.ids) +
		sc.fetch.Bytes() +
		cap(sc.matches)*int(unsafe.Sizeof(Match{})) +
		cap(sc.spans)*int(unsafe.Sizeof(matchSpan{})) +
		cap(sc.leaf)*int(unsafe.Sizeof(nnCand{})) +
		8*cap(sc.slab)
}

// acquireScratch returns an idle scratch of ix, or a new one. The free
// list is per index and mutex-guarded rather than a sync.Pool for the
// reason rtree.Slots gives: under -race a sync.Pool drops Puts at
// random, and the allocation-count tests run under -race.
func (ix *Index) acquireScratch() *scratch {
	ix.scratchMu.Lock()
	defer ix.scratchMu.Unlock()
	if n := len(ix.idleScratch); n > 0 {
		sc := ix.idleScratch[n-1]
		ix.idleScratch = ix.idleScratch[:n-1]
		return sc
	}
	return new(scratch)
}

// releaseScratch returns sc to ix for the next probe, which empties each
// buffer where it starts to fill it.
func (ix *Index) releaseScratch(sc *scratch) {
	if sc.bytes() > maxScratchBytes {
		return
	}
	// The survivors' feature points are slices of another scratch's arena
	// (the filter stage's); left in place they would keep its chunks
	// alive after that scratch was dropped.
	clear(sc.survivors)
	sc.pair.Init(nil, false) // likewise the transformation set and the last pair
	ix.scratchMu.Lock()
	defer ix.scratchMu.Unlock()
	if len(ix.idleScratch) < maxIdleScratch {
		ix.idleScratch = append(ix.idleScratch, sc)
	}
}
