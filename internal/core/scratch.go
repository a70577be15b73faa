package core

import (
	"unsafe"

	"tsq/internal/geom"
	"tsq/internal/heapfile"
	"tsq/internal/transform"
)

// scratch holds the buffers a probe fills and empties on every query,
// kept between queries so a steady workload stops allocating them. A
// range probe takes one (rangeGroup) for both of its stages, and one
// more per extra worker when verification is parallel, so workers never
// share one; an NN search, a join, a closest-pairs search, a
// planner's counting traversals and a stored query point take one each.
// Nothing in a scratch outlives the call that acquired it: what a query
// returns is copied out first.
type scratch struct {
	// Filter stage: the rectangle's transformations, the rectangle every
	// internal entry is transformed into (low corner, then high), the
	// entries of the leaf at hand that passed the admission test, and
	// the ids of those the lower bound let through — the candidates.
	sub      []transform.Transform
	rect     []float64
	admitted []int32
	cands    []int64

	// The stage filter runs (newStage): the corners of the lifted MBRs
	// and of the query rectangle (mult, add, query; low then high), the
	// phase dimensions of a one-sided one, the group of every
	// transformation when the query names none, and the lower-bound
	// cascade with its skip bound once, so that arming a stage allocates
	// no method value. An NN search arms the same cascade.
	stageRects []float64
	phaseDims  []bool
	all        []int
	casc       lbCascade
	skip       func(geom.Point) int

	// Verify stage: the ids to fetch when they are not the filter's
	// candidates (an NN leaf's, a query point), the record decode slot
	// and run buffer, the matches in the order their pages streamed by,
	// and each fetched id's span of them.
	ids     []int64
	fetch   heapfile.Scratch
	matches []Match
	spans   []matchSpan

	// Verification, of a range probe's candidates, an NN search's leaf
	// candidates or a join's candidate pairs: the pair kernel, which
	// keeps one cosine per coefficient of the record and query at hand
	// for all the transformations of the rectangle. Its buffer is one
	// series length and is left out of bytes().
	pair transform.Pair

	// NN search: one leaf's candidates and their spectra, copied out of
	// the decode slot because the leaf is verified in entry order.
	leaf []nnCand
	slab []float64

	// A query by id on a paged index: the stored query point, decoded
	// from its page (Index.point). Its arrays are one series length each
	// and are left out of bytes().
	point Record
}

// matchSpan is the half-open range of scratch.matches one verified
// record produced.
type matchSpan struct{ lo, hi int }

const (
	// maxScratchBytes bounds what one idle scratch may hold on to: a
	// scratch grown past it is dropped on release rather than kept. No
	// buffer grows with the entries a probe admits any more, only with
	// what it fetches and returns, so an ordinary query stays far below
	// the cap. It is there for the pathological one (a threshold that
	// matches most of the relation) and for the heap's run buffer, which
	// takes a run of consecutive record pages whole: 1 MiB once a probe
	// fetches 256 neighbouring records.
	maxScratchBytes = 384 << 10
	// maxIdleScratch bounds what a burst of concurrent probes leaves
	// behind.
	maxIdleScratch = 8
)

// bytes is what sc holds on to, less what cannot grow: rect, admitted and
// the stage's rectangles are bounded by the dimension and a leaf's
// fan-out.
func (sc *scratch) bytes() int {
	return cap(sc.sub)*int(unsafe.Sizeof(transform.Transform{})) +
		8*cap(sc.all) +
		cap(sc.casc.term)*int(unsafe.Sizeof(lbTerm{})) + 8*cap(sc.casc.w) + cap(sc.casc.keep) +
		8*cap(sc.cands) +
		8*cap(sc.ids) +
		sc.fetch.Bytes() +
		cap(sc.matches)*int(unsafe.Sizeof(Match{})) +
		cap(sc.spans)*int(unsafe.Sizeof(matchSpan{})) +
		cap(sc.leaf)*int(unsafe.Sizeof(nnCand{})) +
		8*cap(sc.slab)
}

// identity returns the group of every transformation of an n-set,
// 0..n-1, out of sc.all, which only ever holds such a prefix.
func (sc *scratch) identity(n int) []int {
	for len(sc.all) < n {
		sc.all = append(sc.all, len(sc.all))
	}
	return sc.all[:n]
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
	// An idle scratch must not keep the caller's transformation set and
	// last pair alive.
	clear(sc.sub[:cap(sc.sub)])
	sc.pair.Init(nil, false)
	ix.scratchMu.Lock()
	defer ix.scratchMu.Unlock()
	if len(ix.idleScratch) < maxIdleScratch {
		ix.idleScratch = append(ix.idleScratch, sc)
	}
}
