package core

import (
	"sync"
	"unsafe"

	"tsq/internal/geom"
	"tsq/internal/heapfile"
	"tsq/internal/minheap"
	"tsq/internal/rtree"
	"tsq/internal/transform"
)

// scratch holds the buffers a probe fills and empties on every query,
// kept between queries so a steady workload stops allocating them. A
// range probe takes one (rangeGroup) for both of its stages, and one
// more per extra worker when verification is parallel, so workers never
// share one; an NN search, a join, a closest-pairs search and a
// planner's counting traversals take one each.
// Nothing in a scratch outlives the call that acquired it: what a query
// returns is copied out first.
type scratch struct {
	// Filter stage: the group's members, the rectangle every
	// internal entry is transformed into (low corner, then high), the
	// entries of the leaf at hand that passed the admission test, and
	// the ids of those the lower bound let through — the candidates.
	sub      []transform.Transform
	rect     []float64
	admitted []int32
	cands    []int64

	// The group (newGroup) and the stage filter runs on it (newStage):
	// the corners of the lifted MBRs and of the query rectangle (mult,
	// add, query; low then high), the coefficients the box leaves
	// free, the phase dimensions of a one-sided query, the admission test
	// of each dimension and the order a leaf entry meets them in, and the
	// lower-bound cascade with its skip bound once, so that arming a
	// stage allocates no method value. An NN search arms the same
	// cascade.
	stageRects []float64
	free       []bool
	phaseDims  []bool
	dims       []dimTest
	casc       lbCascade
	skip       func(geom.Point) int

	// Verify stage: the ids to fetch when they are not the filter's
	// candidates (an NN leaf's), the record decode slot
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

	// NN search: the queue of nodes and leaf entries, each shard's tree
	// slots, the k best so far, the run of entries popped since the last
	// node, its records, and what reading them ahead of their
	// verification summed.
	queue  minheap.Heap[nnItem]
	slots  []*rtree.Slots
	top    []NNMatch
	run    []nnCand
	runBuf scanBuf
	warm   float64

	// A candidate rebuilt from its raw part when the group needs whole
	// spectra (verifySerial), and the transform buffer the rebuilding
	// takes. Their arrays are one series length each and are left out of
	// bytes().
	whole Record
	spec  []complex128
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
	// matches most of the relation). The heap's run buffer stops at
	// heapfile's 16-page runs.
	maxScratchBytes = 384 << 10
	// maxIdleScratch bounds what a burst of concurrent probes leaves
	// behind.
	maxIdleScratch = 8
)

// bytes is what sc holds on to, less what cannot grow: rect, admitted,
// the stage's rectangles and free coefficients are bounded by the
// dimension and a leaf's fan-out.
func (sc *scratch) bytes() int {
	return cap(sc.sub)*int(unsafe.Sizeof(transform.Transform{})) +
		cap(sc.casc.term)*int(unsafe.Sizeof(transform.Term{})) + 8*cap(sc.casc.w) + cap(sc.casc.keep) +
		cap(sc.casc.query)*int(unsafe.Sizeof(transform.Scaled{})) +
		8*cap(sc.cands) +
		8*cap(sc.ids) +
		sc.fetch.Bytes() +
		cap(sc.matches)*int(unsafe.Sizeof(Match{})) +
		cap(sc.spans)*int(unsafe.Sizeof(matchSpan{})) +
		sc.queue.Cap()*int(unsafe.Sizeof(nnItem{})+8) +
		cap(sc.top)*int(unsafe.Sizeof(NNMatch{})) +
		cap(sc.run)*int(unsafe.Sizeof(nnCand{})) +
		cap(sc.runBuf.recs)*int(unsafe.Sizeof(Record{})) + 8*cap(sc.runBuf.slab) + sc.runBuf.fetch.Bytes()
}

// idle is a shard's free list of buffers of one kind, a probe's scratch
// or a query point's buffer, kept for the next query and never more than
// maxIdleScratch of them. It is mutex-guarded rather than a sync.Pool for
// the reason rtree.Slots gives: under -race a sync.Pool drops Puts at
// random, and the allocation-count tests run under -race.
type idle[T any] struct {
	mu    sync.Mutex
	items []*T
}

// get returns an idle buffer, or a new one.
func (l *idle[T]) get() *T {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n := len(l.items); n > 0 {
		x := l.items[n-1]
		l.items = l.items[:n-1]
		return x
	}
	return new(T)
}

// put keeps x for the next get, unless the list is full.
func (l *idle[T]) put(x *T) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.items) < maxIdleScratch {
		l.items = append(l.items, x)
	}
}

// acquireScratch returns an idle scratch of ix, or a new one.
func (ix *Index) acquireScratch() *scratch { return ix.idleScratch.get() }

// releaseScratch returns sc to ix for the next probe, which empties each
// buffer where it starts to fill it.
func (ix *Index) releaseScratch(sc *scratch) {
	if sc.bytes() > maxScratchBytes {
		return
	}
	// An idle scratch must not keep the caller's transformation set, the
	// records of its last NN run or its last pair alive.
	clear(sc.sub[:cap(sc.sub)])
	clear(sc.runBuf.recs[:cap(sc.runBuf.recs)])
	sc.pair.Init(nil, false)
	ix.idleScratch.put(sc)
}
