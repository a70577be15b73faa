package minheap

import (
	"container/heap"
	"math/rand"
	"testing"
)

// refItem and refHeap are the container/heap queue the searches used
// before: the order Heap must reproduce, ties included.
type refItem struct {
	key float64
	val int
}

type refHeap []refItem

func (h refHeap) Len() int            { return len(h) }
func (h refHeap) Less(i, j int) bool  { return h[i].key < h[j].key }
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(refItem)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// TestPopOrderEqualsContainerHeap drives both heaps with the same random
// interleaving of pushes and pops over keys drawn from a handful of
// values, so most comparisons are ties: every pop must return the same
// payload, not only the same key.
func TestPopOrderEqualsContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		var h Heap[int]
		ref := &refHeap{}
		distinct := 1 + rng.Intn(6)
		next := 0
		for step := 0; step < 400; step++ {
			if ref.Len() == 0 || rng.Intn(3) > 0 {
				key := float64(rng.Intn(distinct))
				h.Push(key, next)
				heap.Push(ref, refItem{key, next})
				next++
				continue
			}
			want := heap.Pop(ref).(refItem)
			key, val := h.Pop()
			if key != want.key || val != want.val {
				t.Fatalf("trial %d step %d: popped (%v, %d), container/heap pops (%v, %d)", trial, step, key, val, want.key, want.val)
			}
		}
		for ref.Len() > 0 {
			want := heap.Pop(ref).(refItem)
			if key, val := h.Pop(); key != want.key || val != want.val {
				t.Fatalf("trial %d drain: popped (%v, %d), container/heap pops (%v, %d)", trial, key, val, want.key, want.val)
			}
		}
		if h.Len() != 0 {
			t.Fatalf("trial %d: %d items left after the reference drained", trial, h.Len())
		}
	}
}

// TestPushPopDoNotAllocate: once the slice has grown, a push and a pop
// move the item inside it.
func TestPushPopDoNotAllocate(t *testing.T) {
	var h Heap[[2]int64]
	for i := 0; i < 64; i++ {
		h.Push(float64(i%7), [2]int64{int64(i), 0})
	}
	allocs := testing.AllocsPerRun(100, func() {
		key, v := h.Pop()
		h.Push(key+1, v)
	})
	if allocs != 0 {
		t.Fatalf("pop+push allocates %v times, want 0", allocs)
	}
}

// TestResetKeepsArray: a reset heap is empty, keeps its capacity and
// drops what its items referenced, so refilling it to the same size
// allocates nothing and pops in key order again.
func TestResetKeepsArray(t *testing.T) {
	var h Heap[*int]
	fill := func() {
		for i := 0; i < 64; i++ {
			v := i
			h.Push(float64((i*37)%64), &v)
		}
	}
	fill()
	c := h.Cap()
	h.Reset()
	if h.Len() != 0 || h.Cap() != c {
		t.Fatalf("after Reset: Len %d, Cap %d; want 0, %d", h.Len(), h.Cap(), c)
	}
	for _, it := range h.items[:c] {
		if it.val != nil {
			t.Fatal("Reset kept a reference to a dropped item")
		}
	}
	var v int
	allocs := testing.AllocsPerRun(20, func() {
		for i := 0; i < 64; i++ {
			h.Push(float64((i*37)%64), &v)
		}
		h.Reset()
	})
	if allocs != 0 {
		t.Fatalf("refilling a reset heap allocates %v times, want 0", allocs)
	}
	fill()
	for want := 0.0; h.Len() > 0; want++ {
		if key, _ := h.Pop(); key != want {
			t.Fatalf("popped key %v, want %v", key, want)
		}
	}
}
