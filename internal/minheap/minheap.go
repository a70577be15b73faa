// Package minheap is the one priority queue of the best-first searches
// (transformed NN and closest pairs in internal/core): a binary min-heap of values keyed by a float64 lower
// bound. container/heap moves every item through an interface value, one
// allocation per Push and per Pop; a typed heap moves them in its own
// slice.
//
// The sift loops are container/heap's, comparison for comparison, so
// items with equal keys pop in the order they did there: which of two
// equally promising subtrees a search opens first, and with it every
// node-access count, is unchanged.
package minheap

type item[T any] struct {
	key float64
	val T
}

// Heap is a min-heap of T by key. The zero value is an empty heap.
type Heap[T any] struct {
	items []item[T]
}

// Len returns the number of items in the heap.
func (h *Heap[T]) Len() int { return len(h.items) }

// Cap returns how many items the heap holds before its array grows.
func (h *Heap[T]) Cap() int { return cap(h.items) }

// Reset empties the heap and keeps its array, so a search that reuses
// the heap stops growing it once warm.
func (h *Heap[T]) Reset() {
	clear(h.items) // drop what the vals reference
	h.items = h.items[:0]
}

// Push adds v under key.
func (h *Heap[T]) Push(key float64, v T) {
	h.items = append(h.items, item[T]{key, v})
	h.up(len(h.items) - 1)
}

// Pop removes and returns the item with the smallest key. It panics on an
// empty heap.
func (h *Heap[T]) Pop() (float64, T) {
	n := len(h.items) - 1
	h.items[0], h.items[n] = h.items[n], h.items[0]
	h.down(0, n)
	it := h.items[n]
	h.items[n] = item[T]{} // drop what val references
	h.items = h.items[:n]
	return it.key, it.val
}

func (h *Heap[T]) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !(h.items[j].key < h.items[i].key) {
			break
		}
		h.items[i], h.items[j] = h.items[j], h.items[i]
		j = i
	}
}

func (h *Heap[T]) down(i0, n int) {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && h.items[j2].key < h.items[j1].key {
			j = j2 // right child
		}
		if !(h.items[j].key < h.items[i].key) {
			break
		}
		h.items[i], h.items[j] = h.items[j], h.items[i]
		i = j
	}
}
