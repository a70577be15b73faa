package storage

import (
	"encoding/binary"
	"math/rand"
	"testing"
)

// refLRU is the reference the buffer pool is checked against: the
// resident page ids of one shard, most recently used first.
type refLRU struct {
	capacity int
	ids      []PageID
}

func (r *refLRU) get(id PageID) bool {
	for i, x := range r.ids {
		if x == id {
			copy(r.ids[1:i+1], r.ids[:i])
			r.ids[0] = id
			return true
		}
	}
	return false
}

func (r *refLRU) put(id PageID) {
	if r.get(id) {
		return
	}
	if len(r.ids) >= r.capacity {
		r.ids = r.ids[:len(r.ids)-1] // the victim
	}
	r.ids = append([]PageID{id}, r.ids...)
}

func (r *refLRU) evict(id PageID) {
	if r.get(id) {
		r.ids = r.ids[1:]
	}
}

// TestBufferPoolMatchesReferenceLRU replays a random history of gets,
// puts, evictions and resets against the pool and against refLRU per
// shard, and after every step compares the hit or miss, the page
// contents and the whole resident set, so a different victim shows at
// the step that chose it. Capacity 1 and capacities below the shard
// count are included: there every shard holds one frame.
func TestBufferPoolMatchesReferenceLRU(t *testing.T) {
	const pageSize, universe = 16, 90
	for _, capacity := range []int{1, 2, 5, 15, 16, 17, 40, 64} {
		rng := rand.New(rand.NewSource(int64(capacity)))
		pool := newShardedPool(capacity, pageSize)
		refs := make([]refLRU, len(pool.shards))
		for i := range refs {
			refs[i].capacity = pool.shards[i].pool.capacity
		}
		ref := func(id PageID) *refLRU { return &refs[int(id)%len(refs)] }
		version := make(map[PageID]uint64) // what the last put of a page wrote
		buf := make([]byte, pageSize)
		for step := 0; step < 20000; step++ {
			id := PageID(1 + rng.Intn(universe))
			switch op := rng.Intn(100); {
			case op < 45:
				hit := pool.get(id, buf)
				if want := ref(id).get(id); hit != want {
					t.Fatalf("capacity %d step %d: get(%d) hit=%v, reference %v", capacity, step, id, hit, want)
				}
				if hit && binary.LittleEndian.Uint64(buf) != version[id] {
					t.Fatalf("capacity %d step %d: get(%d) returned stale contents", capacity, step, id)
				}
			case op < 90:
				version[id] = uint64(step)<<8 | uint64(id)
				binary.LittleEndian.PutUint64(buf, version[id])
				pool.put(id, buf)
				ref(id).put(id)
			case op < 99:
				pool.evict(id)
				ref(id).evict(id)
			default:
				pool.reset()
				for i := range refs {
					refs[i].ids = nil
				}
			}
			for i := range pool.shards {
				b := pool.shards[i].pool
				if len(b.frames) != len(refs[i].ids) {
					t.Fatalf("capacity %d step %d: shard %d holds %d pages, reference %d", capacity, step, i, len(b.frames), len(refs[i].ids))
				}
				// Walk the recency list: same pages in the same order.
				f := b.lru.next
				for _, want := range refs[i].ids {
					if f.id != want || b.frames[want] != f {
						t.Fatalf("capacity %d step %d: shard %d recency order diverges at page %d (pool has %d)", capacity, step, i, want, f.id)
					}
					f = f.next
				}
				if f != &b.lru {
					t.Fatalf("capacity %d step %d: shard %d list longer than its index", capacity, step, i)
				}
			}
		}
	}
}

// TestBufferPoolFullPutAllocatesNothing pins frame recycling: once a
// pool is full, caching a new page re-keys the victim's frame and
// allocates nothing, and a pool emptied by reset refills from the frames
// it parked.
func TestBufferPoolFullPutAllocatesNothing(t *testing.T) {
	const pageSize, capacity = 256, 64
	pool := newShardedPool(capacity, pageSize)
	data := make([]byte, pageSize)
	next := PageID(1)
	for ; next <= 4*capacity; next++ {
		pool.put(next, data)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		pool.put(next, data)
		next++
	}); allocs != 0 {
		t.Errorf("put on a full pool allocates %.0f times, want 0", allocs)
	}
	pool.reset()
	if allocs := testing.AllocsPerRun(capacity, func() {
		pool.put(next, data)
		next++
	}); allocs != 0 {
		t.Errorf("refilling a reset pool allocates %.0f times per put, want 0", allocs)
	}
}

// TestManagersDoNotShareFrames: recycled frames stay inside the pool
// that allocated them. Two managers cache the same page ids with
// different contents through evictions, drops and refills; each must
// keep reading its own bytes, and no frame buffer may appear in both.
func TestManagersDoNotShareFrames(t *testing.T) {
	const pageSize, pages = 64, 40
	var mgrs [2]*Manager
	for i := range mgrs {
		mgrs[i] = NewManager(Options{PageSize: pageSize, BufferPages: 8})
		defer mgrs[i].Close()
		for p := 0; p < pages; p++ {
			if _, err := mgrs[i].Alloc(); err != nil {
				t.Fatal(err)
			}
		}
	}
	rng := rand.New(rand.NewSource(5))
	buf := make([]byte, pageSize)
	want := [2]map[PageID]byte{{}, {}}
	for step := 0; step < 5000; step++ {
		i, id := rng.Intn(2), PageID(1+rng.Intn(pages))
		switch op := rng.Intn(20); {
		case op == 0:
			mgrs[i].DropBuffer()
		case op == 1:
			mgrs[i].Evict(id)
		case op < 10:
			fill := byte(step<<1 | i)
			for j := range buf {
				buf[j] = fill
			}
			if err := mgrs[i].Write(id, buf); err != nil {
				t.Fatal(err)
			}
			want[i][id] = fill
		default:
			if err := mgrs[i].Read(id, buf); err != nil {
				t.Fatal(err)
			}
			if buf[0] != want[i][id] || buf[pageSize-1] != want[i][id] {
				t.Fatalf("step %d: manager %d page %d reads %#x, wrote %#x", step, i, id, buf[0], want[i][id])
			}
		}
	}
	owner := make(map[*byte]int) // frame buffer -> the manager holding it
	for i, m := range mgrs {
		for s := range m.pool.shards {
			b := m.pool.shards[s].pool
			held := []*frame{}
			for f := b.lru.next; f != &b.lru; f = f.next {
				held = append(held, f)
			}
			for f := b.free; f != nil; f = f.next {
				held = append(held, f)
			}
			for _, f := range held {
				if prev, ok := owner[&f.data[0]]; ok && prev != i {
					t.Fatal("a frame buffer is held by both managers")
				}
				owner[&f.data[0]] = i
			}
		}
	}
}
