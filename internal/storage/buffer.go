package storage

import "sync"

// maxPoolShards bounds the lock striping of the buffer pool. The actual
// shard count never exceeds the pool capacity, so every shard owns at
// least one frame.
const maxPoolShards = 16

// bufferPool is a simple LRU page cache — one shard of the striped pool.
// It is not safe for concurrent use on its own; the owning poolShard's
// mutex serializes access to it.
//
// Frames are recycled, never dropped: a put on a full pool overwrites
// the least recently used frame in place, and evict and reset park
// frames on a free list the next put draws from. A pool therefore
// allocates only while it fills, one frame at a time, and holds at most
// capacity frames however long it lives.
type bufferPool struct {
	capacity int
	pageSize int
	// lru is the sentinel of the circular recency list: lru.next is the
	// most recently used frame, lru.prev the next victim.
	lru    frame
	frames map[PageID]*frame
	free   *frame // parked frames, linked through next
}

type frame struct {
	id         PageID
	data       []byte
	prev, next *frame
}

func newBufferPool(capacity, pageSize int) *bufferPool {
	b := &bufferPool{
		capacity: capacity,
		pageSize: pageSize,
		frames:   make(map[PageID]*frame, capacity),
	}
	b.lru.prev, b.lru.next = &b.lru, &b.lru
	return b
}

func (b *bufferPool) unlink(f *frame) {
	f.prev.next, f.next.prev = f.next, f.prev
}

func (b *bufferPool) pushFront(f *frame) {
	f.prev, f.next = &b.lru, b.lru.next
	f.prev.next, f.next.prev = f, f
}

// get returns the cached contents of id, if present, and marks it recently
// used. The returned slice must not be retained.
func (b *bufferPool) get(id PageID) ([]byte, bool) {
	f, ok := b.frames[id]
	if !ok {
		return nil, false
	}
	b.unlink(f)
	b.pushFront(f)
	return f.data, true
}

// put caches the contents of id. On a full pool the least recently used
// frame is re-keyed and overwritten in place.
func (b *bufferPool) put(id PageID, data []byte) {
	f, ok := b.frames[id]
	if ok {
		b.unlink(f)
	} else {
		switch {
		case len(b.frames) >= b.capacity:
			f = b.lru.prev // the victim
			b.unlink(f)
			delete(b.frames, f.id)
		case b.free != nil:
			f, b.free = b.free, b.free.next
		default:
			f = &frame{data: make([]byte, b.pageSize)}
		}
		f.id = id
		b.frames[id] = f
	}
	copy(f.data, data)
	b.pushFront(f)
}

// park takes f out of the recency list and the index and keeps it for
// the next put.
func (b *bufferPool) park(f *frame) {
	b.unlink(f)
	delete(b.frames, f.id)
	f.prev, f.next = nil, b.free
	b.free = f
}

// evict drops page id from the pool if present.
func (b *bufferPool) evict(id PageID) {
	if f, ok := b.frames[id]; ok {
		b.park(f)
	}
}

// reset empties the pool.
func (b *bufferPool) reset() {
	for b.lru.next != &b.lru {
		b.park(b.lru.next)
	}
}

// shardedPool is the Manager's buffer pool, lock-striped by PageID: shard
// i owns every page with id % shards == i, under its own mutex and its own
// LRU list, so concurrent readers of distinct pages rarely contend. The
// shard of a page is a pure function of its id and each shard's LRU is
// deterministic, so a serial access sequence produces the same hit/miss
// (and therefore disk-access) counts on every run.
type shardedPool struct {
	shards []poolShard
}

type poolShard struct {
	mu   sync.Mutex
	pool *bufferPool
	_    [40]byte // pad to keep hot shard locks off one cache line
}

// newShardedPool distributes capacity pages over min(maxPoolShards,
// capacity) shards; the first capacity%shards shards hold one extra frame.
func newShardedPool(capacity, pageSize int) *shardedPool {
	n := maxPoolShards
	if n > capacity {
		n = capacity
	}
	s := &shardedPool{shards: make([]poolShard, n)}
	base, extra := capacity/n, capacity%n
	for i := range s.shards {
		c := base
		if i < extra {
			c++
		}
		s.shards[i].pool = newBufferPool(c, pageSize)
	}
	return s
}

func (s *shardedPool) shard(id PageID) *poolShard {
	return &s.shards[uint(id)%uint(len(s.shards))]
}

// get copies the cached contents of id into dst and reports whether the
// page was present. The copy happens under the shard lock so a concurrent
// put of the same page cannot tear it.
func (s *shardedPool) get(id PageID, dst []byte) bool {
	sh := s.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	data, ok := sh.pool.get(id)
	if ok {
		copy(dst, data)
	}
	return ok
}

// put caches the contents of id.
func (s *shardedPool) put(id PageID, data []byte) {
	sh := s.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.pool.put(id, data)
}

// evict drops page id from its shard if present.
func (s *shardedPool) evict(id PageID) {
	sh := s.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.pool.evict(id)
}

// reset empties every shard.
func (s *shardedPool) reset() {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		sh.pool.reset()
		sh.mu.Unlock()
	}
}
