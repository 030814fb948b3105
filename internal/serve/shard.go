package serve

import (
	"hash/maphash"
	"runtime"
	"sync"
	"sync/atomic"
)

// This file is the sharded schedule cache behind Service — the
// Doppel-style contention split of one mutex-guarded map: the key space
// is partitioned by hash across power-of-two shards, each with its own
// mutex, its own singleflight protocol (the entry done-channel
// handshake, per shard) and its own recency list, so concurrent
// requests for different keys never touch the same lock. Only the
// completed-entry bound is global, enforced by one atomic that changes
// at search rate (a few per second), not at hit rate (millions per
// second).

// defaultShardCount derives the shard fan-out from GOMAXPROCS: the
// next power of two at or above it, floored at 8 (daemons routinely
// serve more concurrent connections than cores, and empty shards cost
// a map header each) and capped at 256.
func defaultShardCount() int {
	n := runtime.GOMAXPROCS(0)
	if n < 8 {
		n = 8
	}
	if n > 256 {
		n = 256
	}
	return nextPow2(n)
}

// nextPow2 returns the smallest power of two >= n.
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// cacheShard is one hash partition: its own mutex, its own entry map,
// its own recency list. Shards are separately heap-allocated (the
// cache holds pointers), so two shards' mutexes never share a cache
// line.
type cacheShard struct {
	mu      sync.Mutex
	entries map[string]*entry
	lru     lruList // completed entries only, MRU first
}

// shardedCache is Service's schedule cache: key-addressed singleflight
// slots and bounded retention of completed entries.
type shardedCache struct {
	seed   maphash.Seed
	mask   uint64
	shards []*cacheShard

	// maxEntries bounds resident *completed* entries globally;
	// completed tracks them. The bound is checked on complete (search
	// rate) and never on the hit path, so the shared atomic stays cold.
	// In-flight entries are never linked into any recency list and are
	// therefore unevictable — and they do not count against the bound,
	// so a burst of transient failing keys cannot erode the resident
	// working set.
	maxEntries int64
	completed  atomic.Int64
	inflight   atomic.Int64
}

func newShardedCache(shards int, maxEntries int) *shardedCache {
	if shards <= 0 {
		shards = defaultShardCount()
	}
	shards = nextPow2(shards)
	if maxEntries <= 0 {
		maxEntries = DefaultMaxCachedSchedules
	}
	c := &shardedCache{
		seed:       maphash.MakeSeed(),
		mask:       uint64(shards - 1),
		shards:     make([]*cacheShard, shards),
		maxEntries: int64(maxEntries),
	}
	for i := range c.shards {
		sh := &cacheShard{entries: make(map[string]*entry)}
		sh.lru.init()
		c.shards[i] = sh
	}
	return c
}

// shardIndex hashes the key onto a shard.
//
//scar:hotpath
func (c *shardedCache) shardIndex(key string) uint64 {
	return maphash.String(c.seed, key) & c.mask
}

// lookupOrStart returns the entry for key. created reports that no
// entry existed: the caller is now the leader of a new in-flight entry
// and must fill it, then call either complete or discard, and
// close(e.done). When created is false the caller is a follower (or a
// plain hit) and must wait on e.done before reading result fields.
//
// lookupOrStart's hit path — the singleflight fast path every cached
// request takes — must not allocate; only the miss path below the
// early return constructs state.
//
//scar:hotpath
func (c *shardedCache) lookupOrStart(key string) (*entry, bool) {
	sh := c.shards[c.shardIndex(key)]
	sh.mu.Lock()
	if e, ok := sh.entries[key]; ok {
		if e.completed {
			sh.lru.moveToFront(e)
		}
		sh.mu.Unlock()
		return e, false
	}
	e := &entry{done: make(chan struct{}), key: key} //scar:hotalloc miss path: constructs the in-flight entry once per search; cache hits return above
	sh.entries[key] = e
	sh.mu.Unlock()
	c.inflight.Add(1)
	return e, true
}

// complete publishes a successfully filled entry: it becomes cacheable,
// recency-tracked and evictable. Leader-only, called before
// close(e.done).
func (c *shardedCache) complete(key string, e *entry) {
	sh := c.shards[c.shardIndex(key)]
	sh.mu.Lock()
	e.completed = true
	sh.lru.pushFront(e)
	// The global bound is enforced here, at completion: when the fleet
	// of shards collectively holds too many completed entries, this
	// shard sheds its own least-recently-used one (approximate global
	// LRU — the hot keys of every shard survive, which is the property
	// that matters). If this shard holds nothing older, the entry just
	// published is its own LRU tail and gets shed, which is correct:
	// the cache is full elsewhere.
	if c.completed.Add(1) > c.maxEntries {
		if old := sh.lru.back(); old != nil {
			sh.lru.remove(old)
			delete(sh.entries, old.key)
			c.completed.Add(-1)
		}
	}
	sh.mu.Unlock()
	c.inflight.Add(-1)
}

// discard removes a failed or transient entry so the key can be
// retried. Leader-only, called before close(e.done).
func (c *shardedCache) discard(key string, e *entry) {
	sh := c.shards[c.shardIndex(key)]
	sh.mu.Lock()
	// The leader owns its in-flight entry exclusively (eviction only
	// touches completed entries), so the slot still holds e.
	delete(sh.entries, key)
	sh.mu.Unlock()
	c.inflight.Add(-1)
}

// sizes reports resident completed entries and in-flight searches.
func (c *shardedCache) sizes() (completed, inflight int) {
	return int(c.completed.Load()), int(c.inflight.Load())
}
