package parallel

import (
	"container/list"
	"sync"
)

// Outcome classifies how a Cache.Do call was satisfied.
type Outcome int

const (
	// Miss: this caller ran the computation itself.
	Miss Outcome = iota
	// Hit: the value was already resident in the cache.
	Hit
	// Shared: an identical computation was in flight and this caller
	// shared its result (singleflight dedup).
	Shared
)

// Cache is a bounded memoizing cache with LRU eviction and
// singleflight admission: values live under canonical keys, lookups
// refresh recency, inserts beyond capacity evict the least recently
// used entry, and concurrent computations for the same key collapse
// into one (Group). Computation errors are never cached. It is the one
// memoizing cache in the tree: the service's release and dataset
// stores, the engine's per-bandwidth prior cache, and the experiment
// harness's release memo are all instances.
type Cache[V any] struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	items map[string]*list.Element

	flight Group[V]

	// OnEvict, when set before first use, observes evicted keys
	// (metrics).
	OnEvict func(key string)
}

// cacheItem is one resident entry.
type cacheItem[V any] struct {
	key string
	val V
}

// NewCache returns a cache holding at most capacity entries; capacity
// < 1 is clamped to 1 (a cache that can hold nothing would turn every
// request into a recomputation).
func NewCache[V any](capacity int) *Cache[V] {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache[V]{
		cap:   capacity,
		ll:    list.New(),
		items: map[string]*list.Element{},
	}
}

// Get returns the resident value for key, refreshing its recency.
func (c *Cache[V]) Get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*cacheItem[V]).val, true
	}
	var zero V
	return zero, false
}

// Put inserts (or refreshes) key, evicting the least recently used
// entries when over capacity. The eviction callback is caller-supplied
// code of unknown cost, so evicted keys are collected under the lock
// and the callback runs after release — a callback that blocked (or
// re-entered the cache) while c.mu was held would convoy every reader.
func (c *Cache[V]) Put(key string, val V) {
	var evicted []string
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		el.Value.(*cacheItem[V]).val = val
		c.ll.MoveToFront(el)
		c.mu.Unlock()
		return
	}
	c.items[key] = c.ll.PushFront(&cacheItem[V]{key: key, val: val})
	for c.ll.Len() > c.cap {
		el := c.ll.Back()
		it := el.Value.(*cacheItem[V])
		c.ll.Remove(el)
		delete(c.items, it.key)
		evicted = append(evicted, it.key)
	}
	c.mu.Unlock()
	if c.OnEvict != nil {
		for _, k := range evicted {
			c.OnEvict(k)
		}
	}
}

// Len returns the number of resident entries.
func (c *Cache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Do returns the value for key: from the cache when resident, from an
// in-flight identical computation when one exists, and by running
// compute (then inserting the result) otherwise. The Outcome tells the
// three apart; a failed call reports Miss.
func (c *Cache[V]) Do(key string, compute func() (V, error)) (V, Outcome, error) {
	if v, ok := c.Get(key); ok {
		return v, Hit, nil
	}
	// Re-check residency inside the flight: a caller that missed above
	// while an identical computation was finishing would otherwise
	// become a fresh leader and recompute a value that just landed.
	computed := false
	v, shared, err := c.flight.Do(key, func() (V, error) {
		if v, ok := c.Get(key); ok {
			return v, nil
		}
		computed = true
		v, err := compute()
		if err != nil {
			var zero V
			return zero, err
		}
		c.Put(key, v)
		return v, nil
	})
	if err != nil {
		var zero V
		return zero, Miss, err
	}
	switch {
	case shared:
		return v, Shared, nil
	case computed:
		return v, Miss, nil
	default:
		return v, Hit, nil
	}
}
