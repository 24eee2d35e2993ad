// Package memo is the one build-once cache every memoizing layer of the
// repository sits on: the batch runner's session results, the artifact
// store's traces, runtime events, fingerprints, learners and corpora, the
// campaign server's figure tables and the webapp page-tree masters.
//
// A Cache runs a key's build at most once while the key is resident:
// concurrent requesters of a key that is being built block on that build
// and share its value and error. Entries may be bounded by an LRU
// (SetMax) that never evicts an entry still being built, and may sit on a
// persistent tier (Persist) — a store.Store reached through
// store.GetOrBuild, whose own singleflight keeps builds exactly-once across
// every cache sharing the directory. A stored value that fails to decode is
// rebuilt and the rebuilt value is written through, so a bad record costs
// one build rather than failing every later process.
package memo

import (
	"container/list"
	"sync"
	"sync/atomic"

	"repro/internal/store"
)

// Source says how a Get was answered.
type Source int

const (
	// Hit: the key was resident, or being built by another caller whose
	// result this call shared.
	Hit Source = iota
	// Built: this call ran build (successfully or not).
	Built
	// Stored: the value was decoded from the persistent tier; also the
	// source of a build error shared from another cache's in-flight build
	// of the same store key.
	Stored
)

// Codec maps a cache to its persistent tier: Key renders the store key,
// Encode and Decode convert values to and from stored bytes.
type Codec[K comparable, V any] struct {
	Key    func(K) string
	Encode func(V) ([]byte, error)
	Decode func([]byte) (V, error)
}

// Stats snapshots a cache's counters. Every Get counts exactly once in
// Hits, Builds or StoreHits.
type Stats struct {
	Hits      int64
	Builds    int64
	StoreHits int64
	// Evictions counts entries dropped by the LRU bound.
	Evictions int64
	// Entries is the number of resident entries, in-flight builds included.
	Entries int64
}

// entry is one key's slot. done closes once val and err are final; elem is
// the LRU link, set under Cache.mu when the build completes.
type entry[V any] struct {
	done chan struct{}
	val  V
	err  error
	elem *list.Element
}

// Cache is a concurrent build-once map. The zero value is not usable; call
// New. All methods are safe for concurrent use.
type Cache[K comparable, V any] struct {
	mu      sync.Mutex
	m       map[K]*entry[V]
	lru     *list.List // completed keys, most recently used first
	max     int        // 0 = unbounded
	onEvict func(K, V)

	ps    *store.Store
	codec Codec[K, V]

	hits, builds, storeHits, evictions atomic.Int64
}

// New returns an empty, unbounded, memory-only cache.
func New[K comparable, V any]() *Cache[K, V] {
	return &Cache[K, V]{m: make(map[K]*entry[V]), lru: list.New()}
}

// SetMax bounds the cache to n entries, evicting least-recently-used
// completed entries beyond it; n <= 0 removes the bound. The bound applies
// from the next completed build on.
func (c *Cache[K, V]) SetMax(n int) {
	c.mu.Lock()
	c.max = n
	c.mu.Unlock()
}

// OnEvict registers fn to run once for every entry the LRU bound evicts,
// after the entry has left the cache and outside its lock. Set it before
// the cache is shared.
func (c *Cache[K, V]) OnEvict(fn func(K, V)) { c.onEvict = fn }

// Persist layers a persistent tier under the cache: a miss consults ps
// before building, and a fresh build is written through. ps may be nil (no
// persistence). Set it before the cache is shared.
func (c *Cache[K, V]) Persist(ps *store.Store, codec Codec[K, V]) {
	c.ps, c.codec = ps, codec
}

// Get returns the value for k, running build on a miss. Errors are
// memoized like values: a key whose build failed keeps failing until it is
// evicted or deleted.
func (c *Cache[K, V]) Get(k K, build func() (V, error)) (V, Source, error) {
	c.mu.Lock()
	if e, ok := c.m[k]; ok {
		select {
		case <-e.done:
			if e.elem != nil {
				c.lru.MoveToFront(e.elem)
			}
			c.mu.Unlock()
		default:
			c.mu.Unlock()
			<-e.done
		}
		c.hits.Add(1)
		return e.val, Hit, e.err
	}
	e := &entry[V]{done: make(chan struct{})}
	c.m[k] = e
	c.mu.Unlock()

	val, src, err := c.fill(k, build)
	if src == Stored {
		c.storeHits.Add(1)
	} else {
		c.builds.Add(1)
	}
	e.val, e.err = val, err
	close(e.done)
	c.link(k, e)
	return val, src, err
}

// fill resolves a miss: build directly, or get-or-build through the
// persistent tier.
func (c *Cache[K, V]) fill(k K, build func() (V, error)) (V, Source, error) {
	if c.ps == nil {
		v, err := build()
		return v, Built, err
	}
	key := c.codec.Key(k)
	var (
		v        V
		buildErr error
		ran      bool
	)
	b, _, err := c.ps.GetOrBuild(key, func() ([]byte, error) {
		ran = true
		if v, buildErr = build(); buildErr != nil {
			return nil, buildErr
		}
		return c.codec.Encode(v)
	})
	if ran {
		// An encode failure only costs persistence; the value is good.
		return v, Built, buildErr
	}
	if err != nil {
		var zero V
		return zero, Stored, err
	}
	if v, err := c.codec.Decode(b); err == nil {
		return v, Stored, nil
	}
	// Bytes written by another build that no longer decode: rebuild and
	// overwrite the record so later processes hit again.
	if v, buildErr = build(); buildErr == nil {
		if b, err := c.codec.Encode(v); err == nil {
			_ = c.ps.Put(key, b) // a failed write only costs persistence
		}
	}
	return v, Built, buildErr
}

// link makes a just-completed entry most recently used and applies the
// bound. An entry deleted while it was being built is not re-linked.
func (c *Cache[K, V]) link(k K, e *entry[V]) {
	type victim struct {
		k K
		v V
	}
	var victims []victim
	c.mu.Lock()
	if c.m[k] == e {
		e.elem = c.lru.PushFront(k)
		for c.max > 0 && len(c.m) > c.max {
			back := c.lru.Back()
			if back == nil {
				break // only in-flight entries remain
			}
			old := c.lru.Remove(back).(K)
			victims = append(victims, victim{old, c.m[old].val})
			delete(c.m, old)
		}
	}
	c.mu.Unlock()
	c.evictions.Add(int64(len(victims)))
	if c.onEvict != nil {
		for _, vi := range victims {
			c.onEvict(vi.k, vi.v)
		}
	}
}

// Peek returns the completed value for k without building, counting or
// touching its LRU position.
func (c *Cache[K, V]) Peek(k K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.m[k]; ok && e.elem != nil {
		return e.val, true
	}
	var zero V
	return zero, false
}

// Delete drops k. Callers already waiting on its build still receive the
// result; OnEvict does not run.
func (c *Cache[K, V]) Delete(k K) {
	c.mu.Lock()
	if e, ok := c.m[k]; ok {
		if e.elem != nil {
			c.lru.Remove(e.elem)
		}
		delete(c.m, k)
	}
	c.mu.Unlock()
}

// Len returns the number of resident entries, in-flight builds included.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// Stats returns a snapshot of the counters.
func (c *Cache[K, V]) Stats() Stats {
	return Stats{
		Hits:      c.hits.Load(),
		Builds:    c.builds.Load(),
		StoreHits: c.storeHits.Load(),
		Evictions: c.evictions.Load(),
		Entries:   int64(c.Len()),
	}
}
