// Package cache is the repo's one in-memory cache: a byte-budgeted LRU,
// lock-striped so lookups of different keys rarely share a mutex, whose
// misses are filled singleflight-style — one goroutine does the work,
// concurrent callers of the same key wait for its result. The store's
// decoded-tile and assembled-row caches and the oracle's local-row cache
// are three instantiations.
//
// Values are shared read-only between every caller that gets them and are
// owned by the cache: eviction just drops the reference.
package cache

import (
	"container/list"
	"context"
	"sync"
	"sync/atomic"
)

// maxStripes bounds the lock striping. The stripe count is chosen so
// every stripe can hold at least two of the largest items; tiny budgets
// degenerate to one stripe, which behaves exactly like one global LRU.
const maxStripes = 16

// Counters is the traffic and occupancy of one stripe, or of a whole
// cache when summed.
type Counters struct {
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Coalesced counts misses that waited on another caller's fill
	// instead of doing their own.
	Coalesced  int64 `json:"coalesced"`
	Evictions  int64 `json:"evictions"`
	BytesInUse int64 `json:"bytes_in_use"`
	Items      int   `json:"items"`
}

// Stats is a point-in-time snapshot of a cache: its totals, its budget
// and, when it is actually striped, the per-stripe breakdown (so uneven
// striping or a hot stripe is diagnosable).
type Stats struct {
	Counters
	BytesBudget int64      `json:"bytes_budget"`
	Shards      []Counters `json:"shards,omitempty"`
}

// Key is what a cache may be keyed by: an integer, whose low bits pick
// the stripe.
type Key interface{ ~int | ~int32 }

// Sharded is a cache from integer keys to values of measured size. Every
// method is safe for concurrent use. The byte budget is a hard invariant:
// the bytes cached never exceed it at any instant.
type Sharded[K Key, V any] struct {
	budget  int64
	size    func(V) int64
	stripes []stripe[K, V]
}

// stripe is one lock stripe: its own mutex, LRU list and share of the
// budget. Counters are atomic so Stats never contends with the serving
// path beyond a snapshot read.
type stripe[K Key, V any] struct {
	hits      atomic.Int64
	misses    atomic.Int64
	coalesced atomic.Int64
	evictions atomic.Int64

	mu       sync.Mutex
	budget   int64
	inUse    int64
	items    map[K]*list.Element // values are *entry[K, V]
	lru      list.List           // front = most recent
	inflight map[K]*flight[V]
}

type entry[K Key, V any] struct {
	key   K
	val   V
	bytes int64
}

// flight is one in-progress fill that concurrent misses coalesce on.
type flight[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// New returns a cache holding at most budget bytes (negative means 0: it
// then coalesces misses but retains nothing), as measured by size. The
// budget is split over the largest power-of-two stripe count, up to
// maxStripes, that still leaves every stripe room for two items of
// maxItem bytes: striping a cache that can barely hold anything would
// only fragment the budget.
func New[K Key, V any](budget, maxItem int64, size func(V) int64) *Sharded[K, V] {
	budget = max(budget, 0)
	n := 1
	for n*2 <= maxStripes && maxItem > 0 && budget/int64(n*2) >= 2*maxItem {
		n *= 2
	}
	c := &Sharded[K, V]{budget: budget, size: size, stripes: make([]stripe[K, V], n)}
	for i := range c.stripes {
		c.stripes[i].budget = budget / int64(n)
		c.stripes[i].items = make(map[K]*list.Element)
	}
	return c
}

// Budget returns the configured byte budget.
func (c *Sharded[K, V]) Budget() int64 { return c.budget }

func (c *Sharded[K, V]) stripe(key K) *stripe[K, V] {
	return &c.stripes[int(key)&(len(c.stripes)-1)]
}

// lookup is a hit or nothing. The caller holds st.mu.
func (st *stripe[K, V]) lookup(key K) (v V, ok bool) {
	el, ok := st.items[key]
	if !ok {
		return v, false
	}
	st.lru.MoveToFront(el)
	st.hits.Add(1)
	return el.Value.(*entry[K, V]).val, true
}

// Peek returns the value cached under key, if any. A hit counts and
// refreshes the entry like any other; a miss counts nothing and fills
// nothing — for callers that have a cheaper way than fill to get what
// they need when the value is not resident.
func (c *Sharded[K, V]) Peek(key K) (V, bool) {
	st := c.stripe(key)
	st.mu.Lock()
	v, ok := st.lookup(key)
	st.mu.Unlock()
	return v, ok
}

// Get returns the value cached under key, or the result of fill, which
// it then caches. Concurrent misses of one key coalesce: the first runs
// fill, the rest wait for its result (error included).
//
// Hits are served regardless of ctx (they cost nothing and keep hot
// queries snappy during shutdown drains). A miss checks ctx between two
// lookups, ahead of the miss count and the flight registration: an
// aborted query does no work, so it must neither skew the hit rate nor
// leave followers a flight that fails with its context error; the second
// lookup catches what was published or started meanwhile. fill itself
// runs to completion whatever happens to ctx — followers with healthy
// contexts must not fail because the leader's client hung up — while a
// follower's own ctx still bounds its wait. A nil ctx never cancels.
//
// A value larger than its stripe's budget is returned uncached rather
// than blowing the invariant.
func (c *Sharded[K, V]) Get(ctx context.Context, key K, fill func() (V, error)) (V, error) {
	st := c.stripe(key)
	var zero V
	for pass := 0; ; pass++ {
		st.mu.Lock()
		if v, ok := st.lookup(key); ok {
			st.mu.Unlock()
			return v, nil
		}
		if fl, ok := st.inflight[key]; ok {
			st.coalesced.Add(1)
			st.mu.Unlock()
			return fl.wait(ctx)
		}
		if pass == 1 {
			break
		}
		st.mu.Unlock()
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return zero, err
			}
		}
	}
	fl := &flight[V]{done: make(chan struct{})}
	if st.inflight == nil {
		st.inflight = make(map[K]*flight[V])
	}
	st.inflight[key] = fl
	st.misses.Add(1)
	st.mu.Unlock()

	// The fill runs outside the lock so misses of different keys overlap
	// their work; followers of this key are parked on fl.
	fl.val, fl.err = fill()
	var bytes int64
	if fl.err == nil {
		bytes = c.size(fl.val)
	}
	st.mu.Lock()
	delete(st.inflight, key)
	if fl.err == nil && bytes <= st.budget {
		st.items[key] = st.lru.PushFront(&entry[K, V]{key: key, val: fl.val, bytes: bytes})
		st.inUse += bytes
		for st.inUse > st.budget {
			old := st.lru.Remove(st.lru.Back()).(*entry[K, V])
			delete(st.items, old.key)
			st.inUse -= old.bytes
			st.evictions.Add(1)
		}
	}
	st.mu.Unlock()
	close(fl.done)
	return fl.val, fl.err
}

func (fl *flight[V]) wait(ctx context.Context) (V, error) {
	if ctx != nil {
		select {
		case <-fl.done:
		case <-ctx.Done():
			var zero V
			return zero, ctx.Err()
		}
	} else {
		<-fl.done
	}
	return fl.val, fl.err
}

// Purge drops every cached value. Fills in flight still complete and
// publish.
func (c *Sharded[K, V]) Purge() {
	for i := range c.stripes {
		st := &c.stripes[i]
		st.mu.Lock()
		clear(st.items)
		st.lru.Init()
		st.inUse = 0
		st.mu.Unlock()
	}
}

// Stats snapshots the counters. It takes each stripe lock for an instant.
func (c *Sharded[K, V]) Stats() Stats {
	out := Stats{BytesBudget: c.budget}
	for i := range c.stripes {
		st := &c.stripes[i]
		s := Counters{
			Hits:      st.hits.Load(),
			Misses:    st.misses.Load(),
			Coalesced: st.coalesced.Load(),
			Evictions: st.evictions.Load(),
		}
		st.mu.Lock()
		s.BytesInUse, s.Items = st.inUse, st.lru.Len()
		st.mu.Unlock()
		out.Hits += s.Hits
		out.Misses += s.Misses
		out.Coalesced += s.Coalesced
		out.Evictions += s.Evictions
		out.BytesInUse += s.BytesInUse
		out.Items += s.Items
		if len(c.stripes) > 1 {
			out.Shards = append(out.Shards, s)
		}
	}
	return out
}
