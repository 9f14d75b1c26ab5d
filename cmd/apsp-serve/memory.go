package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sync"

	"apspark/internal/cache"
	"apspark/internal/store"
)

// minHeadroom is the least memory the limit leaves the process beyond
// its cache and its in-flight rows: a server that holds a few MiB still
// gets room for a burst before the limit makes the GC run early.
const minHeadroom = 32 << 20

// servingCache returns the stats of the store cache that fills: the row
// cache, or the tile cache when rows are not cached (the only case in
// which the tile cache fills).
func servingCache(s store.Snapshot) cache.Stats {
	if s.Rows.BytesBudget == 0 {
		return s.Tiles
	}
	return s.Rows
}

// cacheBytes returns the bytes a store cache over n vertices can hold:
// its budget, capped at the whole decoded store, 8·n² bytes. The store
// caches are byte-budgeted cache.Sharded caches of pointer-free values,
// which never hold more than their budget.
func cacheBytes(c cache.Stats, n int) int64 {
	if n := int64(n); c.BytesBudget/(8*max(n, 1)) >= n {
		return 8 * n * n
	}
	return c.BytesBudget
}

// memoryLimit returns the soft memory limit for a process whose cache
// can hold cacheBytes, which held rest bytes besides its cache's contents
// at the end of the last GC cycle, and whose admitted requests can hold
// inflightBytes of rows at once: the cache and the rows once, plus the
// 100 % headroom GOGC gives everything else, but at least minHeadroom.
func memoryLimit(cacheBytes, rest, inflightBytes int64) int64 {
	return addSat(addSat(cacheBytes, inflightBytes), max(addSat(rest, rest), minHeadroom))
}

// addSat adds two non-negative byte counts, saturating at math.MaxInt64.
func addSat(a, b int64) int64 {
	if a > math.MaxInt64-b {
		return math.MaxInt64
	}
	return a + b
}

// pacer keeps the runtime's soft memory limit at memoryLimit, with rest
// measured anew at the end of every GC cycle. So a burst that holds more
// than the headroom raises the limit one cycle later instead of making
// the GC run back to back for as long as it lasts, and the limit falls
// back once the burst is over.
type pacer struct {
	cacheBytes, inflightBytes int64
	cached                    func() int64 // the bytes the cache holds now

	mu      sync.Mutex
	stopped bool
}

// limitMemory is called once the sources are loaded and before the first
// request: it collects and, unless the operator set GOMEMLIMIT, starts a
// pacer. It returns the pacer (nil under GOMEMLIMIT), the bytes the
// process holds with an empty cache and the limit in force.
func limitMemory(cacheBytes, inflightBytes int64, cached func() int64) (p *pacer, rest, limit int64) {
	runtime.GC()
	if os.Getenv("GOMEMLIMIT") != "" {
		return nil, held(cached()), debug.SetMemoryLimit(-1)
	}
	p = &pacer{cacheBytes: cacheBytes, inflightBytes: inflightBytes, cached: cached}
	rest, limit, _ = p.set()
	p.arm()
	return p, rest, limit
}

// set measures rest and sets the limit; after stop it does nothing and
// reports false.
func (p *pacer) set() (rest, limit int64, ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.stopped {
		return 0, 0, false
	}
	rest = held(p.cached())
	limit = memoryLimit(p.cacheBytes, rest, p.inflightBytes)
	debug.SetMemoryLimit(limit)
	return rest, limit, true
}

// arm calls set once the next GC cycle is over: the finalizer of an
// object nothing references runs after the cycle that found it dead, and
// re-arms itself until stop.
func (p *pacer) arm() {
	runtime.SetFinalizer(new(gcTick), func(*gcTick) {
		if _, _, ok := p.set(); ok {
			p.arm()
		}
	})
}

// gcTick is the object arm watches. It holds a pointer so it never
// shares a tiny-allocator block, which would delay its finalizer.
type gcTick struct{ _ *byte }

// stop ends the pacing; the limit stays where it was.
func (p *pacer) stop() {
	p.mu.Lock()
	p.stopped = true
	p.mu.Unlock()
}

// held returns the bytes the process held at the end of the last GC
// cycle besides cached bytes of cache contents: the live heap less
// cached, plus what the runtime maps outside heap objects (stacks, GC
// metadata). Free and unused heap pages are left out: under the limit
// the runtime returns them to the OS.
func held(cached int64) int64 {
	s := []metrics.Sample{
		{Name: "/memory/classes/total:bytes"},
		{Name: "/memory/classes/heap/released:bytes"},
		{Name: "/memory/classes/heap/free:bytes"},
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
		{Name: "/gc/heap/live:bytes"},
	}
	metrics.Read(s)
	v := func(i int) int64 { return int64(s[i].Value.Uint64()) }
	outside := v(0) - v(1) - v(2) - v(3) - v(4)
	return max(outside+v(5)-cached, 0)
}

// memLimitMiB is the runtime's soft memory limit for the logs: "none"
// when there is none and GOGC alone paces the GC.
func memLimitMiB() string {
	if l := debug.SetMemoryLimit(-1); l != math.MaxInt64 {
		return mib(l)
	}
	return "none"
}

// mibFlag converts the MiB flag -name to bytes, refusing a value that is
// negative or does not fit in an int64 once shifted.
func mibFlag(name string, v int64) (int64, error) {
	if v < 0 || v > math.MaxInt64>>20 {
		return 0, fmt.Errorf("-%s %d: want a MiB count from 0 to %d", name, v, int64(math.MaxInt64>>20))
	}
	return v << 20, nil
}
