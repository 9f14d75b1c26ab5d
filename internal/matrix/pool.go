package matrix

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
)

// The block arena: sync.Pools recycling dense block backing arrays across
// kernel invocations. The blocked APSP solvers churn through b x b
// temporaries on every task of every iteration; recycling them keeps the
// hot kernel path at zero amortized heap allocations instead of feeding the
// GC O(q^3) short-lived multi-megabyte slices per solve.
//
// The arena is size-classed: pools[c] holds blocks whose backing array has
// a capacity in [2^c, 2^(c+1)), and a Get looks only in the class of the
// size it needs. A request for a tile is therefore never handed an idle
// panel sixteen times its size (leaving the panel's owner to allocate a
// fresh one), whoever else shares the process.
//
// Discipline: a block obtained from Get is exclusively owned by the caller.
// Put hands ownership back; the caller must not retain any reference
// (including row slices) afterwards. A block that escapes into a long-lived
// structure (an RDD value, shared storage) passes to that structure's
// owner: the blocked solvers Put a whole generation of such blocks once the
// next generation has replaced it (the rule is in internal/core's package
// comment); a block nobody Puts behaves like an ordinary allocation.
var pools [bits.UintSize]sync.Pool

// sizeClass is floor(log2(n)) for n >= 1.
func sizeClass(n int) int { return bits.Len(uint(n)) - 1 }

// Get returns a dense r x c block from the arena. The element contents are
// unspecified; callers must fully initialize them (or use GetInf /
// CopyFrom). A pooled block of the right class whose capacity is still too
// small is dropped and a fresh one allocated, so Get never fails.
func Get(r, c int) *Block {
	need := r * c
	if need > 0 {
		if v := pools[sizeClass(need)].Get(); v != nil {
			b := v.(*Block)
			trackGet(b)
			if cap(b.Data) >= need {
				b.R, b.C = r, c
				b.Data = b.Data[:need]
				return b
			}
			// Too small for this request: let the GC take it rather than
			// holding it for a caller that may never come.
		}
	}
	return &Block{R: r, C: c, Data: make([]float64, need)}
}

// GetInf returns a pooled dense r x c block with every element set to +Inf
// — the min-plus additive identity, the state MinPlusMulInto starts from.
func GetInf(r, c int) *Block {
	b := Get(r, c)
	for i := range b.Data {
		b.Data[i] = Inf
	}
	return b
}

// Put returns a block to the arena. Phantom, nil and zero-capacity blocks
// are ignored. The block must not be used (or Put again) after this call.
func Put(b *Block) {
	if b == nil || cap(b.Data) == 0 {
		return
	}
	if !trackPut(b) {
		return
	}
	pools[sizeClass(cap(b.Data))].Put(b)
}

// --- arena integrity checking (tests) ---
//
// The pool-safety discipline ("a block that escaped into an RDD,
// broadcast or store is Put only by its last owner; a Put block is never
// touched again") cannot be proven by types, so tests enforce it
// dynamically: with checking enabled the arena tracks which blocks it
// currently owns and counts Puts of a block the arena already holds — the
// double-free that would alias two independent kernels onto one backing
// array — and fills every block it accepts with NaN, so a reader that kept
// a reference past the Put, or a Get that is not fully initialized, turns
// its results into NaN and fails any comparison against a reference. The
// cancellation tests flip it on around mid-run-aborted solves, where
// unwound error paths are most likely to misplace ownership.

// PoolStats counts arena traffic while checking is enabled.
type PoolStats struct {
	// Gets is the number of blocks handed back out of the pool.
	Gets int64
	// Puts is the number of blocks accepted into the pool.
	Puts int64
	// DoublePuts counts Puts of blocks the pool already owned. Always 0
	// unless the pool-safety invariant is broken; the offending Put is
	// swallowed so the arena stays consistent for later assertions.
	DoublePuts int64
}

var (
	checkOn   atomic.Bool
	checkMu   sync.Mutex
	poolOwned map[*Block]struct{}
	poolStats PoolStats
)

// SetPoolCheck enables or disables arena integrity checking, resetting
// counters and ownership state either way. Test use only: the ownership
// map keeps a reference to every block it has seen Put (a GC cycle may
// still evict entries from the sync.Pool itself; such blocks simply stay
// in the map, retained until the next SetPoolCheck), so expect extra
// memory retention while enabled.
func SetPoolCheck(on bool) {
	checkMu.Lock()
	defer checkMu.Unlock()
	poolOwned = nil
	poolStats = PoolStats{}
	if on {
		poolOwned = make(map[*Block]struct{})
	}
	checkOn.Store(on)
}

// PoolCheckStats snapshots the counters accumulated since SetPoolCheck.
func PoolCheckStats() PoolStats {
	checkMu.Lock()
	defer checkMu.Unlock()
	return poolStats
}

func trackGet(b *Block) {
	if !checkOn.Load() {
		return
	}
	checkMu.Lock()
	if poolOwned != nil {
		delete(poolOwned, b)
		poolStats.Gets++
	}
	checkMu.Unlock()
}

// trackPut reports whether the Put may proceed (false for a detected
// double-Put, which is recorded and suppressed).
func trackPut(b *Block) bool {
	if !checkOn.Load() {
		return true
	}
	checkMu.Lock()
	defer checkMu.Unlock()
	if poolOwned == nil {
		return true
	}
	if _, dup := poolOwned[b]; dup {
		poolStats.DoublePuts++
		return false
	}
	poolOwned[b] = struct{}{}
	poolStats.Puts++
	poison := b.Data[:cap(b.Data)]
	for i := range poison {
		poison[i] = math.NaN()
	}
	return true
}
