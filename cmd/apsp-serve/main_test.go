package main

import (
	"context"
	"math"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strings"
	"testing"
	"time"

	"apspark/internal/cache"
	"apspark/internal/matrix"
	"apspark/internal/store"
)

const mib20 = 1 << 20

// budgets is a store snapshot carrying only cache budgets.
func budgets(rowBytes, tileBytes int64) store.Snapshot {
	return store.Snapshot{Rows: cache.Stats{BytesBudget: rowBytes}, Tiles: cache.Stats{BytesBudget: tileBytes}}
}

func TestStoreCacheBytes(t *testing.T) {
	for _, tc := range []struct {
		name string
		s    store.Snapshot
		n    int
		want int64
	}{
		{"a row cache", budgets(128*mib20, 64*mib20), 4096, 128 * mib20},
		{"-row-cache-mb 0", budgets(0, 64*mib20), 4096, 64 * mib20},
		{"both caches off", budgets(0, 0), 4096, 0},
		{"row budget above 8·n²", budgets(16*mib20, 64*mib20), 256, 8 * 256 * 256},
		{"tile budget above 8·n²", budgets(0, 64*mib20), 256, 8 * 256 * 256},
		{"budget past 8·n² for n near 2^31", budgets(math.MaxInt64>>20<<20, 0), 1<<31 - 1, math.MaxInt64 >> 20 << 20},
	} {
		if got := cacheBytes(servingCache(tc.s), tc.n); got != tc.want {
			t.Errorf("%s: cache bytes %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestStoreCacheBytesReadsTheOpenedStore holds the accounting to the
// budgets an opened store reports for the options apsp-serve builds.
func TestStoreCacheBytesReadsTheOpenedStore(t *testing.T) {
	const n = 64
	path := filepath.Join(t.TempDir(), "dist.apsp")
	if err := store.WriteWithCodec(path, matrix.New(n, n), 16, store.CodecRaw); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		opts store.Options
		want int64
	}{
		{store.Options{RowCacheBytes: 8 << 10, TileCacheBytes: 16 << 10}, 8 << 10},
		{store.Options{TileCacheBytes: 16 << 10}, 16 << 10},
		{store.Options{RowCacheBytes: 1 << 20}, 8 * n * n},
	} {
		st, err := store.OpenWithOptions(path, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		if got := cacheBytes(servingCache(st.Snapshot()), st.N()); got != tc.want {
			t.Errorf("%+v: cache bytes %d, want %d", tc.opts, got, tc.want)
		}
		st.Close()
	}
}

func TestMemoryLimitHeadroom(t *testing.T) {
	const cacheBytes = 128 * mib20
	for _, tc := range []struct {
		base, inflight, want int64
	}{
		{0, 0, 160 * mib20},                        // the floor
		{13 * mib20, 0, 160 * mib20},               // 2·B = 26 MiB < 32 MiB: still the floor
		{16 * mib20, 0, 160 * mib20},               // 2·B = 32 MiB: at the floor
		{40 * mib20, 0, 208 * mib20},               // 2·B = 80 MiB above the floor
		{13 * mib20, 256 * 8 * 4096, 168 * mib20},  // 256 admitted rows of n = 4096
		{40 * mib20, 256 * 8 * 65536, 336 * mib20}, // 256 admitted rows of n = 65536
		{math.MaxInt64, 0, math.MaxInt64},          // saturates
		{0, math.MaxInt64 - mib20, math.MaxInt64},  // saturates
	} {
		if got := memoryLimit(cacheBytes, tc.base, tc.inflight); got != tc.want {
			t.Errorf("base %d, in flight %d: limit %d, want %d", tc.base, tc.inflight, got, tc.want)
		}
	}
}

// noCache is a cached-bytes reader for a process whose cache is empty.
func noCache() int64 { return 0 }

func TestOperatorMemoryLimitWins(t *testing.T) {
	prev := debug.SetMemoryLimit(1 << 40)
	defer debug.SetMemoryLimit(prev)
	t.Setenv("GOMEMLIMIT", "1TiB")
	p, _, limit := limitMemory(16*mib20, 0, noCache)
	if p != nil || limit != 1<<40 {
		t.Errorf("GOMEMLIMIT set: pacer %v, limit %d; want none and the operator's %d", p, limit, int64(1<<40))
	}
	runtime.GC()
	if got := debug.SetMemoryLimit(-1); got != 1<<40 {
		t.Errorf("GOMEMLIMIT set: runtime limit moved to %d", got)
	}

	t.Setenv("GOMEMLIMIT", "")
	p, rest, limit := limitMemory(16*mib20, 0, noCache)
	defer p.stop()
	if want := memoryLimit(16*mib20, rest, 0); limit != want {
		t.Errorf("GOMEMLIMIT unset: limit %d, want %d", limit, want)
	}
	if got := debug.SetMemoryLimit(-1); got != limit {
		t.Errorf("GOMEMLIMIT unset: runtime limit %d, want %d", got, limit)
	}
}

// waitLimit collects until the paced limit satisfies ok, and fails the
// test after five seconds.
func waitLimit(t *testing.T, what string, ok func(int64) bool) int64 {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; {
		runtime.GC()
		if l := debug.SetMemoryLimit(-1); ok(l) {
			return l
		}
		if time.Now().After(deadline) {
			t.Fatalf("limit %d after 5s: want %s", debug.SetMemoryLimit(-1), what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestLimitFollowsWhatTheProcessHolds holds 48 MiB outside any cache: the
// limit must rise past twice that at the end of the next GC cycle, fall
// back to the floor once it is dropped, and stay put after stop.
func TestLimitFollowsWhatTheProcessHolds(t *testing.T) {
	const burst = 48 * mib20
	prev := debug.SetMemoryLimit(-1)
	defer debug.SetMemoryLimit(prev)
	t.Setenv("GOMEMLIMIT", "")
	p, rest, limit := limitMemory(0, 0, noCache)
	defer p.stop()
	if rest >= minHeadroom/2 || limit != minHeadroom {
		t.Skipf("the test process holds %d bytes at start, above the floor's half; limit %d", rest, limit)
	}

	held := make([]byte, burst)
	for i := range held {
		held[i] = byte(i)
	}
	high := waitLimit(t, "above twice the held bytes", func(l int64) bool { return l >= 2*burst })
	runtime.KeepAlive(held)
	held = nil
	waitLimit(t, "back at the floor", func(l int64) bool { return l == minHeadroom })

	p.stop()
	debug.SetMemoryLimit(high)
	runtime.GC()
	runtime.GC()
	if got := debug.SetMemoryLimit(-1); got != high {
		t.Errorf("the limit moved to %d after stop", got)
	}
}

// TestHeapGoalStaysUnderLimit fills a row cache to its budget under the
// paced limit while the process churns through garbage: the limit starts
// at its floor (the budget, the in-flight rows and minHeadroom, for a
// process holding little else), and the GC's heap goal never passes the
// limit, where GOGC alone would set it near twice the cache. The limit
// may rise above the floor: the live heap the GC marks includes what
// this loop allocates while a cycle marks, as it does under GOGC.
func TestHeapGoalStaysUnderLimit(t *testing.T) {
	const (
		n        = 4096
		budget   = 64 * mib20
		inflight = 256 * 8 * n
		garbage  = 1 << 30
		chunk    = 256 << 10
	)
	prev := debug.SetMemoryLimit(-1)
	defer debug.SetMemoryLimit(prev)
	t.Setenv("GOMEMLIMIT", "")
	rows := cache.New[int](budget, 8*n, func(row []float64) int64 { return 8 * int64(len(row)) })
	p, rest, _ := limitMemory(budget, inflight, func() int64 { return rows.Stats().BytesInUse })
	defer p.stop()
	start := debug.SetMemoryLimit(-1)
	if rest >= minHeadroom/2 {
		t.Skipf("the test process holds %d bytes at start, above the floor's half", rest)
	}
	if floor := int64(budget + inflight + minHeadroom); start != floor {
		t.Fatalf("limit at start %d, want the %d-byte floor", start, floor)
	}
	goal := []metrics.Sample{{Name: "/gc/heap/goal:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(goal)
	cycles := goal[1].Value.Uint64()
	var sink []byte
	var maxGoal, limit uint64
	for i := 0; i < garbage/chunk; i++ {
		// Two budgets' worth of distinct rows, so the cache fills and then
		// evicts; every row is 32 KiB.
		key := i % (2 * budget / (8 * n))
		if _, err := rows.Get(context.Background(), key, func() ([]float64, error) {
			return make([]float64, n), nil
		}); err != nil {
			t.Fatal(err)
		}
		sink = make([]byte, chunk)
		sink[0] = byte(i)
		metrics.Read(goal)
		maxGoal = max(maxGoal, goal[0].Value.Uint64())
		limit = max(limit, uint64(debug.SetMemoryLimit(-1)))
	}
	_ = sink
	if st := rows.Stats(); st.BytesInUse < budget*3/4 {
		t.Fatalf("row cache holds %d bytes, want about its %d budget", st.BytesInUse, int64(budget))
	}
	if maxGoal > limit {
		t.Errorf("heap goal reached %d bytes, above the %d-byte limit", maxGoal, limit)
	}
	t.Logf("limit %.1f MiB at start, at most %.1f MiB; max heap goal %.1f MiB, %d GC cycles",
		float64(start)/mib20, float64(limit)/mib20, float64(maxGoal)/mib20, goal[1].Value.Uint64()-cycles)
}

func TestMibFlagRefusesBadBudgets(t *testing.T) {
	for _, v := range []int64{-1, -5, math.MaxInt64>>20 + 1, math.MaxInt64} {
		if _, err := mibFlag("row-cache-mb", v); err == nil || !strings.Contains(err.Error(), "-row-cache-mb") {
			t.Errorf("mibFlag(%d) = %v, want an error naming -row-cache-mb", v, err)
		}
	}
	for _, v := range []int64{0, 1, math.MaxInt64 >> 20} {
		if b, err := mibFlag("cache-mb", v); err != nil || b != v<<20 {
			t.Errorf("mibFlag(%d) = %d, %v; want %d", v, b, err, v<<20)
		}
	}
}
