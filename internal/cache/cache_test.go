package cache

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The policy of the repo's one cache, tested once: the store's and the
// oracle's suites only check that they are wired to it.

func sliceBytes(v []byte) int64 { return int64(len(v)) }

// fillWith returns a fill that yields a size-byte value and counts calls.
func fillWith(calls *atomic.Int64, size int) func() ([]byte, error) {
	return func() ([]byte, error) {
		calls.Add(1)
		return make([]byte, size), nil
	}
}

// waitCoalesced polls until n misses have parked on a flight.
func waitCoalesced[K Key, V any](t *testing.T, c *Sharded[K, V], n int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for c.Stats().Coalesced < n {
		if time.Now().After(deadline) {
			t.Fatalf("followers never coalesced: %+v", c.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestStripeCountFollowsBudget(t *testing.T) {
	for _, tc := range []struct {
		budget, maxItem int64
		want            int
	}{
		{0, 100, 1},
		{-5, 100, 1},
		{399, 100, 1}, // two stripes would hold under two items each
		{400, 100, 2},
		{800, 100, 4},
		{1599, 100, 4},
		{3200, 100, 16},
		{1 << 40, 100, 16}, // capped
		{1 << 20, 0, 1},    // no item size to reason from
	} {
		c := New[int](tc.budget, tc.maxItem, sliceBytes)
		if got := len(c.stripes); got != tc.want {
			t.Errorf("New(%d, %d): %d stripes, want %d", tc.budget, tc.maxItem, got, tc.want)
		}
		if c.Budget() != max(tc.budget, 0) {
			t.Errorf("New(%d, %d): budget %d", tc.budget, tc.maxItem, c.Budget())
		}
	}
}

func TestHitsMissesAndLRUEviction(t *testing.T) {
	var calls atomic.Int64
	c := New[int](300, 100, sliceBytes) // one stripe, three items
	ctx := context.Background()
	for _, k := range []int{1, 2, 3, 1} { // 1 is now the most recent
		if _, err := c.Get(ctx, k, fillWith(&calls, 100)); err != nil {
			t.Fatal(err)
		}
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 3 || st.Items != 3 || st.BytesInUse != 300 || st.Shards != nil {
		t.Fatalf("after warm-up: %+v", st)
	}
	if _, err := c.Get(ctx, 4, fillWith(&calls, 100)); err != nil { // evicts 2, the LRU tail
		t.Fatal(err)
	}
	if _, ok := c.Peek(2); ok {
		t.Fatal("least recently used key survived eviction")
	}
	for _, k := range []int{1, 3, 4} {
		if _, ok := c.Peek(k); !ok {
			t.Fatalf("key %d evicted out of LRU order", k)
		}
	}
	if st := c.Stats(); st.Evictions != 1 || st.Items != 3 || st.BytesInUse != 300 || calls.Load() != 4 {
		t.Fatalf("after eviction: %+v, %d fills", st, calls.Load())
	}
	c.Purge()
	if st := c.Stats(); st.Items != 0 || st.BytesInUse != 0 || st.BytesBudget != 300 {
		t.Fatalf("after purge: %+v", st)
	}
}

func TestPeekCountsHitsNeverMisses(t *testing.T) {
	var calls atomic.Int64
	c := New[int](1000, 100, sliceBytes)
	if _, ok := c.Peek(5); ok {
		t.Fatal("peek of an empty cache hit")
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("a missed peek counted: %+v", st)
	}
	want, _ := c.Get(context.Background(), 5, fillWith(&calls, 100))
	got, ok := c.Peek(5)
	if !ok || &got[0] != &want[0] {
		t.Fatal("peek did not return the cached value")
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 || calls.Load() != 1 {
		t.Fatalf("after a peek hit: %+v, %d fills", st, calls.Load())
	}
}

func TestOversizeItemServedUncached(t *testing.T) {
	var calls atomic.Int64
	c := New[int](150, 100, sliceBytes)
	for i := 0; i < 2; i++ {
		v, err := c.Get(context.Background(), 1, fillWith(&calls, 151))
		if err != nil || len(v) != 151 {
			t.Fatalf("oversize get: %d bytes, %v", len(v), err)
		}
	}
	if st := c.Stats(); st.Items != 0 || st.BytesInUse != 0 || st.Misses != 2 || calls.Load() != 2 {
		t.Fatalf("oversize item retained: %+v, %d fills", st, calls.Load())
	}
}

func TestFillErrorSharedAndNotCached(t *testing.T) {
	c := New[int](1000, 100, sliceBytes)
	boom := errors.New("boom")
	started, release := make(chan struct{}), make(chan struct{})
	leader := make(chan error, 1)
	go func() {
		_, err := c.Get(context.Background(), 3, func() ([]byte, error) {
			close(started)
			<-release
			return nil, boom
		})
		leader <- err
	}()
	<-started
	follower := make(chan error, 1)
	go func() {
		_, err := c.Get(context.Background(), 3, func() ([]byte, error) { return nil, errors.New("follower filled") })
		follower <- err
	}()
	waitCoalesced(t, c, 1)
	close(release)
	if err := <-leader; err != boom {
		t.Fatalf("leader: %v", err)
	}
	if err := <-follower; err != boom {
		t.Fatalf("follower: %v, want the leader's error", err)
	}
	var calls atomic.Int64
	if _, err := c.Get(context.Background(), 3, fillWith(&calls, 10)); err != nil || calls.Load() != 1 {
		t.Fatalf("a failed fill was cached: %v, %d fills", err, calls.Load())
	}
}

// TestConcurrentMissesCoalesce parks the leader inside its fill until
// every other caller of the key has registered on its flight: one fill,
// one miss, N-1 coalesced, everyone sharing the leader's value.
func TestConcurrentMissesCoalesce(t *testing.T) {
	c := New[int32](1<<20, 100, sliceBytes)
	const followers = 7
	var calls atomic.Int64
	started, release := make(chan struct{}), make(chan struct{})
	vals := make([][]byte, followers+1)
	errs := make([]error, followers+1)
	var wg sync.WaitGroup
	for g := 0; g <= followers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			vals[g], errs[g] = c.Get(context.Background(), 9, func() ([]byte, error) {
				calls.Add(1)
				close(started)
				<-release
				return make([]byte, 64), nil
			})
		}()
	}
	<-started
	waitCoalesced(t, c, followers)
	close(release)
	wg.Wait()
	for g := range vals {
		if errs[g] != nil || &vals[g][0] != &vals[0][0] {
			t.Fatalf("caller %d: err %v, shares the leader's value: %v", g, errs[g], errs[g] == nil && &vals[g][0] == &vals[0][0])
		}
	}
	if st := c.Stats(); st.Misses != 1 || st.Coalesced != followers || st.Hits != 0 || calls.Load() != 1 {
		t.Fatalf("%+v, %d fills; want 1 miss, %d coalesced, 1 fill", st, calls.Load(), followers)
	}
}

// TestFollowerCancellation: a follower whose context dies while parked
// on the leader's fill returns promptly with its context error; the
// leader and the other follower are untouched and the value is published.
func TestFollowerCancellation(t *testing.T) {
	c := New[int](1<<20, 100, sliceBytes)
	started, release := make(chan struct{}), make(chan struct{})
	get := func(ctx context.Context, fill func() ([]byte, error)) chan error {
		done := make(chan error, 1)
		go func() {
			_, err := c.Get(ctx, 4, fill)
			done <- err
		}()
		return done
	}
	unreachable := func() ([]byte, error) { return nil, errors.New("a follower ran its own fill") }
	leader := get(context.Background(), func() ([]byte, error) {
		close(started)
		<-release
		return make([]byte, 8), nil
	})
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	quitter := get(ctx, unreachable)
	stayer := get(context.Background(), unreachable)
	waitCoalesced(t, c, 2)
	cancel()
	if err := <-quitter; err != context.Canceled {
		t.Fatalf("cancelled follower: %v, want context.Canceled", err)
	}
	select {
	case err := <-stayer:
		t.Fatalf("healthy follower returned (%v) before the leader finished", err)
	default:
	}
	close(release)
	if err := <-leader; err != nil {
		t.Fatalf("leader: %v", err)
	}
	if err := <-stayer; err != nil {
		t.Fatalf("healthy follower: %v", err)
	}
	if _, ok := c.Peek(4); !ok {
		t.Fatal("value not published after a follower bailed")
	}
}

// TestCancelledContext: a dead context stops a miss before it counts or
// registers anything, and never stops a hit.
func TestCancelledContext(t *testing.T) {
	var calls atomic.Int64
	c := New[int](1<<20, 100, sliceBytes)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Get(ctx, 1, fillWith(&calls, 10)); err != context.Canceled {
		t.Fatalf("pre-cancelled miss: %v, want context.Canceled", err)
	}
	if st := c.Stats(); st.Misses != 0 || st.Coalesced != 0 || st.Items != 0 || calls.Load() != 0 {
		t.Fatalf("an aborted miss left traces: %+v, %d fills", st, calls.Load())
	}
	if _, err := c.Get(nil, 1, fillWith(&calls, 10)); err != nil { // nil ctx never cancels
		t.Fatal(err)
	}
	if _, err := c.Get(ctx, 1, fillWith(&calls, 10)); err != nil {
		t.Fatalf("hit under a cancelled context: %v", err)
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 || calls.Load() != 1 {
		t.Fatalf("%+v, %d fills", st, calls.Load())
	}
}

// TestBudgetHeldUnderConcurrency churns a 4-stripe cache with items of
// mixed size from many goroutines, polling the budget invariant
// throughout (and giving -race the get/evict/peek/stats interleavings).
func TestBudgetHeldUnderConcurrency(t *testing.T) {
	const maxItem = 64
	c := New[int](8*maxItem, maxItem, sliceBytes)
	if len(c.stripes) != 4 {
		t.Fatalf("%d stripes, want 4", len(c.stripes))
	}
	const workers = 8
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for it := 0; it < 2000; it++ {
				k := rng.Intn(40)
				if it%3 == 0 {
					k = it % 4 // a shared hot set
				}
				size := 1 + k%maxItem
				if it%7 == 0 {
					c.Peek(k)
				}
				v, err := c.Get(context.Background(), k, func() ([]byte, error) { return make([]byte, size), nil })
				if err != nil || len(v) != size {
					errs <- fmt.Errorf("key %d: %d bytes, %v", k, len(v), err)
					return
				}
				st := c.Stats()
				if st.BytesInUse > st.BytesBudget {
					errs <- fmt.Errorf("%d bytes cached over a budget of %d", st.BytesInUse, st.BytesBudget)
					return
				}
				for i, sh := range st.Shards {
					if sh.BytesInUse > st.BytesBudget/4 {
						errs <- fmt.Errorf("stripe %d holds %d bytes of a %d share", i, sh.BytesInUse, st.BytesBudget/4)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Hits == 0 || st.Evictions == 0 || len(st.Shards) != 4 {
		t.Fatalf("workload did not exercise the cache: %+v", st)
	}
	var sum Counters
	for _, sh := range st.Shards {
		sum.Hits += sh.Hits
		sum.Misses += sh.Misses
		sum.Coalesced += sh.Coalesced
		sum.Evictions += sh.Evictions
		sum.BytesInUse += sh.BytesInUse
		sum.Items += sh.Items
	}
	if sum != st.Counters {
		t.Fatalf("stripes sum to %+v, totals say %+v", sum, st.Counters)
	}
}

// TestHitAllocatesNothing pins the shape callers rely on: a closure fill
// that captures its arguments costs nothing when the key is resident.
func TestHitAllocatesNothing(t *testing.T) {
	c := New[int](1<<20, 100, sliceBytes)
	ctx := context.Background()
	size := 10
	get := func() {
		if _, err := c.Get(ctx, 2, func() ([]byte, error) { return make([]byte, size), nil }); err != nil {
			t.Fatal(err)
		}
		c.Peek(2)
	}
	get()
	if allocs := testing.AllocsPerRun(100, get); allocs != 0 {
		t.Fatalf("cache hit allocates %v per op, want 0", allocs)
	}
}
