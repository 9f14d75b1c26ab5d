package storage

import (
	"fmt"
	"sync"
	"testing"

	"apspark/internal/cluster"
)

func newTestStore(t *testing.T) (*Shared, *cluster.Cluster) {
	t.Helper()
	clu, err := cluster.New(cluster.Paper())
	if err != nil {
		t.Fatal(err)
	}
	return NewShared(clu), clu
}

func TestPutGetRoundTrip(t *testing.T) {
	s, _ := newTestStore(t)
	s.Put("k", "payload", 100)
	v, cost, err := s.Get("k", 0)
	if err != nil {
		t.Fatal(err)
	}
	if v.(string) != "payload" {
		t.Fatalf("value = %v", v)
	}
	if cost <= 0 {
		t.Fatalf("first read cost = %v, want > 0", cost)
	}
}

func TestGetMissing(t *testing.T) {
	s, _ := newTestStore(t)
	if _, _, err := s.Get("absent", 0); err == nil {
		t.Fatal("missing key returned no error")
	}
}

func TestPutChargesDriverClock(t *testing.T) {
	s, clu := newTestStore(t)
	before := clu.Now()
	s.Put("k", nil, 1<<30)
	if clu.Now() <= before {
		t.Fatal("Put did not advance the driver clock")
	}
	if clu.Metrics().SharedWriteBytes != 1<<30 {
		t.Fatalf("write bytes = %d", clu.Metrics().SharedWriteBytes)
	}
}

func TestNodePageCache(t *testing.T) {
	s, clu := newTestStore(t)
	s.Put("col", nil, 1<<20)
	_, c1, _ := s.Get("col", 3)
	_, c2, _ := s.Get("col", 3)
	if c1 <= 0 {
		t.Fatalf("first read free: %v", c1)
	}
	if c2 != 0 {
		t.Fatalf("cached read cost = %v, want 0", c2)
	}
	// A different node still pays.
	_, c3, _ := s.Get("col", 4)
	if c3 <= 0 {
		t.Fatal("other node read free")
	}
	if clu.Metrics().SharedReadBytes != 2<<20 {
		t.Fatalf("read bytes = %d, want 2 MiB", clu.Metrics().SharedReadBytes)
	}
}

func TestNewEpochDropsCaches(t *testing.T) {
	s, _ := newTestStore(t)
	s.Put("col", nil, 1<<20)
	_, _, _ = s.Get("col", 0)
	s.NewEpoch()
	_, cost, err := s.Get("col", 0)
	if err != nil {
		t.Fatal(err)
	}
	if cost <= 0 {
		t.Fatal("post-epoch read should pay again")
	}
	if s.Epoch() != 1 {
		t.Fatalf("epoch = %d", s.Epoch())
	}
}

func TestOverwriteAndBookkeeping(t *testing.T) {
	s, _ := newTestStore(t)
	s.Put("k", 1, 10)
	s.Put("k", 2, 20)
	if s.Bytes("k") != 20 {
		t.Fatalf("Bytes = %d", s.Bytes("k"))
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d", s.Len())
	}
	v, _, _ := s.Get("k", 0)
	if v.(int) != 2 {
		t.Fatalf("overwritten value = %v", v)
	}
	if s.Bytes("absent") != 0 {
		t.Fatal("absent key has non-zero bytes")
	}
}

// TestOverwriteWithinEpochStaysPageCached pins a subtle corner of the
// epoch semantics: Put does not invalidate node page caches, so a node
// that read a key earlier in the epoch keeps its free reads even after
// the driver overwrites the key. Solvers rely on keys being epoch-scoped
// (fresh key names or NewEpoch between rewrites), and this documents why.
func TestOverwriteWithinEpochStaysPageCached(t *testing.T) {
	s, _ := newTestStore(t)
	s.Put("k", 1, 1<<20)
	if _, cost, _ := s.Get("k", 0); cost <= 0 {
		t.Fatal("first read should pay")
	}
	s.Put("k", 2, 1<<20)
	v, cost, err := s.Get("k", 0)
	if err != nil {
		t.Fatal(err)
	}
	if cost != 0 {
		t.Fatalf("same-epoch re-read after overwrite cost %v, want 0 (page cache is epoch-scoped, not version-scoped)", cost)
	}
	if v.(int) != 2 {
		t.Fatalf("value = %v, want the overwritten 2", v)
	}
}

// TestEpochCacheIsPerNode verifies that one node's page cache never
// serves another node, across several epochs: after each NewEpoch every
// node pays exactly once again.
func TestEpochCacheIsPerNode(t *testing.T) {
	s, clu := newTestStore(t)
	s.Put("col", nil, 1<<10)
	nodes := clu.Config().Nodes
	if nodes < 3 {
		t.Skip("needs >= 3 nodes")
	}
	var wantReads int64
	for epoch := 0; epoch < 3; epoch++ {
		for node := 0; node < 3; node++ {
			for rep := 0; rep < 2; rep++ {
				_, cost, err := s.Get("col", node)
				if err != nil {
					t.Fatal(err)
				}
				if rep == 0 && cost <= 0 {
					t.Fatalf("epoch %d node %d: first read was free", epoch, node)
				}
				if rep == 1 && cost != 0 {
					t.Fatalf("epoch %d node %d: second read cost %v, want 0", epoch, node, cost)
				}
			}
		}
		wantReads += 3 << 10
		if got := clu.Metrics().SharedReadBytes; got != wantReads {
			t.Fatalf("epoch %d: shared read bytes %d, want %d (one paid fetch per node per epoch)", epoch, got, wantReads)
		}
		s.NewEpoch()
		if s.Epoch() != int64(epoch)+1 {
			t.Fatalf("epoch counter = %d after %d NewEpoch calls", s.Epoch(), epoch+1)
		}
	}
}

// TestNewEpochKeepsData checks that advancing the epoch only drops page
// caches — the stored values themselves survive.
func TestNewEpochKeepsData(t *testing.T) {
	s, _ := newTestStore(t)
	s.Put("persist", "v", 128)
	for i := 0; i < 5; i++ {
		s.NewEpoch()
	}
	v, cost, err := s.Get("persist", 1)
	if err != nil {
		t.Fatal(err)
	}
	if v.(string) != "v" || cost <= 0 {
		t.Fatalf("after 5 epochs: value %v cost %v", v, cost)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d", s.Len())
	}
}

// TestDeleteDropsKeyAndChargesNothing: a deleted key is gone from the
// store and from every node's page cache, the clock and the byte counters
// do not move, and a key put again under the name is read and paid for
// afresh.
func TestDeleteDropsKeyAndChargesNothing(t *testing.T) {
	s, clu := newTestStore(t)
	s.Put("k", 1, 1<<20)
	s.Put("other", 2, 1<<20)
	if _, _, err := s.Get("k", 0); err != nil {
		t.Fatal(err)
	}
	now, m := clu.Now(), clu.Metrics()
	s.Delete("k")
	s.Delete("absent")
	if clu.Now() != now || clu.Metrics() != m {
		t.Fatal("Delete charged the cluster")
	}
	if s.Len() != 1 || s.Bytes("k") != 0 {
		t.Fatalf("after Delete: Len = %d, Bytes = %d", s.Len(), s.Bytes("k"))
	}
	if _, _, err := s.Get("k", 0); err == nil {
		t.Fatal("deleted key still readable")
	}
	if _, err := s.Peek("k"); err == nil {
		t.Fatal("deleted key still visible to Peek")
	}
	s.Put("k", 3, 1<<20)
	if v, cost, _ := s.Get("k", 0); v.(int) != 3 || cost <= 0 {
		t.Fatalf("re-put key read %v at cost %v, want 3 at a paid read", v, cost)
	}
}

// TestConcurrentGets hammers the store from many goroutines (tasks of one
// stage reading shared columns); under -race this guards the page-cache
// bookkeeping.
func TestConcurrentGets(t *testing.T) {
	s, clu := newTestStore(t)
	nodes := clu.Config().Nodes
	for k := 0; k < 4; k++ {
		s.Put(fmt.Sprintf("col-%d", k), k, 1<<12)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for it := 0; it < 50; it++ {
				key := fmt.Sprintf("col-%d", (w+it)%4)
				v, _, err := s.Get(key, (w+it)%nodes)
				if err != nil {
					errs <- err
					return
				}
				if v.(int) != (w+it)%4 {
					errs <- fmt.Errorf("key %s returned %v", key, v)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
