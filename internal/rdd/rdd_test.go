package rdd

import (
	"errors"
	"sort"
	"sync/atomic"
	"testing"

	"apspark/internal/cluster"
	"apspark/internal/costmodel"
)

func newTestContext(t *testing.T, cfg cluster.Config) *Context {
	t.Helper()
	clu, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return NewContext(clu, costmodel.PaperKernels())
}

func intPairs(n int) []Pair {
	out := make([]Pair, n)
	for i := range out {
		out[i] = Pair{Key: i, Value: i * 10}
	}
	return out
}

func collectSortedInts(t *testing.T, r *RDD) []Pair {
	t.Helper()
	got, err := r.Collect()
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(got, func(i, j int) bool { return got[i].Key.(int) < got[j].Key.(int) })
	return got
}

func TestParallelizeCollect(t *testing.T) {
	ctx := newTestContext(t, cluster.Paper())
	r := ctx.Parallelize("src", intPairs(20), Modulo{Parts: 4})
	got := collectSortedInts(t, r)
	if len(got) != 20 {
		t.Fatalf("collected %d records", len(got))
	}
	for i, p := range got {
		if p.Key.(int) != i || p.Value.(int) != i*10 {
			t.Fatalf("record %d = %v", i, p)
		}
	}
}

func TestCount(t *testing.T) {
	ctx := newTestContext(t, cluster.Paper())
	r := ctx.Parallelize("src", intPairs(13), Modulo{Parts: 5})
	n, err := r.Count()
	if err != nil {
		t.Fatal(err)
	}
	if n != 13 {
		t.Fatalf("Count = %d", n)
	}
}

func TestMap(t *testing.T) {
	ctx := newTestContext(t, cluster.Paper())
	r := ctx.Parallelize("src", intPairs(10), Modulo{Parts: 3}).
		Map("double", func(tc *TaskContext, p Pair) (Pair, error) {
			return Pair{Key: p.Key, Value: p.Value.(int) * 2}, nil
		})
	got := collectSortedInts(t, r)
	for i, p := range got {
		if p.Value.(int) != i*20 {
			t.Fatalf("map value %d = %v", i, p.Value)
		}
	}
}

func TestMapError(t *testing.T) {
	ctx := newTestContext(t, cluster.Paper())
	boom := errors.New("boom")
	r := ctx.Parallelize("src", intPairs(4), Modulo{Parts: 2}).
		Map("fail", func(tc *TaskContext, p Pair) (Pair, error) { return Pair{}, boom })
	if _, err := r.Collect(); err == nil {
		t.Fatal("error swallowed")
	}
}

func TestFlatMapAndFilter(t *testing.T) {
	ctx := newTestContext(t, cluster.Paper())
	r := ctx.Parallelize("src", intPairs(6), Modulo{Parts: 2}).
		FlatMap("dup", func(tc *TaskContext, p Pair) ([]Pair, error) {
			return []Pair{p, {Key: p.Key.(int) + 100, Value: p.Value}}, nil
		}).
		Filter("small", func(p Pair) bool { return p.Key.(int) < 100 })
	got := collectSortedInts(t, r)
	if len(got) != 6 {
		t.Fatalf("filter kept %d records", len(got))
	}
}

func TestUnionPartitionCounts(t *testing.T) {
	ctx := newTestContext(t, cluster.Paper())
	a := ctx.Parallelize("a", intPairs(5), Modulo{Parts: 2})
	b := ctx.Parallelize("b", []Pair{{Key: 100, Value: 1}}, Modulo{Parts: 3})
	u := ctx.Union(a, b)
	if u.NumPartitions() != 5 {
		t.Fatalf("union partitions = %d, want 5 (Spark semantics)", u.NumPartitions())
	}
	n, err := u.Count()
	if err != nil || n != 6 {
		t.Fatalf("union count = %d, %v", n, err)
	}
}

func TestPartitionByLayout(t *testing.T) {
	ctx := newTestContext(t, cluster.Paper())
	r := ctx.Parallelize("src", intPairs(40), Modulo{Parts: 2}).
		PartitionBy(Modulo{Parts: 8})
	sizes, err := r.PartitionSizes()
	if err != nil {
		t.Fatal(err)
	}
	if len(sizes) != 8 {
		t.Fatalf("partitions = %d", len(sizes))
	}
	for i, s := range sizes {
		if s != 5 {
			t.Fatalf("partition %d has %d records, want 5", i, s)
		}
	}
	if ctx.Cluster.Metrics().ShuffleBytes == 0 {
		t.Fatal("partitionBy moved no shuffle bytes")
	}
}

func TestReduceByKey(t *testing.T) {
	ctx := newTestContext(t, cluster.Paper())
	var pairs []Pair
	for i := 0; i < 30; i++ {
		pairs = append(pairs, Pair{Key: i % 3, Value: 1})
	}
	r := ctx.Parallelize("src", pairs, Modulo{Parts: 4}).
		ReduceByKey(Modulo{Parts: 2}, func(tc *TaskContext, a, b any) (any, error) {
			return a.(int) + b.(int), nil
		})
	got := collectSortedInts(t, r)
	if len(got) != 3 {
		t.Fatalf("reduceByKey produced %d keys", len(got))
	}
	for _, p := range got {
		if p.Value.(int) != 10 {
			t.Fatalf("key %v reduced to %v, want 10", p.Key, p.Value)
		}
	}
}

func TestCombineByKeyListAppend(t *testing.T) {
	ctx := newTestContext(t, cluster.Paper())
	pairs := []Pair{
		{Key: 1, Value: "a"}, {Key: 1, Value: "b"}, {Key: 2, Value: "c"},
	}
	r := ctx.Parallelize("src", pairs, Modulo{Parts: 3}).
		CombineByKey(Modulo{Parts: 2},
			func(tc *TaskContext, v any) (any, error) { return []any{v}, nil },
			func(tc *TaskContext, acc, v any) (any, error) { return append(acc.([]any), v), nil })
	got := collectSortedInts(t, r)
	if len(got) != 2 {
		t.Fatalf("combineByKey produced %d keys", len(got))
	}
	if l := got[0].Value.([]any); len(l) != 2 {
		t.Fatalf("key 1 list = %v", l)
	}
	if l := got[1].Value.([]any); len(l) != 1 || l[0].(string) != "c" {
		t.Fatalf("key 2 list = %v", l)
	}
}

func TestCartesian(t *testing.T) {
	ctx := newTestContext(t, cluster.Paper())
	a := ctx.Parallelize("a", intPairs(3), Modulo{Parts: 2})
	b := ctx.Parallelize("b", intPairs(4), Modulo{Parts: 2})
	n, err := a.Cartesian(b).Count()
	if err != nil {
		t.Fatal(err)
	}
	if n != 12 {
		t.Fatalf("cartesian count = %d, want 12", n)
	}
	if ctx.Cluster.Metrics().ShuffleBytes == 0 {
		t.Fatal("cartesian charged no replication traffic")
	}
}

func TestPersistComputesOnce(t *testing.T) {
	ctx := newTestContext(t, cluster.Paper())
	var calls atomic.Int64
	r := ctx.Parallelize("src", intPairs(4), Modulo{Parts: 2}).
		Map("count-calls", func(tc *TaskContext, p Pair) (Pair, error) {
			calls.Add(1)
			return p, nil
		}).Persist()
	if _, err := r.Collect(); err != nil {
		t.Fatal(err)
	}
	first := calls.Load()
	if _, err := r.Collect(); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != first {
		t.Fatalf("persisted RDD recomputed: %d -> %d calls", first, calls.Load())
	}
}

func TestUnpersistForcesRecompute(t *testing.T) {
	ctx := newTestContext(t, cluster.Paper())
	var calls atomic.Int64
	base := ctx.Parallelize("src", intPairs(4), Modulo{Parts: 2}).
		Map("count-calls", func(tc *TaskContext, p Pair) (Pair, error) {
			calls.Add(1)
			return p, nil
		}).Persist()
	if _, err := base.Collect(); err != nil {
		t.Fatal(err)
	}
	first := calls.Load()
	base.Unpersist()
	if _, err := base.Collect(); err != nil {
		t.Fatal(err)
	}
	if calls.Load() <= first {
		t.Fatal("unpersist did not force lineage recomputation")
	}
}

func TestVirtualClockAdvances(t *testing.T) {
	ctx := newTestContext(t, cluster.Paper())
	before := ctx.Cluster.Now()
	r := ctx.Parallelize("src", intPairs(100), Modulo{Parts: 10}).
		Map("charge", func(tc *TaskContext, p Pair) (Pair, error) {
			tc.Charge(0.01)
			return p, nil
		})
	if _, err := r.Collect(); err != nil {
		t.Fatal(err)
	}
	if ctx.Cluster.Now() <= before {
		t.Fatal("virtual clock did not advance")
	}
	m := ctx.Cluster.Metrics()
	if m.Stages == 0 || m.Tasks == 0 {
		t.Fatalf("metrics = %+v", m)
	}
}

func TestStageMakespanBounds(t *testing.T) {
	// With 100 tasks of 10 ms each on a tiny 4-core cluster, the makespan
	// must be at least work/p and at most total work (plus overheads).
	cfg := cluster.Tiny()
	cfg.LocalDiskBytes = 1 << 40
	ctx := newTestContext(t, cfg)
	r := ctx.Parallelize("src", intPairs(100), Modulo{Parts: 100}).
		Map("charge", func(tc *TaskContext, p Pair) (Pair, error) {
			tc.Charge(0.01)
			return p, nil
		})
	if _, err := r.Collect(); err != nil {
		t.Fatal(err)
	}
	elapsed := ctx.Cluster.Now()
	if elapsed < 100*0.01/4 {
		t.Fatalf("makespan %v below work/p bound", elapsed)
	}
	if elapsed > 100*0.01+5 {
		t.Fatalf("makespan %v above serial bound + overheads", elapsed)
	}
}

func TestFaultToleranceRetries(t *testing.T) {
	ctx := newTestContext(t, cluster.Paper())
	ctx.Injector = NewFailureInjector(0, 1)
	ctx.Injector.FailNext("doubled", 2, 2) // fail task 2 twice
	r := ctx.Parallelize("src", intPairs(12), Modulo{Parts: 4}).
		Map("noop", func(tc *TaskContext, p Pair) (Pair, error) { return p, nil })
	// The Map pipeline runs inside the collect stage named after the RDD.
	got, err := r.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 12 {
		t.Fatalf("collected %d records after retries", len(got))
	}
}

func TestScriptedFailureRetriesAndSucceeds(t *testing.T) {
	ctx := newTestContext(t, cluster.Paper())
	ctx.Injector = NewFailureInjector(0, 1)
	ctx.Injector.FailNext("src.collect", 1, 3) // three failures, four attempts allowed
	r := ctx.Parallelize("src", intPairs(8), Modulo{Parts: 4})
	if _, err := r.Collect(); err != nil {
		t.Fatalf("run failed despite retry budget: %v", err)
	}
	if ctx.Cluster.Metrics().TaskRetries < 3 {
		t.Fatalf("retries = %d, want >= 3", ctx.Cluster.Metrics().TaskRetries)
	}
}

func TestPermanentFailureAfterMaxAttempts(t *testing.T) {
	ctx := newTestContext(t, cluster.Paper())
	ctx.Injector = NewFailureInjector(0, 1)
	ctx.Injector.FailNext("src.collect", 0, 10)
	r := ctx.Parallelize("src", intPairs(4), Modulo{Parts: 2})
	_, err := r.Collect()
	var te *TaskError
	if !errors.As(err, &te) {
		t.Fatalf("want TaskError, got %v", err)
	}
}

func TestImpureRunAbortsOnFailure(t *testing.T) {
	ctx := newTestContext(t, cluster.Paper())
	ctx.Injector = NewFailureInjector(0, 1)
	ctx.Injector.FailNext("src.collect", 0, 1)
	ctx.MarkImpure()
	r := ctx.Parallelize("src", intPairs(4), Modulo{Parts: 2})
	if _, err := r.Collect(); !errors.Is(err, ErrNotFaultTolerant) {
		t.Fatalf("want ErrNotFaultTolerant, got %v", err)
	}
}

func TestLocalStorageExhaustionAborts(t *testing.T) {
	cfg := cluster.Tiny() // 1 MiB per node
	ctx := newTestContext(t, cfg)
	// 4k records x 64 fallback bytes each, repeatedly shuffled, overflows
	// the tiny disks.
	pairs := intPairs(8000)
	r := ctx.Parallelize("src", pairs, Modulo{Parts: 4})
	var err error
	for i := 0; i < 12 && err == nil; i++ {
		// Alternate partition counts so each round is a real shuffle
		// rather than the narrow co-partitioned fast path.
		r = r.PartitionBy(Modulo{Parts: 4 + i%2})
		_, err = r.Count()
	}
	var se *cluster.ErrLocalStorage
	if !errors.As(err, &se) {
		t.Fatalf("want local-storage exhaustion, got %v", err)
	}
}

func TestBroadcastChargesDriver(t *testing.T) {
	ctx := newTestContext(t, cluster.Paper())
	before := ctx.Cluster.Now()
	b := ctx.Broadcast(make([]float64, 1<<16))
	if b.Value() == nil {
		t.Fatal("broadcast lost its value")
	}
	if ctx.Cluster.Now() <= before {
		t.Fatal("broadcast cost not charged")
	}
	if ctx.Cluster.Metrics().BroadcastBytes != 8<<16 {
		t.Fatalf("broadcast bytes = %d", ctx.Cluster.Metrics().BroadcastBytes)
	}
}

func TestSharedGetThroughTaskContext(t *testing.T) {
	ctx := newTestContext(t, cluster.Paper())
	ctx.Store.Put("k", 42, 1000)
	r := ctx.Parallelize("src", intPairs(2), Modulo{Parts: 1}).
		Map("read", func(tc *TaskContext, p Pair) (Pair, error) {
			v, err := tc.SharedGet("k")
			if err != nil {
				return Pair{}, err
			}
			return Pair{Key: p.Key, Value: v}, nil
		})
	got := collectSortedInts(t, r)
	if got[0].Value.(int) != 42 {
		t.Fatalf("shared value = %v", got[0].Value)
	}
	if _, err := ctx.Parallelize("src2", intPairs(1), Modulo{Parts: 1}).
		Map("miss", func(tc *TaskContext, p Pair) (Pair, error) {
			_, err := tc.SharedGet("absent")
			return p, err
		}).Collect(); err == nil {
		t.Fatal("missing shared key not propagated")
	}
}

func TestDefaultSize(t *testing.T) {
	if DefaultSize([]float64{1, 2, 3}) != 24 {
		t.Fatal("vector size wrong")
	}
	if DefaultSize(nil) != 0 {
		t.Fatal("nil size wrong")
	}
	if DefaultSize([]any{[]float64{1}, []float64{2, 3}}) != 24 {
		t.Fatal("list size wrong")
	}
	if DefaultSize(42) != 64 {
		t.Fatal("fallback size wrong")
	}
}
