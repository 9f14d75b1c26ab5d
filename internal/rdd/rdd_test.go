package rdd

import (
	"errors"
	"slices"
	"sync/atomic"
	"testing"

	"apspark/internal/cluster"
	"apspark/internal/costmodel"
	"apspark/internal/graph"
	"apspark/internal/matrix"
)

func newTestContext(t *testing.T, cfg cluster.Config) *Context {
	t.Helper()
	clu, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return NewContext(clu, costmodel.PaperKernels())
}

// num is the engine tests' record value: an int sized as a flat 64 bytes.
type num int

func (num) SizeBytes() int64 { return 64 }

// nums is the list the tests' groupings build.
type nums []num

func (l nums) SizeBytes() int64 { return int64(len(l)) * 64 }

// listGroup is a GroupByKey function: the key's values as one list, in
// the order the group holds them.
func listGroup(tc *TaskContext, group []Pair) (Pair, error) {
	l := make(nums, len(group))
	for i, rec := range group {
		l[i] = rec.Value.(num)
	}
	return Pair{Key: group[0].Key, Value: l}, nil
}

// key is the block key of record i, (i, 0): Modulo sends it to partition
// i mod parts.
func key(i int) graph.BlockKey { return graph.BlockKey{I: i} }

func intPairs(n int) []Pair {
	out := make([]Pair, n)
	for i := range out {
		out[i] = Pair{Key: key(i), Value: num(i * 10)}
	}
	return out
}

func collectSortedInts(t *testing.T, r *RDD) []Pair {
	t.Helper()
	got, err := r.Collect()
	if err != nil {
		t.Fatal(err)
	}
	slices.SortFunc(got, func(a, b Pair) int { return a.Key.I - b.Key.I })
	return got
}

// partitionSizes materializes r and returns each partition's record
// count, charging the driver nothing for it.
func partitionSizes(r *RDD) ([]int, error) {
	if err := r.ensureBarriers(); err != nil {
		return nil, err
	}
	res, err := r.ctx.runStage(r.name+".sizes", r.parts, r.compute)
	if err != nil {
		return nil, err
	}
	sizes := make([]int, len(res))
	for i, part := range res {
		sizes[i] = len(part)
	}
	return sizes, nil
}

// count is r's record count, through partitionSizes.
func count(r *RDD) (int, error) {
	sizes, err := partitionSizes(r)
	n := 0
	for _, s := range sizes {
		n += s
	}
	return n, err
}

func TestParallelizeCollect(t *testing.T) {
	ctx := newTestContext(t, cluster.Paper())
	r := ctx.Parallelize("src", intPairs(20), Modulo{Parts: 4})
	got := collectSortedInts(t, r)
	if len(got) != 20 {
		t.Fatalf("collected %d records", len(got))
	}
	for i, p := range got {
		if p.Key != key(i) || p.Value != num(i*10) {
			t.Fatalf("record %d = %v", i, p)
		}
	}
}

func TestMap(t *testing.T) {
	ctx := newTestContext(t, cluster.Paper())
	r := ctx.Parallelize("src", intPairs(10), Modulo{Parts: 3}).
		Map("double", func(tc *TaskContext, p Pair) (Pair, error) {
			return Pair{Key: p.Key, Value: p.Value.(num) * 2}, nil
		})
	got := collectSortedInts(t, r)
	for i, p := range got {
		if p.Value != num(i*20) {
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
			return []Pair{p, {Key: key(p.Key.I + 100), Value: p.Value}}, nil
		}).
		Filter("small", func(p Pair) bool { return p.Key.I < 100 })
	got := collectSortedInts(t, r)
	if len(got) != 6 {
		t.Fatalf("filter kept %d records", len(got))
	}
}

func TestUnionPartitionCounts(t *testing.T) {
	ctx := newTestContext(t, cluster.Paper())
	a := ctx.Parallelize("a", intPairs(5), Modulo{Parts: 2})
	b := ctx.Parallelize("b", []Pair{{Key: key(100), Value: num(1)}}, Modulo{Parts: 3})
	u := ctx.Union(a, b)
	if u.NumPartitions() != 5 {
		t.Fatalf("union partitions = %d, want 5 (Spark semantics)", u.NumPartitions())
	}
	n, err := count(u)
	if err != nil || n != 6 {
		t.Fatalf("union count = %d, %v", n, err)
	}
}

func TestPartitionByLayout(t *testing.T) {
	ctx := newTestContext(t, cluster.Paper())
	r := ctx.Parallelize("src", intPairs(40), Modulo{Parts: 2}).
		PartitionBy(Modulo{Parts: 8})
	sizes, err := partitionSizes(r)
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
		pairs = append(pairs, Pair{Key: key(i % 3), Value: num(1)})
	}
	r := ctx.Parallelize("src", pairs, Modulo{Parts: 4}).
		ReduceByKey(Modulo{Parts: 2}, func(tc *TaskContext, a, b Sized) (Sized, error) {
			return a.(num) + b.(num), nil
		})
	got := collectSortedInts(t, r)
	if len(got) != 3 {
		t.Fatalf("reduceByKey produced %d keys", len(got))
	}
	for _, p := range got {
		if p.Value != num(10) {
			t.Fatalf("key %v reduced to %v, want 10", p.Key, p.Value)
		}
	}
}

// TestGroupByKey pins the grouping GroupByKey hands its function: each
// key's records as one run, keys in first-seen order, records in arrival
// order, however the keys interleave in the bucket.
func TestGroupByKey(t *testing.T) {
	ctx := newTestContext(t, cluster.Paper())
	pairs := []Pair{
		{Key: key(4), Value: num(1)}, {Key: key(2), Value: num(2)}, {Key: key(4), Value: num(3)},
		{Key: key(6), Value: num(4)}, {Key: key(2), Value: num(5)}, {Key: key(4), Value: num(6)},
		{Key: key(1), Value: num(7)},
	}
	r := ctx.Parallelize("src", pairs, Modulo{Parts: 1}).
		GroupByKey(Modulo{Parts: 2}, listGroup)
	got, err := r.Collect()
	if err != nil {
		t.Fatal(err)
	}
	// Partition 0 holds the even keys in first-seen order, partition 1 key 1.
	want := []Pair{
		{Key: key(4), Value: nums{1, 3, 6}}, {Key: key(2), Value: nums{2, 5}},
		{Key: key(6), Value: nums{4}}, {Key: key(1), Value: nums{7}},
	}
	if len(got) != len(want) {
		t.Fatalf("groupByKey produced %d keys, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Key != want[i].Key || !slices.Equal(got[i].Value.(nums), want[i].Value.(nums)) {
			t.Fatalf("group %d = %v %v, want %v %v", i, got[i].Key, got[i].Value, want[i].Key, want[i].Value)
		}
	}
	// The source partition is read again by a second action, unreordered.
	src := ctx.Parallelize("src", pairs, Modulo{Parts: 1})
	if _, err := src.GroupByKey(src.Partitioner(), listGroup).Collect(); err != nil {
		t.Fatal(err)
	}
	if back, err := src.Collect(); err != nil || !slices.Equal(back, pairs) {
		t.Fatalf("grouping reordered its input partition: %v, %v", back, err)
	}
}

// TestGroupByKeyErrorStopsTask checks that an error from the group
// function fails the task: no later key of the bucket is grouped, and the
// action reports the error.
func TestGroupByKeyErrorStopsTask(t *testing.T) {
	ctx := newTestContext(t, cluster.Paper())
	boom := errors.New("boom")
	var seen []int
	r := ctx.Parallelize("src", intPairs(3), Modulo{Parts: 1}).
		GroupByKey(Modulo{Parts: 1}, func(tc *TaskContext, group []Pair) (Pair, error) {
			seen = append(seen, group[0].Key.I)
			if group[0].Key.I == 1 {
				return Pair{}, boom
			}
			return group[0], nil
		})
	if _, err := r.Collect(); !errors.Is(err, boom) {
		t.Fatalf("Collect error = %v, want %v", err, boom)
	}
	// Every attempt of the task (the engine retries it) stops at key 1.
	for i := 0; i < len(seen); i += 2 {
		if !slices.Equal(seen[i:min(i+2, len(seen))], []int{0, 1}) {
			t.Fatalf("attempts grouped keys %v, want [0 1] per attempt", seen)
		}
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
		_, err = count(r)
	}
	var se *cluster.ErrLocalStorage
	if !errors.As(err, &se) {
		t.Fatalf("want local-storage exhaustion, got %v", err)
	}
}

func TestBroadcastChargesDriver(t *testing.T) {
	ctx := newTestContext(t, cluster.Paper())
	before := ctx.Cluster.Now()
	b := ctx.Broadcast(matrix.NewPhantom(1<<16, 1))
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
	ctx.Store.Put("k", num(42), 1000)
	r := ctx.Parallelize("src", intPairs(2), Modulo{Parts: 1}).
		Map("read", func(tc *TaskContext, p Pair) (Pair, error) {
			v, err := tc.SharedGet("k")
			if err != nil {
				return Pair{}, err
			}
			return Pair{Key: p.Key, Value: v.(num)}, nil
		})
	got := collectSortedInts(t, r)
	if got[0].Value != num(42) {
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

// TestDefaultSize checks how the engine sizes record values: the shuffle
// and broadcast by SizeBytes, collect by a block's bytes or a flat 64, and
// a record without a value as 0 everywhere.
func TestDefaultSize(t *testing.T) {
	blk := matrix.NewPhantom(3, 1)
	if sizeOf(blk) != 24 || collectedSize(blk) != 24 {
		t.Fatal("block size wrong")
	}
	if sizeOf(nil) != 0 || collectedSize(nil) != 0 {
		t.Fatal("nil size wrong")
	}
	if sizeOf(nums{1, 2}) != 128 || collectedSize(nums{1, 2}) != 64 {
		t.Fatal("list size wrong")
	}
}
