package rdd

import (
	"slices"
	"sync/atomic"
	"testing"

	"apspark/internal/cluster"
	"apspark/internal/matrix"
)

// TestLineageRecomputationEqualsFirstRun drops a persisted RDD's cache and
// verifies that recomputing through the lineage reproduces the exact same
// records — the invariant Spark's fault tolerance rests on.
func TestLineageRecomputationEqualsFirstRun(t *testing.T) {
	ctx := newTestContext(t, cluster.Paper())
	base := ctx.Parallelize("src", intPairs(50), Modulo{Parts: 5}).
		Map("x3", func(tc *TaskContext, p Pair) (Pair, error) {
			return Pair{Key: p.Key, Value: p.Value.(num) * 3}, nil
		}).
		PartitionBy(Modulo{Parts: 7}).
		Map("plus1", func(tc *TaskContext, p Pair) (Pair, error) {
			return Pair{Key: p.Key, Value: p.Value.(num) + 1}, nil
		}).
		Persist()
	first, err := base.Collect()
	if err != nil {
		t.Fatal(err)
	}
	base.Unpersist()
	second, err := base.Collect()
	if err != nil {
		t.Fatal(err)
	}
	norm := func(ps []Pair) []Pair {
		out := append([]Pair(nil), ps...)
		slices.SortFunc(out, func(a, b Pair) int { return a.Key.I - b.Key.I })
		return out
	}
	f, s := norm(first), norm(second)
	if len(f) != len(s) {
		t.Fatalf("record counts differ: %d vs %d", len(f), len(s))
	}
	for i := range f {
		if f[i] != s[i] {
			t.Fatalf("record %d differs after recomputation: %v vs %v", i, f[i], s[i])
		}
	}
}

// TestShuffleDeterministicReduction checks that reduceByKey results do not
// depend on arrival order (commutative fold).
func TestShuffleDeterministicReduction(t *testing.T) {
	results := make(map[int]bool)
	for trial := 0; trial < 3; trial++ {
		ctx := newTestContext(t, cluster.Paper())
		var pairs []Pair
		for i := 0; i < 100; i++ {
			pairs = append(pairs, Pair{Key: key(i % 7), Value: num(i)})
		}
		r := ctx.Parallelize("src", pairs, Modulo{Parts: 8}).
			ReduceByKey(Modulo{Parts: 3}, func(tc *TaskContext, a, b Sized) (Sized, error) {
				return min(a.(num), b.(num)), nil
			})
		got, err := r.Collect()
		if err != nil {
			t.Fatal(err)
		}
		sum := 0
		for _, p := range got {
			sum += int(p.Value.(num))*1000 + p.Key.I
		}
		results[sum] = true
	}
	if len(results) != 1 {
		t.Fatalf("reduceByKey result varied across runs: %v", results)
	}
}

// TestMapSideCombineReducesShuffleVolume verifies the Spark behaviour the
// Repeated Squaring solver depends on: reduceByKey combines map-side, so
// shuffle bytes shrink versus a plain partitionBy of the same records.
func TestMapSideCombineReducesShuffleVolume(t *testing.T) {
	mk := func() (*Context, *RDD) {
		ctx := newTestContext(t, cluster.Paper())
		var pairs []Pair
		for i := 0; i < 400; i++ {
			pairs = append(pairs, Pair{Key: key(i % 4), Value: num(i)}) // heavy key collision
		}
		return ctx, ctx.Parallelize("src", pairs, Modulo{Parts: 2})
	}
	// Target partition count differs from the source's so the operation
	// is a genuine shuffle, not the narrow co-partitioned fast path.
	ctxA, rA := mk()
	if _, err := rA.ReduceByKey(Modulo{Parts: 3}, func(tc *TaskContext, a, b Sized) (Sized, error) {
		return a, nil
	}).Collect(); err != nil {
		t.Fatal(err)
	}
	ctxB, rB := mk()
	if _, err := rB.PartitionBy(Modulo{Parts: 3}).Collect(); err != nil {
		t.Fatal(err)
	}
	if ctxA.Cluster.Metrics().ShuffleBytes >= ctxB.Cluster.Metrics().ShuffleBytes {
		t.Fatalf("map-side combine did not reduce shuffle: %d vs %d",
			ctxA.Cluster.Metrics().ShuffleBytes, ctxB.Cluster.Metrics().ShuffleBytes)
	}
}

// TestEmptyPartitionsFlow exercises stages whose partitions are empty
// (common in the solvers' filter-heavy iterations).
func TestEmptyPartitionsFlow(t *testing.T) {
	ctx := newTestContext(t, cluster.Paper())
	r := ctx.Parallelize("src", intPairs(3), Modulo{Parts: 16}).
		Filter("none", func(p Pair) bool { return false }).
		PartitionBy(Modulo{Parts: 4})
	n, err := count(r)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("count = %d", n)
	}
}

// TestProbabilisticInjectorEventuallyFires sanity-checks the random
// failure path.
func TestProbabilisticInjectorEventuallyFires(t *testing.T) {
	ctx := newTestContext(t, cluster.Paper())
	ctx.Injector = NewFailureInjector(0.3, 99)
	var executions int64
	r := ctx.Parallelize("src", intPairs(64), Modulo{Parts: 32}).
		Map("count", func(tc *TaskContext, p Pair) (Pair, error) {
			atomic.AddInt64(&executions, 1)
			return p, nil
		})
	if _, err := r.Collect(); err != nil {
		t.Fatal(err)
	}
	if ctx.Cluster.Metrics().TaskRetries == 0 {
		t.Fatal("30% failure rate produced no retries over 32 tasks")
	}
	if executions <= 64 {
		t.Fatalf("executions = %d, expected reruns beyond 64", executions)
	}
}

// TestFailedAttemptStillBurnsTime verifies the accounting rule that failed
// attempts consume cluster time (they did run).
func TestFailedAttemptStillBurnsTime(t *testing.T) {
	mkTime := func(inject bool) float64 {
		ctx := newTestContext(t, cluster.Paper())
		if inject {
			ctx.Injector = NewFailureInjector(0, 1)
			// The collect stage is named after the top RDD of the chain.
			ctx.Injector.FailNext("charge.collect", 0, 2)
		}
		r := ctx.Parallelize("src", intPairs(4), Modulo{Parts: 2}).
			Map("charge", func(tc *TaskContext, p Pair) (Pair, error) {
				tc.Charge(0.5)
				return p, nil
			})
		if _, err := r.Collect(); err != nil {
			t.Fatal(err)
		}
		return ctx.Cluster.Now()
	}
	clean := mkTime(false)
	faulty := mkTime(true)
	if faulty <= clean {
		t.Fatalf("failed attempts free: %v vs %v", faulty, clean)
	}
}

// TestUnionOfShuffledRDDs reproduces the solvers' union-then-shuffle
// pattern end to end.
func TestUnionOfShuffledRDDs(t *testing.T) {
	ctx := newTestContext(t, cluster.Paper())
	a := ctx.Parallelize("a", intPairs(10), Modulo{Parts: 2}).PartitionBy(Modulo{Parts: 3})
	b := ctx.Parallelize("b", []Pair{{Key: key(100), Value: num(1)}, {Key: key(101), Value: num(2)}}, Modulo{Parts: 2})
	u := ctx.Union(a, b).PartitionBy(Modulo{Parts: 4})
	n, err := count(u)
	if err != nil {
		t.Fatal(err)
	}
	if n != 12 {
		t.Fatalf("count = %d", n)
	}
	if u.NumPartitions() != 4 {
		t.Fatalf("partitions = %d", u.NumPartitions())
	}
}

// TestCollectCostScalesWithBytes confirms the driver pays for collect
// volume.
func TestCollectCostScalesWithBytes(t *testing.T) {
	run := func(vecLen int) float64 {
		ctx := newTestContext(t, cluster.Paper())
		pairs := []Pair{{Key: key(0), Value: matrix.NewPhantom(vecLen, 1)}}
		r := ctx.Parallelize("src", pairs, Modulo{Parts: 1})
		if _, err := r.Collect(); err != nil {
			t.Fatal(err)
		}
		return ctx.Cluster.Now()
	}
	if run(1<<22) <= run(1) {
		t.Fatal("collect cost does not scale with bytes")
	}
}

// TestNarrowCoPartitionedCombine verifies the Spark behaviour the Blocked
// In-Memory solver depends on: a wide transformation whose input already
// has the target partitioner becomes narrow — no shuffle bytes, no local
// staging — and GroupByKey still groups each partition in place.
func TestNarrowCoPartitionedCombine(t *testing.T) {
	ctx := newTestContext(t, cluster.Paper())
	part := Modulo{Parts: 4}
	pairs := append(intPairs(40), intPairs(40)...)
	r := ctx.Parallelize("src", pairs, Modulo{Parts: 2}).
		PartitionBy(part)
	if _, err := count(r); err != nil {
		t.Fatal(err)
	}
	before := ctx.Cluster.Metrics().ShuffleBytes
	grouped := r.GroupByKey(part, listGroup)
	got, err := grouped.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 40 {
		t.Fatalf("grouping made %d records, want 40", len(got))
	}
	for _, p := range got {
		if v := num(p.Key.I * 10); !slices.Equal(p.Value.(nums), nums{v, v}) {
			t.Fatalf("key %v grouped %v, want both copies of %v", p.Key, p.Value, v)
		}
	}
	if got := ctx.Cluster.Metrics().ShuffleBytes; got != before {
		t.Fatalf("co-partitioned grouping shuffled %d bytes", got-before)
	}
	if grouped.Partitioner() != Partitioner(part) {
		t.Fatal("narrow grouping lost the partitioner")
	}
	if grouped.Name() != "groupByKey.narrow" {
		t.Fatalf("grouping is %q, want the narrow dependency", grouped.Name())
	}
}

// TestPartitionerAwareUnion verifies that unions of co-partitioned RDDs
// keep the partitioner and partition count (Spark's
// PartitionerAwareUnionRDD).
func TestPartitionerAwareUnion(t *testing.T) {
	ctx := newTestContext(t, cluster.Paper())
	part := Modulo{Parts: 4}
	a := ctx.Parallelize("a", intPairs(10), part)
	b := ctx.Parallelize("b", []Pair{{Key: key(100), Value: num(1)}}, part)
	u := ctx.Union(a, b)
	if u.NumPartitions() != 4 {
		t.Fatalf("aware union has %d partitions, want 4", u.NumPartitions())
	}
	if u.Partitioner() != Partitioner(part) {
		t.Fatal("aware union lost the partitioner")
	}
	n, err := count(u)
	if err != nil || n != 11 {
		t.Fatalf("count = %d, %v", n, err)
	}
	// Records must sit in the partitioner-designated partitions.
	sizes, err := partitionSizes(u)
	if err != nil {
		t.Fatal(err)
	}
	// Keys 0..9 spread 3,3,2,2 by mod 4; key 100 lands in partition 0.
	want := []int{4, 3, 2, 2}
	for i, s := range sizes {
		if s != want[i] {
			t.Fatalf("partition sizes = %v, want %v", sizes, want)
		}
	}
}

// TestShuffleMapRetryIdempotent is a regression test: a map task retried
// after an injected failure must not register its shuffle output twice.
func TestShuffleMapRetryIdempotent(t *testing.T) {
	ctx := newTestContext(t, cluster.Paper())
	ctx.Injector = NewFailureInjector(0, 1)
	ctx.Injector.FailNext("partitionBy.map", 0, 2)
	r := ctx.Parallelize("src", intPairs(20), Modulo{Parts: 2}).
		PartitionBy(Modulo{Parts: 5})
	got, err := r.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 20 {
		t.Fatalf("retried shuffle produced %d records, want 20 (duplicates?)", len(got))
	}
	seen := map[int]bool{}
	for _, p := range got {
		k := p.Key.I
		if seen[k] {
			t.Fatalf("duplicate key %d after retry", k)
		}
		seen[k] = true
	}
}
