package rdd

import (
	"strings"
	"sync/atomic"
	"testing"

	"apspark/internal/cluster"
)

func TestCheckpointKeepsData(t *testing.T) {
	ctx := newTestContext(t, cluster.Paper())
	r := ctx.Parallelize("src", intPairs(20), Modulo{Parts: 4}).
		Map("x2", func(tc *TaskContext, p Pair) (Pair, error) {
			return Pair{Key: p.Key, Value: p.Value.(num) * 2}, nil
		}).
		Persist()
	if err := r.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	got := collectSortedInts(t, r)
	if len(got) != 20 || got[3].Value != num(60) {
		t.Fatalf("post-checkpoint data wrong: %v", got[:4])
	}
}

func TestCheckpointTruncatesLineage(t *testing.T) {
	ctx := newTestContext(t, cluster.Paper())
	r := ctx.Parallelize("src", intPairs(8), Modulo{Parts: 2}).
		PartitionBy(Modulo{Parts: 4}).
		Map("id", func(tc *TaskContext, p Pair) (Pair, error) { return p, nil }).
		Persist()
	if err := r.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	r.Unpersist()
	_, err := r.Collect()
	if err == nil {
		t.Fatal("recomputation succeeded through a truncated lineage")
	}
	if !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestCheckpointRequiresBarrier(t *testing.T) {
	ctx := newTestContext(t, cluster.Paper())
	r := ctx.Parallelize("src", intPairs(4), Modulo{Parts: 2}).
		Map("id", func(tc *TaskContext, p Pair) (Pair, error) { return p, nil })
	if err := r.Checkpoint(); err == nil {
		t.Fatal("narrow RDD checkpoint accepted")
	}
}

func TestCheckpointedChainIterates(t *testing.T) {
	// The solvers' pattern: rebuild an RDD each iteration from the
	// previous one, checkpointing as they go. Data must stay correct and
	// the lineage must not accumulate.
	ctx := newTestContext(t, cluster.Paper())
	r := ctx.Parallelize("src", intPairs(16), Modulo{Parts: 4})
	for i := 0; i < 10; i++ {
		r = r.Map("inc", func(tc *TaskContext, p Pair) (Pair, error) {
			return Pair{Key: p.Key, Value: p.Value.(num) + 1}, nil
		}).PartitionBy(Modulo{Parts: 4}).Persist()
		if err := r.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if len(r.parents) != 0 {
			t.Fatalf("iteration %d: lineage not severed", i)
		}
	}
	got := collectSortedInts(t, r)
	for i, p := range got {
		if p.Value != num(i*10+10) {
			t.Fatalf("record %d = %v after 10 iterations", i, p)
		}
	}
}

// payload is a record value that remembers which generation made it.
type payload struct{ gen, key int }

func (*payload) SizeBytes() int64 { return 64 }

// TestCheckpointAndReleaseReportsSeveredLineage checks what the release
// hook is told: kept is the checkpointed RDD's own partitions; severed
// covers everything the cut lineage retained — the source, an intermediate
// persisted RDD and the shuffle's buckets — and nothing is reported, or
// reachable for recomputation, twice.
func TestCheckpointAndReleaseReportsSeveredLineage(t *testing.T) {
	ctx := newTestContext(t, cluster.Paper())
	var src []Pair
	for i := 0; i < 8; i++ {
		src = append(src, Pair{Key: key(i), Value: &payload{0, i}})
	}
	gen0 := ctx.Parallelize("src", src, Modulo{Parts: 2})
	mid := gen0.Map("gen1", func(tc *TaskContext, p Pair) (Pair, error) {
		return Pair{Key: p.Key, Value: &payload{1, p.Key.I}}, nil
	}).Persist()
	// Half the records pass through unchanged, half are replaced.
	gen2 := mid.Map("gen2", func(tc *TaskContext, p Pair) (Pair, error) {
		if k := p.Key.I; k%2 == 0 {
			return Pair{Key: p.Key, Value: &payload{2, k}}, nil
		}
		return p, nil
	}).PartitionBy(Modulo{Parts: 4}).Persist()

	var calls atomic.Int64
	count := func(parts [][]Pair) map[*payload]int {
		seen := map[*payload]int{}
		for _, part := range parts {
			for _, rec := range part {
				seen[rec.Value.(*payload)]++
			}
		}
		return seen
	}
	err := gen2.CheckpointAndRelease(func(severed, kept [][]Pair) {
		calls.Add(1)
		k, s := count(kept), count(severed)
		if len(k) != 8 {
			t.Fatalf("kept %d payloads, want 8", len(k))
		}
		gens := map[int]int{}
		for p := range s {
			gens[p.gen]++
		}
		// The source's 8, the persisted middle's 8, and through the shuffle
		// buckets the 4 new ones.
		if gens[0] != 8 || gens[1] != 8 || gens[2] != 4 {
			t.Fatalf("severed payloads by generation = %v", gens)
		}
		for p := range k {
			if p.gen == 0 || (p.gen == 1) != (p.key%2 == 1) {
				t.Fatalf("kept an unexpected payload %+v", *p)
			}
			if s[p] == 0 {
				t.Fatalf("kept payload %+v was not also retained upstream (shuffle buckets)", *p)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 1 {
		t.Fatalf("release called %d times", calls.Load())
	}
	if len(gen2.parents) != 0 {
		t.Fatal("lineage not severed")
	}
	// A second checkpoint has nothing upstream left to report.
	err = gen2.CheckpointAndRelease(func(severed, kept [][]Pair) {
		if len(severed) != 0 {
			t.Fatalf("second checkpoint reported %d severed partitions", len(severed))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
