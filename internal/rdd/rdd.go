package rdd

import (
	"fmt"
	"slices"
	"sync"

	"apspark/internal/graph"
	"apspark/internal/matrix"
)

// RDD is a lazily evaluated, partitioned dataset of Pairs with tracked
// lineage. Narrow transformations (Map, FlatMap, Filter, Union) pipeline
// into their consumer's stage, exactly like Spark; wide transformations
// (PartitionBy, ReduceByKey, GroupByKey) cut stage boundaries
// and move data through the shuffle.
type RDD struct {
	ctx   *Context
	id    int
	name  string
	parts int
	// partitioner is non-nil when the RDD's layout is known (sources,
	// shuffle outputs).
	partitioner Partitioner
	parents     []*RDD

	// compute produces partition p, assuming every upstream barrier has
	// been materialized.
	compute func(tc *TaskContext, p int) ([]Pair, error)

	// barrier marks RDDs that must materialize before dependents run:
	// sources, shuffle outputs, persisted RDDs.
	barrier bool
	// isPersist marks persist wrappers (and sources, which are born
	// cached); Persist is a no-op on them.
	isPersist bool
	// materialize runs this barrier's stage(s); idempotent.
	materialize func() error

	mu     sync.Mutex
	cached [][]Pair // non-nil once materialized (barrier RDDs only)
}

// Name returns the RDD's debug name.
func (r *RDD) Name() string { return r.name }

// NumPartitions returns the partition count.
func (r *RDD) NumPartitions() int { return r.parts }

// Partitioner returns the partitioner, or nil when the layout is unknown.
func (r *RDD) Partitioner() Partitioner { return r.partitioner }

// Parallelize creates a source RDD from records laid out by the given
// partitioner. As in the paper's experiments, the cost of populating the
// initial RDD is not charged to the virtual clock (§5.1: "we disregard the
// cost of populating RDD that stores the adjacency matrix").
func (c *Context) Parallelize(name string, pairs []Pair, part Partitioner) *RDD {
	buckets := make([][]Pair, part.NumPartitions())
	for _, p := range pairs {
		b := part.Partition(p.Key)
		buckets[b] = append(buckets[b], p)
	}
	r := &RDD{
		ctx:         c,
		id:          c.newID(),
		name:        name,
		parts:       part.NumPartitions(),
		partitioner: part,
		barrier:     true,
		isPersist:   true,
		cached:      buckets,
	}
	r.materialize = func() error { return nil }
	r.compute = func(tc *TaskContext, p int) ([]Pair, error) { return r.cached[p], nil }
	return r
}

// ensureBarriers materializes every barrier RDD in the lineage, parents
// first.
func (r *RDD) ensureBarriers() error {
	for _, dep := range r.parents {
		if err := dep.ensureBarriers(); err != nil {
			return err
		}
	}
	if r.barrier {
		return r.materialize()
	}
	return nil
}

// Map applies f to every record (narrow, pipelined).
func (r *RDD) Map(name string, f func(tc *TaskContext, p Pair) (Pair, error)) *RDD {
	out := &RDD{
		ctx:     r.ctx,
		id:      r.ctx.newID(),
		name:    name,
		parts:   r.parts,
		parents: []*RDD{r},
		// Map preserves keys' partitioning only if keys are unchanged;
		// Spark drops the partitioner, and so do we.
	}
	out.compute = func(tc *TaskContext, p int) ([]Pair, error) {
		in, err := r.compute(tc, p)
		if err != nil {
			return nil, err
		}
		res := make([]Pair, 0, len(in))
		for _, rec := range in {
			nr, err := f(tc, rec)
			if err != nil {
				return nil, err
			}
			res = append(res, nr)
		}
		return res, nil
	}
	return out
}

// FlatMap applies f to every record, concatenating outputs (narrow).
func (r *RDD) FlatMap(name string, f func(tc *TaskContext, p Pair) ([]Pair, error)) *RDD {
	out := &RDD{
		ctx:     r.ctx,
		id:      r.ctx.newID(),
		name:    name,
		parts:   r.parts,
		parents: []*RDD{r},
	}
	out.compute = func(tc *TaskContext, p int) ([]Pair, error) {
		in, err := r.compute(tc, p)
		if err != nil {
			return nil, err
		}
		var res []Pair
		for _, rec := range in {
			nrs, err := f(tc, rec)
			if err != nil {
				return nil, err
			}
			res = append(res, nrs...)
		}
		return res, nil
	}
	return out
}

// Filter keeps records matching pred (narrow, preserves partitioning).
func (r *RDD) Filter(name string, pred func(p Pair) bool) *RDD {
	out := &RDD{
		ctx:         r.ctx,
		id:          r.ctx.newID(),
		name:        name,
		parts:       r.parts,
		partitioner: r.partitioner,
		parents:     []*RDD{r},
	}
	out.compute = func(tc *TaskContext, p int) ([]Pair, error) {
		in, err := r.compute(tc, p)
		if err != nil {
			return nil, err
		}
		var res []Pair
		for _, rec := range in {
			if pred(rec) {
				res = append(res, rec)
			}
		}
		return res, nil
	}
	return out
}

// Union concatenates RDDs. As in Spark, when every component shares the
// same partitioner the result is partitioner-aware: partition p of the
// union is the concatenation of the components' partitions p, and the
// partitioner is preserved (Spark's PartitionerAwareUnionRDD) — the
// property the paper's custom partitioning of block copies relies on.
// Otherwise each component keeps its own partitions and the result has
// the sum of the partition counts, which is exactly the partition-blowup
// hazard the paper warns about in §5.2.
func (c *Context) Union(rdds ...*RDD) *RDD {
	if len(rdds) == 0 {
		panic("rdd: Union of nothing")
	}
	if p := rdds[0].partitioner; p != nil {
		aware := true
		for _, r := range rdds[1:] {
			if r.partitioner != p {
				aware = false
				break
			}
		}
		if aware {
			out := &RDD{
				ctx:         c,
				id:          c.newID(),
				name:        "union",
				parts:       p.NumPartitions(),
				partitioner: p,
				parents:     append([]*RDD(nil), rdds...),
			}
			out.compute = func(tc *TaskContext, part int) ([]Pair, error) {
				var all []Pair
				for _, r := range rdds {
					pairs, err := r.compute(tc, part)
					if err != nil {
						return nil, err
					}
					all = append(all, pairs...)
				}
				return all, nil
			}
			return out
		}
	}
	total := 0
	for _, r := range rdds {
		total += r.parts
	}
	out := &RDD{
		ctx:     c,
		id:      c.newID(),
		name:    "union",
		parts:   total,
		parents: append([]*RDD(nil), rdds...),
	}
	out.compute = func(tc *TaskContext, p int) ([]Pair, error) {
		for _, r := range rdds {
			if p < r.parts {
				return r.compute(tc, p)
			}
			p -= r.parts
		}
		return nil, fmt.Errorf("rdd: union partition out of range")
	}
	return out
}

// Persist materializes the RDD on first use and serves dependents from
// cache afterwards (Spark's .persist() with MEMORY storage level).
// Persisting a shuffle output matters for cost fidelity: without it every
// consuming stage re-fetches and re-folds the shuffle, exactly as in
// Spark.
func (r *RDD) Persist() *RDD {
	if r.isPersist {
		return r
	}
	out := &RDD{
		ctx:         r.ctx,
		id:          r.ctx.newID(),
		name:        r.name + ".persist",
		parts:       r.parts,
		partitioner: r.partitioner,
		parents:     []*RDD{r},
		barrier:     true,
		isPersist:   true,
	}
	// The closure reads the parent through out.parents so Checkpoint can
	// sever the lineage (and release every retained cache and shuffle
	// upstream) by clearing that slice.
	out.materialize = func() error {
		out.mu.Lock()
		done := out.cached != nil
		var parent *RDD
		if len(out.parents) > 0 {
			parent = out.parents[0]
		}
		out.mu.Unlock()
		if done {
			return nil
		}
		if parent == nil {
			return fmt.Errorf("rdd: cannot recompute %q: lineage truncated by Checkpoint", out.name)
		}
		res, err := out.ctx.runStage(out.name, out.parts, func(tc *TaskContext, p int) ([]Pair, error) {
			return parent.compute(tc, p)
		})
		if err != nil {
			return err
		}
		out.mu.Lock()
		out.cached = res
		out.mu.Unlock()
		return nil
	}
	out.compute = func(tc *TaskContext, p int) ([]Pair, error) {
		out.mu.Lock()
		defer out.mu.Unlock()
		if out.cached == nil {
			return nil, fmt.Errorf("rdd: persisted %q not materialized", out.name)
		}
		return out.cached[p], nil
	}
	return out
}

// Unpersist drops the cached partitions (used by failure-recovery tests to
// force lineage recomputation).
func (r *RDD) Unpersist() {
	r.mu.Lock()
	r.cached = nil
	r.mu.Unlock()
}

// shuffleOutput builds the wide-dependency machinery shared by
// PartitionBy, ReduceByKey and GroupByKey: a map-side stage partitions
// every parent record (charging serialization plus local-SSD staging on
// the writer's node), and the returned RDD's compute merges the buckets
// for its partition (charging network fetch plus deserialization).
// mapSide, when non-nil, combines each map task's local bucket before it
// is sized and staged (Spark's map-side combine for reduceByKey).
//
// As in Spark, a wide transformation over an RDD that is already laid out
// by the target partitioner degenerates to a narrow, shuffle-free
// dependency: the fold runs partition-local with no staging or network
// traffic. The paper's Blocked In-Memory solver depends on this — its
// groupByKey calls follow partitionBy with the same partitioner, so the
// block pairing happens in place.
func (r *RDD) shuffleOutput(name string, part Partitioner, mapSide func(tc *TaskContext, bucket []Pair) ([]Pair, error), fold func(tc *TaskContext, bucket []Pair) ([]Pair, error)) *RDD {
	if r.partitioner != nil && r.partitioner == part {
		out := &RDD{
			ctx:         r.ctx,
			id:          r.ctx.newID(),
			name:        name + ".narrow",
			parts:       part.NumPartitions(),
			partitioner: part,
			parents:     []*RDD{r},
		}
		out.compute = func(tc *TaskContext, p int) ([]Pair, error) {
			in, err := r.compute(tc, p)
			if err != nil {
				return nil, err
			}
			return fold(tc, in)
		}
		return out
	}
	out := &RDD{
		ctx:         r.ctx,
		id:          r.ctx.newID(),
		name:        name,
		parts:       part.NumPartitions(),
		partitioner: part,
		parents:     []*RDD{r},
		barrier:     true,
	}
	type bucketSet struct {
		pairs [][]Pair // per reduce partition
		bytes []int64
		maps  int
	}
	var bs *bucketSet
	mapParts := r.parts
	out.materialize = func() error {
		out.mu.Lock()
		done := bs != nil
		var parent *RDD
		if len(out.parents) > 0 {
			parent = out.parents[0]
		}
		out.mu.Unlock()
		if done {
			return nil
		}
		if parent == nil {
			return fmt.Errorf("rdd: cannot recompute shuffle %q: lineage truncated by Checkpoint", name)
		}
		// Each map task parks its partitioned output under its own index
		// and the reduce buckets are assembled in map-partition order after
		// the stage: appending in task-completion order would make the
		// reduce-side fold order — and with it the order of its float cost
		// charges — depend on goroutine scheduling. A task retried after an
		// injected failure keeps its first completed attempt's output
		// (Spark's map-output commit); only task p's goroutine touches
		// mapOut[p], so no lock is needed.
		mapOut := make([][]mapBucket, mapParts)
		_, err := out.ctx.runStage(name+".map", mapParts, func(tc *TaskContext, p int) ([]Pair, error) {
			in, err := parent.compute(tc, p)
			if err != nil {
				return nil, err
			}
			// Only the buckets this task has records for, in ascending
			// partition order (the order of the map-side combine's float
			// charges). Never nil: nil marks a map task with no commit.
			local := make([]mapBucket, 0, len(in))
			var written int64
			err = eachRun(in, part.Partition, func(j int, run []Pair) (err error) {
				if mapSide != nil && len(run) > 1 {
					if run, err = mapSide(tc, run); err != nil {
						return err
					}
				}
				lb := mapBucket{part: j, pairs: run}
				for _, rec := range run {
					lb.bytes += sizeOf(rec.Value)
				}
				written += lb.bytes
				local = append(local, lb)
				return nil
			})
			if err != nil {
				return nil, err
			}
			// Staged and transferred shuffle bytes are lz4-compressed by
			// Spark; serialization still touches the raw volume.
			compressed := out.ctx.Cluster.Config().CompressedShuffle(written)
			tc.ChargeSer(written)
			tc.Charge(out.ctx.Cluster.LocalWriteCost(compressed))
			if err := out.ctx.Cluster.StageLocal(tc.Node(), compressed); err != nil {
				return nil, err
			}
			out.ctx.Cluster.AddShuffleBytes(compressed)
			if mapOut[p] == nil {
				mapOut[p] = local
			}
			return nil, nil
		})
		if err != nil {
			return err
		}
		nb := &bucketSet{
			pairs: make([][]Pair, out.parts),
			bytes: make([]int64, out.parts),
			maps:  mapParts,
		}
		for _, mo := range mapOut {
			for _, lb := range mo {
				if len(lb.pairs) > 0 {
					nb.pairs[lb.part] = append(nb.pairs[lb.part], lb.pairs...)
					nb.bytes[lb.part] += out.ctx.Cluster.Config().CompressedShuffle(lb.bytes)
				}
			}
		}
		out.mu.Lock()
		bs = nb
		out.cached = nb.pairs // what CheckpointAndRelease reports as retained
		out.mu.Unlock()
		return nil
	}
	out.compute = func(tc *TaskContext, p int) ([]Pair, error) {
		out.mu.Lock()
		cur := bs
		out.mu.Unlock()
		if cur == nil {
			return nil, fmt.Errorf("rdd: shuffle %q not materialized", name)
		}
		// Fetch: one message per map partition that produced data for us
		// (upper bound: all of them), streamed over the reader's NIC. The
		// stage additionally pays the aggregate-bandwidth floor for the
		// total volume (see runStage).
		tc.ChargeNet(cur.bytes[p], cur.maps)
		tc.ChargeSer(cur.bytes[p])
		return fold(tc, cur.pairs[p])
	}
	return out
}

// mapBucket is what one map task wrote for one reduce partition.
type mapBucket struct {
	part  int
	pairs []Pair
	bytes int64
}

// eachRun calls fn, until it fails, with each run of in's records sharing
// a label (label is called once per record, in order), labels ascending,
// records in input order. Runs are read-only views of in, or of a copy
// regrouped by sorting (label, index) pairs packed into one word (labels
// and record counts stay below 2^32).
func eachRun(in []Pair, label func(graph.BlockKey) int, fn func(label int, run []Pair) error) error {
	order := make([]uint64, len(in))
	for i, rec := range in {
		order[i] = uint64(label(rec.Key))<<32 | uint64(i)
	}
	sorted := in
	if !slices.IsSorted(order) {
		slices.Sort(order)
		sorted = make([]Pair, len(in))
		for i, o := range order {
			sorted[i] = in[uint32(o)]
		}
	}
	for lo := 0; lo < len(order); {
		l, hi := order[lo]>>32, lo+1
		for hi < len(order) && order[hi]>>32 == l {
			hi++
		}
		if err := fn(int(l), sorted[lo:hi:hi]); err != nil {
			return err
		}
		lo = hi
	}
	return nil
}

// PartitionBy redistributes records by the given partitioner (wide).
func (r *RDD) PartitionBy(part Partitioner) *RDD {
	return r.shuffleOutput("partitionBy", part, nil, func(tc *TaskContext, bucket []Pair) ([]Pair, error) {
		return bucket, nil
	})
}

// ReduceByKey merges all values sharing a key with f (wide). f must be
// commutative and associative; like Spark, the fold runs both map-side
// (combining before the shuffle write) and reduce-side.
func (r *RDD) ReduceByKey(part Partitioner, f func(tc *TaskContext, a, b Sized) (Sized, error)) *RDD {
	fold := func(tc *TaskContext, bucket []Pair) ([]Pair, error) {
		return foldGroups(tc, bucket, func(tc *TaskContext, group []Pair) (p Pair, err error) {
			p = group[0]
			for _, rec := range group[1:] {
				if p.Value, err = f(tc, p.Value, rec.Value); err != nil {
					return Pair{}, err
				}
			}
			return p, nil
		})
	}
	return r.shuffleOutput("reduceByKey", part, fold, fold)
}

// GroupByKey is Spark's groupByKey().map(f) as one wide transformation,
// the shape the paper's ListAppend/ListUnpack building blocks take: f gets
// each key's records as one group (keys in first-seen order, records in
// arrival order; f must not keep or modify it) and returns that key's one
// output record. No map-side combine: a group is as large as its inputs,
// so grouping early would not reduce shuffle volume.
func (r *RDD) GroupByKey(part Partitioner, f func(tc *TaskContext, group []Pair) (Pair, error)) *RDD {
	return r.shuffleOutput("groupByKey", part, nil, func(tc *TaskContext, bucket []Pair) ([]Pair, error) {
		return foldGroups(tc, bucket, f)
	})
}

// foldGroups calls f on each key's records in a shuffled bucket, as one
// eachRun run, keys in first-seen order, and returns f's records.
func foldGroups(tc *TaskContext, bucket []Pair, f func(tc *TaskContext, group []Pair) (Pair, error)) ([]Pair, error) {
	at := make(map[graph.BlockKey]int, len(bucket))
	firstSeen := func(k graph.BlockKey) int {
		g, seen := at[k]
		if !seen {
			g = len(at)
			at[k] = g
		}
		return g
	}
	res := make([]Pair, 0, len(bucket))
	err := eachRun(bucket, firstSeen, func(_ int, group []Pair) error {
		p, err := f(tc, group)
		res = append(res, p)
		return err
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Materialize forces every barrier in the lineage (sources, shuffles,
// persisted RDDs) to compute, without running an extra action stage.
// Solvers call it once per iteration so per-iteration virtual time is
// attributed to the iteration that caused it.
func (r *RDD) Materialize() error {
	return r.ensureBarriers()
}

// Checkpoint materializes the RDD and truncates its lineage — the
// equivalent of Spark's RDD.checkpoint. Iterative solvers call it once per
// iteration: without it the lineage (and every retained shuffle and cache
// along it) grows linearly with iteration count, which is exactly the
// "complex RDD lineages" pressure the paper manages with a 180 GB driver
// (§5). Recovery of tasks after a checkpoint restarts from the
// checkpointed data rather than the full history, as in Spark.
func (r *RDD) Checkpoint() error { return r.CheckpointAndRelease(nil) }

// CheckpointAndRelease is Checkpoint for an iterative job that recycles
// record payloads. Cutting the lineage is the moment everything upstream
// stops being reachable through the engine — the previous iteration's
// persisted RDD, this iteration's intermediate caches and shuffle buckets —
// so right after the cut release is called once, on the driver, with the
// partitions those upstream RDDs retained (a record may appear in several)
// and the partitions r itself keeps. No task is running, and nothing can
// recompute from the severed RDDs any more; what the caller does with
// payloads that are in severed but not in kept is its own ownership rule.
func (r *RDD) CheckpointAndRelease(release func(severed, kept [][]Pair)) error {
	if err := r.ensureBarriers(); err != nil {
		return err
	}
	if !r.barrier {
		return fmt.Errorf("rdd: only barrier RDDs (persisted/shuffled/sources) can checkpoint; wrap %q in Persist first", r.name)
	}
	r.mu.Lock()
	parents, kept := r.parents, r.cached
	r.parents = nil
	r.mu.Unlock()
	if release != nil {
		var severed [][]Pair
		seen := map[*RDD]bool{r: true}
		for _, dep := range parents {
			severed = dep.retained(seen, severed)
		}
		release(severed, kept)
	}
	return nil
}

// retained appends the partitions cached by r and by everything upstream
// of it (sources, persisted RDDs, shuffle outputs), visiting each RDD once.
func (r *RDD) retained(seen map[*RDD]bool, out [][]Pair) [][]Pair {
	if seen[r] {
		return out
	}
	seen[r] = true
	r.mu.Lock()
	out = append(out, r.cached...)
	parents := r.parents
	r.mu.Unlock()
	for _, dep := range parents {
		out = dep.retained(seen, out)
	}
	return out
}

// Collect materializes the RDD and returns all records to the driver,
// charging the collect cost (paper Algorithms 1, 2, 4 all hinge on this
// action).
func (r *RDD) Collect() ([]Pair, error) {
	if err := r.ensureBarriers(); err != nil {
		return nil, err
	}
	res, err := r.ctx.runStage(r.name+".collect", r.parts, func(tc *TaskContext, p int) ([]Pair, error) {
		return r.compute(tc, p)
	})
	if err != nil {
		return nil, err
	}
	var all []Pair
	var bytes int64
	for _, part := range res {
		all = append(all, part...)
		for _, rec := range part {
			bytes += collectedSize(rec.Value)
		}
	}
	r.ctx.Cluster.AddCollect(bytes)
	r.ctx.Cluster.Advance(r.ctx.Cluster.CollectCost(bytes, r.parts))
	return all, nil
}

// collectedSize is what Collect charges for one record's value: a bare
// matrix block (2D Floyd-Warshall's column segments) its bytes, a missing
// value nothing, and any other value a flat 64 bytes. The flat size
// undercounts the tagged blocks the blocked solvers and Repeated Squaring
// collect; internal/core/testdata/clock.golden pins it as it is.
func collectedSize(v Sized) int64 {
	switch v.(type) {
	case nil:
		return 0
	case *matrix.Block:
		return v.SizeBytes()
	default:
		return 64
	}
}
