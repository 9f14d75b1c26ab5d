package core

import (
	"apspark/internal/graph"
	"apspark/internal/rdd"
)

// BlockedInMemory is the paper's Algorithm 3 (§4.4): the 3-phase blocked
// Floyd-Warshall of Venkataraman et al. where the diagonal block and the
// updated row/column panels are paired with the blocks they update through
// CopyDiag/CopyCol, combineByKey and custom partitioning — i.e. general
// broadcast simulated by data shuffling. The implementation stays entirely
// inside fault-tolerant engine functionality, so it is "pure", but it is
// data intensive: each of the q iterations shuffles O(q^2) block copies,
// and the staged shuffle files accumulate on local SSDs. The pairing here
// is Spark's groupByKey, charged exactly as combineByKey with a ListAppend
// combiner: the grouping itself charges nothing, and it follows a
// partitionBy with the same partitioner, so it is narrow.
type BlockedInMemory struct{}

// Name implements Solver.
func (BlockedInMemory) Name() string { return "Blocked-IM" }

// Pure implements Solver: the method uses only lineage-tracked operations.
func (BlockedInMemory) Pure() bool { return true }

// Units implements Solver: one unit per block iteration.
func (BlockedInMemory) Units(dec graph.Decomposition) int { return dec.Q }

// step implements Solver: one block iteration i.
func (BlockedInMemory) step(rc *rdd.Context, in Input, part rdd.Partitioner) step {
	q := in.Dec.Q
	recycle := recycler(in)
	return func(i int, a *rdd.RDD) (*rdd.RDD, error) {
		// Phase 1: process the diagonal block and fan out its copies
		// (Algorithm 3 lines 2-4).
		diag := a.Filter("diag", OnDiagonal(i)).
			Map("floydWarshall", FloydWarshallBlock).
			Persist()
		diagCopies := diag.
			FlatMap("copyDiag", CopyDiag(q)).
			PartitionBy(part)

		// Phase 2: pair panels with the diagonal copies and update them
		// (lines 6-10).
		panels := a.Filter("panels", InPanel(i))
		phase2 := rc.Union(panels, diagCopies).
			GroupByKey(part, UnpackPhase2(i)).
			Persist()
		panelCopies := phase2.
			FlatMap("copyCol", CopyCol(q, i)).
			PartitionBy(part)

		// Phase 3: update the remaining blocks (lines 12-15).
		off := a.Filter("off", NotInColumn(i))
		phase3 := rc.Union(off, panelCopies).
			GroupByKey(part, UnpackPhase3())

		// Reassemble A for the next iteration; the repartition both
		// restores the intended layout and caps the union's partition
		// blowup (paper §5.2).
		a = rc.Union(diag, phase2, phase3).
			PartitionBy(part).
			Persist()
		// Checkpoint per iteration, as a long-running Spark job would:
		// it bounds lineage depth (and releases retained shuffles).
		return a, a.CheckpointAndRelease(recycle)
	}
}
