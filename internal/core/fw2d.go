package core

import (
	"fmt"

	"apspark/internal/graph"
	"apspark/internal/matrix"
	"apspark/internal/rdd"
)

// FW2D is the paper's Algorithm 2 (§4.3): the textbook 2D-blocked parallel
// Floyd-Warshall. Each of the n iterations extracts global column k from
// the blocks of column-block K = k/b, aggregates it on the driver with
// collect, broadcasts it, and applies the rank-1 FloydWarshallUpdate to
// every block. The method is pure — no side effects, no wide shuffles —
// but its n-iteration critical path of synchronization makes it the
// paper's slowest strategy at scale (Table 2 projects ~50-65 days).
type FW2D struct{}

// Name implements Solver.
func (FW2D) Name() string { return "2D Floyd-Warshall" }

// Pure implements Solver.
func (FW2D) Pure() bool { return true }

// Units implements Solver: one unit per pivot vertex k.
func (FW2D) Units(dec graph.Decomposition) int { return dec.N }

// step implements Solver: one pivot vertex k.
func (FW2D) step(rc *rdd.Context, in Input, _ rdd.Partitioner) step {
	dec := in.Dec
	return func(k int, a *rdd.RDD) (*rdd.RDD, error) {
		bigK := dec.BlockOf(k)
		kloc := k - dec.RowOffset(bigK)

		// Extract and collect global column k (Algorithm 2 lines 5-6).
		colPairs, err := a.Filter("col", InColumn(bigK)).
			Map("extractCol", ExtractColumn(bigK, kloc)).
			Collect()
		if err != nil {
			return nil, err
		}
		col := make(columnSegments, dec.Q)
		for _, p := range colPairs {
			col[p.Key.I] = p.Value.(*matrix.Block)
		}
		if len(col) != dec.Q {
			return nil, fmt.Errorf("core: pivot %d collected %d column segments, want %d", k, len(col), dec.Q)
		}

		// Broadcast the column (line 8) and run the update (line 10).
		bc := rc.Broadcast(col)
		a = a.Map("fwUpdate", func(tc *rdd.TaskContext, p rdd.Pair) (rdd.Pair, error) {
			key := p.Key
			base := p.Value.(*TaggedBlock)
			segs := bc.Value().(columnSegments)
			colI, colJ := segs[key.I], segs[key.J]
			tc.Charge(tc.Model().FWUpdate(base.B.R, base.B.C))
			if base.B.Phantom() {
				return rdd.Pair{Key: key, Value: base}, nil
			}
			// The working copy comes from the block arena; the input
			// stays untouched (it is shared through the lineage).
			nb := matrix.Get(base.B.R, base.B.C)
			if err := nb.CopyFrom(base.B); err != nil {
				return rdd.Pair{}, err
			}
			if err := matrix.FloydWarshallUpdate(nb, colI.Data, colJ.Data); err != nil {
				return rdd.Pair{}, err
			}
			return rdd.Pair{Key: key, Value: &TaggedBlock{Tag: TagBase, B: nb}}, nil
		}).Persist()
		return a, a.Checkpoint()
	}
}

// columnSegments is global column k as fw2d broadcasts it: the segment of
// each block-row, by block-row.
type columnSegments map[int]*matrix.Block

// SizeBytes implements rdd.Sized: the bytes of every segment.
func (c columnSegments) SizeBytes() int64 {
	var t int64
	for _, seg := range c {
		t += seg.SizeBytes()
	}
	return t
}
