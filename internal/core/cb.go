package core

import (
	"fmt"

	"apspark/internal/graph"
	"apspark/internal/matrix"
	"apspark/internal/rdd"
)

// BlockedCollectBroadcast is the paper's Algorithm 4 (§4.5) and its best
// performing solver: the same 3-phase blocked Floyd-Warshall as Blocked
// In-Memory, but the diagonal block and updated panels travel through the
// driver and shared persistent storage instead of an all-to-all shuffle.
// Executors read exactly the staged blocks they need (with per-node page
// caching). Because the staging is a side effect outside RDD lineage, the
// method is "impure": a task failure cannot be replayed safely, which the
// engine enforces.
type BlockedCollectBroadcast struct{}

// Name implements Solver.
func (BlockedCollectBroadcast) Name() string { return "Blocked-CB" }

// Pure implements Solver: staging through shared storage breaks
// fault-tolerance (paper §3, §6).
func (BlockedCollectBroadcast) Pure() bool { return false }

// Units implements Solver: one unit per block iteration.
func (BlockedCollectBroadcast) Units(dec graph.Decomposition) int { return dec.Q }

func cbDiagKey(i int) string     { return fmt.Sprintf("cb/diag/%d", i) }
func cbPanelKey(i, r int) string { return fmt.Sprintf("cb/panel/%d/%d", i, r) }

// stagedPanel is what cb stages for the updated panel of block-row R in
// iteration i: both orientations under the panel's one key, at the one
// block's byte size the paper's staging writes (its executors transpose
// what they read; here the task that updated the panel already has).
type stagedPanel struct {
	Col *matrix.Block // A[R, i]
	Row *matrix.Block // A[i, R]
}

// step implements Solver: one block iteration i.
func (BlockedCollectBroadcast) step(rc *rdd.Context, in Input, part rdd.Partitioner) step {
	q := in.Dec.Q
	recycle := recycler(in)
	return func(i int, a *rdd.RDD) (*rdd.RDD, error) {
		rc.Store.NewEpoch()
		if i > 0 {
			// Nothing reads iteration i-1's staged blocks again: drop them
			// before this iteration's checkpoint returns their second
			// orientations to the arena.
			rc.Store.Delete(cbDiagKey(i - 1))
			for r := 0; r < q; r++ {
				if r != i-1 {
					rc.Store.Delete(cbPanelKey(i-1, r))
				}
			}
		}

		// Phase 1: solve the diagonal block, collect it on the driver and
		// stage it in shared storage (Algorithm 4 lines 2-3).
		diag := a.Filter("diag", OnDiagonal(i)).
			Map("floydWarshall", FloydWarshallBlock).
			Persist()
		diagPairs, err := diag.Collect()
		if err != nil {
			return nil, err
		}
		if len(diagPairs) != 1 {
			return nil, fmt.Errorf("core: iteration %d collected %d diagonal blocks", i, len(diagPairs))
		}
		diagBlock := diagPairs[0].Value.(*TaggedBlock).B
		rc.Store.Put(cbDiagKey(i), diagBlock, diagBlock.SizeBytes())

		// Phase 2: update the panel blocks against the staged diagonal
		// (line 5), then collect and stage the updated panels (lines 6-7).
		// Each task also makes its panel's second orientation, so neither
		// the driver nor any Phase-3 task transposes.
		rowcol := a.Filter("panels", InPanel(i)).Map("minPlusPanel", func(tc *rdd.TaskContext, p rdd.Pair) (rdd.Pair, error) {
			k := p.Key
			base := p.Value.(*TaggedBlock)
			dv, err := tc.SharedGet(cbDiagKey(i))
			if err != nil {
				return rdd.Pair{}, err
			}
			upd, err := UpdatePanel(tc, k, base.B, dv.(*matrix.Block), i)
			if err != nil {
				return rdd.Pair{}, err
			}
			twin, err := withTranspose(upd)
			if err != nil {
				return rdd.Pair{}, err
			}
			return rdd.Pair{Key: k, Value: &TaggedBlock{Tag: TagBase, B: upd, T: twin}}, nil
		}).Persist()
		rowcolPairs, err := rowcol.Collect()
		if err != nil {
			return nil, err
		}
		for _, p := range rowcolPairs {
			k := p.Key
			tb := p.Value.(*TaggedBlock)
			row, staged := k.I, &stagedPanel{Col: tb.B, Row: tb.T}
			if k.I == i { // stored (i, J) is the Row orientation of panel J
				row, staged = k.J, &stagedPanel{Col: tb.T, Row: tb.B}
			}
			rc.Store.Put(cbPanelKey(i, row), staged, tb.B.SizeBytes())
		}

		// Phase 3: update the remaining blocks against the staged panels
		// (line 9): A_KL = min(A_KL, A[K, i] (x) A[i, L]).
		offcol := a.Filter("off", NotInColumn(i)).
			Map("minPlusOff", func(tc *rdd.TaskContext, p rdd.Pair) (rdd.Pair, error) {
				k := p.Key
				base := p.Value.(*TaggedBlock)
				pkv, err := tc.SharedGet(cbPanelKey(i, k.I))
				if err != nil {
					return rdd.Pair{}, err
				}
				plv := pkv
				if k.J != k.I {
					plv, err = tc.SharedGet(cbPanelKey(i, k.J))
					if err != nil {
						return rdd.Pair{}, err
					}
				}
				upd, err := UpdateOff(tc, k, base.B, pkv.(*stagedPanel).Col, plv.(*stagedPanel).Row)
				if err != nil {
					return rdd.Pair{}, err
				}
				return rdd.Pair{Key: k, Value: &TaggedBlock{Tag: TagBase, B: upd}}, nil
			})

		// Reassemble A (lines 11-12).
		a = rc.Union(diag, rowcol, offcol).
			PartitionBy(part).
			Persist()
		return a, a.CheckpointAndRelease(recycle)
	}
}
