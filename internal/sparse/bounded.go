package sparse

import (
	"fmt"
	"math"

	"apspark/internal/matrix"
)

// SolveDist returns d(src, dst), matrix.Inf when dst is unreachable, from
// one single-source solve that stops as soon as dst settles: a near
// target costs the settles up to it, not a whole row. The distance is the
// one SolveRowInto would write at dst, bit for bit — the solve settles
// the same vertices in the same order up to there. Scratch comes from the
// engine's pool, so repeated calls are allocation-free after warmup.
func (e *Engine) SolveDist(src, dst int) (float64, error) {
	if src < 0 || src >= e.n || dst < 0 || dst >= e.n {
		return 0, fmt.Errorf("sparse: pair (%d,%d) outside [0,%d)", src, dst, e.n)
	}
	d, err := e.solveOne(int32(src), int32(dst), nil)
	if err == nil {
		e.boundedSolves.Add(1)
	}
	return d, err
}

// solveOne runs one solve from src on scratch from the engine's pool,
// stopping when target settles (target < 0: never), writes it into row
// (nil: nowhere) and counts the vertices it settled. It returns
// d(src, target), matrix.Inf when target did not settle or is < 0. src,
// target and row are the caller's, checked.
func (e *Engine) solveOne(src, target int32, row []float64) (float64, error) {
	if e.n > maxN {
		return 0, fmt.Errorf("sparse: n=%d exceeds the engine limit of %d vertices", e.n, maxN)
	}
	sc := e.scratch.get().(*state)
	settled := sc.dijkstra(e, src, target)
	fillRow(sc, row, 0)
	d := matrix.Inf
	if target >= 0 {
		if vw := sc.vs[target]; vw.stamp == sc.epoch && vw.pos == settledPos {
			d = vw.dist
		}
	}
	e.scratch.put(sc)
	e.settled.Add(int64(settled))
	return d, nil
}

// dijkstra is the package's one single-source loop, under SolveRowInto,
// SolveDist and the panel rows the batched kernel does not solve. It
// stops when target settles; a target < 0 never does, and the solve
// settles everything reachable. The distances stay in sc's epoch stamps
// for fillRow to write out once, rather than into a row at every settle.
// It returns the number of vertices settled. Allocation-free once sc has
// grown.
func (sc *state) dijkstra(e *Engine, src, target int32) int {
	sc.next()
	vs, epoch := sc.vs, sc.epoch
	rowPtr, colIdx, weights := e.rowPtr, e.colIdx, e.weights
	vs[src].stamp, vs[src].dist = epoch, 0
	sc.push(0, src)
	settled := 0
	for sc.count > 0 {
		v := sc.pop().v
		settled++
		if v == target {
			break
		}
		d := vs[v].dist
		for p, hi := rowPtr[v], rowPtr[v+1]; p < hi; p++ {
			w := colIdx[p]
			nd := d + weights[p]
			vw := &vs[w]
			if vw.stamp != epoch {
				vw.stamp = epoch
				vw.dist = nd
				sc.push(math.Float64bits(nd), w)
			} else if nd < vw.dist && vw.pos != settledPos {
				// A settled vertex can never improve under non-negative
				// weights; the pos guard only protects against them.
				vw.dist = nd
				sc.decrease(vw.pos, math.Float64bits(nd), w)
			}
		}
	}
	return settled
}

// fillRow writes the solve sc last ran into row, the cells of vertices
// from from on, from the epoch stamps: settled vertices get their
// distance, everything else the cell's no-path value. On a graph with
// intDistances every settled distance is an integer below
// matrix.NoPath32, so a uint32 cell holds it exactly. A nil row writes
// nothing.
func fillRow[C matrix.Cell](sc *state, row []C, from int) {
	vs, epoch, none := sc.vs[from:], sc.epoch, matrix.NoPath[C]()
	for v := range row {
		if vw := vs[v]; vw.stamp == epoch && vw.pos == settledPos {
			row[v] = C(vw.dist)
		} else {
			row[v] = none
		}
	}
}
