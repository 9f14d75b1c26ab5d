package sparse

import (
	"fmt"
	"math"

	"apspark/internal/matrix"
)

// Seed is one starting point of a bounded solve: vertex V opens with
// tentative distance Dist instead of 0. Multi-seed solves compute, for
// every vertex x, min over seeds s of s.Dist + dist(s.V, x) — the
// "multi-source with offsets" shape the hierarchy oracle uses to push a
// partition's boundary distances through the overlay and back down into
// another partition. Seeds at +Inf are skipped (an unreachable boundary
// contributes nothing), and duplicate vertices keep their minimum.
type Seed struct {
	V    int32
	Dist float64
}

// Bound restricts a bounded solve. The zero value imposes nothing: the
// solve settles everything reachable, exactly like SolveRowInto.
type Bound struct {
	// Expand, when non-nil, confines relaxation: edges relax only out of
	// vertices v with Expand(v) true. Non-expandable vertices are still
	// settled — and reported — when an expandable neighbor reaches them;
	// they are the frontier the search stops at. This is how a
	// partition-local solve works: Expand admits the partition, so
	// out-of-partition neighbors are settled once but never crossed. The
	// rule applies to seeds too; a seed the caller wants expanded must be
	// admitted by Expand.
	Expand func(v int32) bool
	// Targets, when non-empty, stops the solve as soon as every listed
	// vertex has settled. Unreachable targets cannot settle; the solve
	// then ends by heap exhaustion as usual. Duplicates are allowed.
	Targets []int32
	// MaxDist, when > 0, stops the solve once the next settled distance
	// would exceed it: every vertex at distance <= MaxDist is settled and
	// reported, nothing farther is.
	MaxDist float64
	// OnSettle, when non-nil, is called once per settled vertex in
	// nondecreasing distance order, on the calling goroutine. Together
	// with a nil row it lets a caller harvest a sparse result set without
	// paying the O(n) row fill — the difference between O(part) and O(n)
	// per boundary solve in the hierarchy build.
	OnSettle func(v int32, d float64)
}

// SolveBoundedInto runs one bounded, possibly multi-seeded Dijkstra. If
// row is non-nil it must have length n and receives the settled
// distances (matrix.Inf elsewhere); a nil row skips the O(n) fill and
// results flow only through bd.OnSettle. It returns the number of
// vertices settled. Scratch comes from the engine's pool, so repeated
// calls are allocation-free after warmup.
func (e *Engine) SolveBoundedInto(seeds []Seed, row []float64, bd Bound) (int, error) {
	if row != nil && len(row) != e.n {
		return 0, fmt.Errorf("sparse: row has length %d, want %d", len(row), e.n)
	}
	for _, s := range seeds {
		if s.V < 0 || int(s.V) >= e.n {
			return 0, fmt.Errorf("sparse: seed vertex %d outside [0,%d)", s.V, e.n)
		}
		if s.Dist < 0 || math.IsNaN(s.Dist) {
			return 0, fmt.Errorf("sparse: seed %d has distance %v, want >= 0", s.V, s.Dist)
		}
	}
	for _, t := range bd.Targets {
		if t < 0 || int(t) >= e.n {
			return 0, fmt.Errorf("sparse: target vertex %d outside [0,%d)", t, e.n)
		}
	}
	settled, err := e.dijkstra(seeds, row, bd)
	if err == nil {
		e.boundedSolves.Add(1)
	}
	return settled, err
}

// SolveRowBoundedInto is SolveBoundedInto from the single source src at
// distance 0 — SolveRowInto with bounds (and, with a nil row, without
// the O(n) fill).
func (e *Engine) SolveRowBoundedInto(src int, row []float64, bd Bound) (int, error) {
	if src < 0 || src >= e.n {
		return 0, fmt.Errorf("sparse: source %d outside [0,%d)", src, e.n)
	}
	seed := [1]Seed{{V: int32(src)}}
	return e.SolveBoundedInto(seed[:], row, bd)
}

// dijkstra runs one solve on scratch from the engine's pool and counts the
// vertices it settled; seeds, row and bd are the caller's, checked.
func (e *Engine) dijkstra(seeds []Seed, row []float64, bd Bound) (int, error) {
	if e.n > maxN {
		return 0, fmt.Errorf("sparse: n=%d exceeds the engine limit of %d vertices", e.n, maxN)
	}
	sc := e.scratch.get().(*state)
	settled := sc.dijkstra(e, seeds, bd)
	fillRow(sc, row, 0)
	e.scratch.put(sc)
	e.settled.Add(int64(settled))
	return settled, nil
}

// dijkstra is the package's one single-source loop, under SolveRowInto
// (a zero Bound), the panel rows the batched kernel does not solve, and
// every bounded and multi-seed solve. The bounds cost one predictable
// branch each per settled vertex. The distances stay in sc's epoch stamps
// for fillRow to write out once, rather than into a row at every settle.
// It returns the number of vertices settled. Allocation-free once sc has
// grown.
func (sc *state) dijkstra(e *Engine, seeds []Seed, bd Bound) int {
	sc.next()
	vs, epoch := sc.vs, sc.epoch
	rowPtr, colIdx, weights := e.rowPtr, e.colIdx, e.weights
	maxDist := math.Inf(1)
	if bd.MaxDist > 0 {
		maxDist = bd.MaxDist
	}
	remaining := 0
	if len(bd.Targets) > 0 {
		sc.nextTargets(e.n)
		for _, t := range bd.Targets {
			if sc.tmark[t] != sc.tepoch {
				sc.tmark[t] = sc.tepoch
				remaining++
			}
		}
	}
	for _, s := range seeds {
		if math.IsInf(s.Dist, 1) {
			continue
		}
		vw := &vs[s.V]
		if vw.stamp != epoch {
			vw.stamp = epoch
			vw.dist = s.Dist
			sc.push(math.Float64bits(s.Dist), s.V)
		} else if s.Dist < vw.dist {
			vw.dist = s.Dist
			sc.decrease(vw.pos, math.Float64bits(s.Dist), s.V)
		}
	}
	settled := 0
	for sc.count > 0 {
		v := sc.pop().v
		d := vs[v].dist
		if d > maxDist {
			vs[v].pos = 0 // popped, but past the cap: not settled
			break
		}
		settled++
		if bd.OnSettle != nil {
			bd.OnSettle(v, d)
		}
		if remaining > 0 && sc.tmark[v] == sc.tepoch {
			remaining--
			if remaining == 0 {
				break
			}
		}
		if bd.Expand != nil && !bd.Expand(v) {
			continue
		}
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

// nextTargets starts a new target epoch, lazily allocating the mark
// array the first time a solve passes Targets and handling uint32
// wrap-around like state.next does.
func (s *state) nextTargets(n int) {
	if s.tmark == nil {
		s.tmark = make([]uint32, n)
	}
	s.tepoch++
	if s.tepoch == 0 {
		clear(s.tmark)
		s.tepoch = 1
	}
}
