// Package seq implements the sequential APSP reference solvers the paper
// leans on: classic Floyd-Warshall (the ground truth for every distributed
// solver and the T1 baseline of the weak-scaling study), the Venkataraman
// blocked Floyd-Warshall that the Blocked In-Memory / Collect-Broadcast
// solvers distribute, Johnson's algorithm (Bellman-Ford reweighting +
// per-source Dijkstra), and min-plus repeated squaring.
package seq

import (
	"container/heap"
	"fmt"
	"math"

	"apspark/internal/graph"
	"apspark/internal/matrix"
)

// FloydWarshall returns the APSP distance matrix of g via the classic
// O(n^3) dynamic program. The kernel error (a malformed dense matrix) is
// returned, not panicked: reference solves run inside long benchmark and
// verification pipelines that must fail one case, not the process.
func FloydWarshall(g *graph.Graph) (*matrix.Block, error) {
	a := g.Dense()
	if err := matrix.FloydWarshall(a); err != nil {
		return nil, fmt.Errorf("seq: floyd-warshall: %w", err)
	}
	return a, nil
}

// BlockedFloydWarshall computes APSP with the 3-phase blocked algorithm of
// Venkataraman et al. that the paper's Blocked solvers distribute
// (paper §4.4, Figure 1). It is exact, not an approximation: for every
// block-iteration i, Phase 1 solves the diagonal block, Phase 2 updates
// block row/column i, Phase 3 updates the rest.
func BlockedFloydWarshall(g *graph.Graph, b int) (*matrix.Block, error) {
	a := g.Dense()
	if err := BlockedFloydWarshallDense(a, b); err != nil {
		return nil, err
	}
	return a, nil
}

// BlockedFloydWarshallDense runs the blocked algorithm in place on a dense
// symmetric adjacency matrix. It is now a thin wrapper over the matrix
// package's fused blocked kernel: phases 1 and 2 are the reference
// ascending-pivot relaxation, phase 3 — the dominant (q-1)^2/q^2 of the
// work — runs through the same fused tiled min-plus product the
// distributed solvers use.
func BlockedFloydWarshallDense(a *matrix.Block, b int) error {
	if a.R != a.C {
		return fmt.Errorf("seq: blocked FW needs a square matrix, got %dx%d", a.R, a.C)
	}
	if _, err := graph.NewDecomposition(a.R, b); err != nil {
		return err
	}
	return matrix.FloydWarshallBlockedSize(a, b, 1)
}

// RepeatedSquaring computes APSP as A^n over the min-plus semiring by
// squaring ceil(log2(n)) times (paper §4.2, sequential form).
func RepeatedSquaring(g *graph.Graph) (*matrix.Block, error) {
	a := g.Dense()
	n := a.R
	for i := 0; i < n; i++ {
		a.Set(i, i, 0)
	}
	steps := int(math.Ceil(math.Log2(float64(n))))
	if steps < 1 {
		steps = 1
	}
	// Each squaring folds a (x) a into a pooled copy of a in one fused
	// pass (sq = min(a, a (x) a)); the previous iterate returns to the
	// arena, so the loop allocates one matrix amortized, not two per step.
	for s := 0; s < steps; s++ {
		sq := matrix.Get(n, n)
		if err := sq.CopyFrom(a); err != nil {
			return nil, err
		}
		if err := matrix.MinPlusInto(a, a, sq); err != nil {
			return nil, err
		}
		matrix.Put(a)
		a = sq
	}
	return a, nil
}

// Dijkstra returns single-source shortest path lengths from src using a
// binary heap. Weights must be non-negative (guaranteed by graph
// construction).
func Dijkstra(g *graph.Graph, src int) []float64 {
	dist := make([]float64, g.N)
	for i := range dist {
		dist[i] = matrix.Inf
	}
	dist[src] = 0
	pq := &distHeap{{v: src, d: 0}}
	for pq.Len() > 0 {
		it := heap.Pop(pq).(distItem)
		if it.d > dist[it.v] {
			continue // stale entry
		}
		g.VisitAdj(it.v, func(w int, wt float64) {
			if nd := it.d + wt; nd < dist[w] {
				dist[w] = nd
				heap.Push(pq, distItem{v: w, d: nd})
			}
		})
	}
	return dist
}

// Johnson computes APSP by Johnson's algorithm: Bellman-Ford from a virtual
// super-source computes a reweighting potential, then Dijkstra runs from
// every vertex on the reweighted graph. With the non-negative weights used
// throughout this repository the potential is identically zero, but the
// reweighting machinery is kept (and tested) for generality, matching the
// paper's description of Johnson as the sparse-friendly alternative.
func Johnson(g *graph.Graph) (*matrix.Block, error) {
	h, err := bellmanFordPotential(g)
	if err != nil {
		return nil, err
	}
	// Reweight: w'(u,v) = w(u,v) + h(u) - h(v) >= 0.
	edges := g.Edges()
	rw := make([]graph.Edge, 0, len(edges))
	for _, e := range edges {
		// Undirected edges must stay symmetric; with symmetric potentials
		// from an all-zero super-source, h(u) == h(v) for connected pairs,
		// so the reweighted weight equals the original. We still compute it
		// through the formula to exercise the code path.
		w := e.W + h[e.U] - h[e.V]
		if w < 0 {
			w = 0
		}
		rw = append(rw, graph.Edge{U: e.U, V: e.V, W: w})
	}
	rg, err := graph.FromEdges(g.N, rw)
	if err != nil {
		return nil, err
	}
	out := matrix.New(g.N, g.N)
	for s := 0; s < g.N; s++ {
		dist := Dijkstra(rg, s)
		for v, dv := range dist {
			if dv == matrix.Inf {
				continue
			}
			out.Set(s, v, dv-h[s]+h[v])
		}
	}
	return out, nil
}

// bellmanFordPotential runs Bellman-Ford from a virtual source connected to
// every vertex with weight 0 and returns the resulting potentials. For
// non-negative undirected graphs this is the zero vector; a negative cycle
// (impossible here, but checked) yields an error.
func bellmanFordPotential(g *graph.Graph) ([]float64, error) {
	h := make([]float64, g.N) // all zero = distances from super-source
	edges := g.Edges()
	for iter := 0; iter < g.N; iter++ {
		changed := false
		for _, e := range edges {
			if h[e.U]+e.W < h[e.V] {
				h[e.V] = h[e.U] + e.W
				changed = true
			}
			if h[e.V]+e.W < h[e.U] {
				h[e.U] = h[e.V] + e.W
				changed = true
			}
		}
		if !changed {
			return h, nil
		}
	}
	return nil, fmt.Errorf("seq: negative cycle detected")
}

type distItem struct {
	v int
	d float64
}

type distHeap []distItem

func (h distHeap) Len() int            { return len(h) }
func (h distHeap) Less(i, j int) bool  { return h[i].d < h[j].d }
func (h distHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x interface{}) { *h = append(*h, x.(distItem)) }
func (h *distHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}
