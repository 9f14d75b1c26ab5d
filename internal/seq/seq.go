// Package seq holds the sequential APSP solvers: classic Floyd-Warshall
// (the T1 baseline of the paper's weak-scaling study, and what `-verify`
// checks a solve against), the Venkataraman blocked Floyd-Warshall that
// the Blocked In-Memory and Collect-Broadcast solvers distribute, and
// Reference, the distance matrix every producer of distances is tested
// against. Reference shares no code with any engine: the Floyd-Warshall
// pair runs the matrix package's min-plus kernels, and so do the cluster
// solvers.
package seq

import (
	"fmt"

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

// Reference returns g's distance matrix by edge relaxation alone: from
// each source, every edge of g.Edges() is relaxed in both directions,
// pass after pass, until a pass lowers no label (Bellman-Ford). It uses
// no matrix kernel, heap or adjacency walk, so an engine that any of
// those break cannot break it the same way. Each label is the smallest
// left-to-right sum, rounded at every hop, over the walks from its
// source: the value Dijkstra settles, bit for bit, on any non-negative
// weights. Cost is O(n·m) per pass; it is meant for test-sized graphs.
func Reference(g *graph.Graph) *matrix.Block {
	n, edges := g.N, g.Edges()
	d := &matrix.Block{R: n, C: n, Data: make([]float64, n*n)}
	for src := 0; src < n; src++ {
		row := d.Data[src*n : (src+1)*n]
		for v := range row {
			row[v] = matrix.Inf
		}
		row[src] = 0
		for fell := true; fell; {
			fell = false
			for _, e := range edges {
				if l := row[e.U] + e.W; l < row[e.V] {
					row[e.V], fell = l, true
				}
				if l := row[e.V] + e.W; l < row[e.U] {
					row[e.U], fell = l, true
				}
			}
		}
	}
	return d
}
