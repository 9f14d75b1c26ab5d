// Package graph provides the input side of the APSP pipeline: weighted
// undirected graphs in CSR form, the Erdős–Rényi generator the paper uses
// for all experiments (edge probability p_e = (1+eps)·ln(n)/n, eps = 0.1),
// dense adjacency matrices, and the 2D block decomposition that feeds the
// distributed solvers.
package graph

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"apspark/internal/matrix"
)

// Edge is one weighted undirected edge (U < V by construction in this
// package's generators).
type Edge struct {
	U, V int
	W    float64
}

// Graph is a weighted undirected graph in CSR (compressed sparse row) form.
// Both directions of every edge are stored, so a vertex's adjacency (CSR,
// VisitAdj) lists all its neighbours.
type Graph struct {
	N       int
	rowPtr  []int32
	colIdx  []int32
	weights []float64
}

// FromEdges builds a Graph on n vertices from an undirected edge list.
// Duplicate edges keep the minimum weight; self-loops are dropped (a vertex
// reaches itself at distance 0 by definition). A vertex id is an int32,
// so n is at most math.MaxInt32; weights are non-negative, and not NaN.
func FromEdges(n int, edges []Edge) (*Graph, error) {
	if n < 0 || n > math.MaxInt32 {
		return nil, fmt.Errorf("graph: %d vertices, want 0 to %d", n, math.MaxInt32)
	}
	// Each edge once, as its smaller endpoint <<32 | its larger: sorted by
	// that key and then by weight, the first of every run of equal keys is
	// the edge to keep.
	type half struct {
		key uint64
		w   float64
	}
	es := make([]half, 0, len(edges))
	for _, e := range edges {
		if e.U < 0 || e.U >= n || e.V < 0 || e.V >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", e.U, e.V, n)
		}
		if e.W < 0 {
			return nil, fmt.Errorf("graph: negative weight %v on edge (%d,%d)", e.W, e.U, e.V)
		}
		if math.IsNaN(e.W) {
			return nil, fmt.Errorf("graph: weight %v on edge (%d,%d), want >= 0", e.W, e.U, e.V)
		}
		if e.U == e.V {
			continue
		}
		es = append(es, half{uint64(min(e.U, e.V))<<32 | uint64(max(e.U, e.V)), e.W})
	}
	slices.SortFunc(es, func(a, b half) int {
		if c := cmp.Compare(a.key, b.key); c != 0 {
			return c
		}
		return cmp.Compare(a.w, b.w)
	})
	es = slices.CompactFunc(es, func(a, b half) bool { return a.key == b.key })

	g := &Graph{N: n, rowPtr: make([]int32, n+1)}
	for _, e := range es {
		g.rowPtr[e.key>>32+1]++
		g.rowPtr[uint32(e.key)+1]++
	}
	for i := 0; i < n; i++ {
		g.rowPtr[i+1] += g.rowPtr[i]
	}
	g.colIdx = make([]int32, 2*len(es))
	g.weights = make([]float64, 2*len(es))
	// In key order a vertex meets its smaller neighbours (edges it is the
	// larger end of) before its larger ones, each group ascending: filling
	// front to back leaves every adjacency list sorted.
	fill := slices.Clone(g.rowPtr[:n])
	for _, e := range es {
		u, v := int32(e.key>>32), int32(uint32(e.key))
		g.colIdx[fill[u]], g.weights[fill[u]] = v, e.w
		g.colIdx[fill[v]], g.weights[fill[v]] = u, e.w
		fill[u]++
		fill[v]++
	}
	return g, nil
}

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int { return len(g.colIdx) / 2 }

// VisitAdj calls fn for every neighbour of u without allocating.
func (g *Graph) VisitAdj(u int, fn func(v int, w float64)) {
	for p := g.rowPtr[u]; p < g.rowPtr[u+1]; p++ {
		fn(int(g.colIdx[p]), g.weights[p])
	}
}

// CSR exposes the graph's compressed-sparse-row arrays directly:
// vertex u's neighbours are colIdx[rowPtr[u]:rowPtr[u+1]] with matching
// weights, each adjacency list sorted by neighbour id. The slices are the
// graph's own storage — callers must treat them as read-only. Hot loops
// (the serving engine's path walk) use this to iterate adjacency without
// a closure call per neighbour.
func (g *Graph) CSR() (rowPtr, colIdx []int32, weights []float64) {
	return g.rowPtr, g.colIdx, g.weights
}

// Edges returns the undirected edge list (U < V), sorted.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.NumEdges())
	for u := 0; u < g.N; u++ {
		g.VisitAdj(u, func(v int, w float64) {
			if u < v {
				out = append(out, Edge{U: u, V: v, W: w})
			}
		})
	}
	return out
}

// Connected reports whether the graph is a single connected component.
func (g *Graph) Connected() bool {
	if g.N == 0 {
		return true
	}
	seen := make([]bool, g.N)
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for p := g.rowPtr[u]; p < g.rowPtr[u+1]; p++ {
			v := int(g.colIdx[p])
			if !seen[v] {
				seen[v] = true
				count++
				stack = append(stack, v)
			}
		}
	}
	return count == g.N
}

// Dense returns the full n x n adjacency matrix with 0 on the diagonal and
// +Inf for absent edges — the representation the paper's solvers consume.
func (g *Graph) Dense() *matrix.Block {
	a := matrix.New(g.N, g.N)
	for i := 0; i < g.N; i++ {
		a.Set(i, i, 0)
	}
	for u := 0; u < g.N; u++ {
		g.VisitAdj(u, func(v int, w float64) {
			if w < a.At(u, v) {
				a.Set(u, v, w)
				a.Set(v, u, w)
			}
		})
	}
	return a
}

// ErdosRenyiPaperProb returns the edge probability the paper uses:
// p_e = (1+eps)·ln(n)/n with eps = 0.1.
func ErdosRenyiPaperProb(n int) float64 {
	if n < 2 {
		return 0
	}
	return 1.1 * math.Log(float64(n)) / float64(n)
}

// WeightFn draws one edge weight. Implementations must consume a
// deterministic number of rng values per call so graphs stay reproducible
// from their seed.
type WeightFn func(rng *rand.Rand) float64

// UniformWeights draws weights uniform in [1, maxW) — the paper's §5.1
// distribution. maxW below 1 degenerates to constant 1.
func UniformWeights(maxW float64) WeightFn {
	if maxW < 1 {
		maxW = 1
	}
	return func(rng *rand.Rand) float64 { return 1 + rng.Float64()*(maxW-1) }
}

// UnitWeights makes every edge weight 1, turning shortest paths into hop
// counts (still consuming one rng draw, keeping edge placement identical
// to the other distributions at the same seed).
func UnitWeights() WeightFn {
	return func(rng *rand.Rand) float64 { rng.Float64(); return 1 }
}

// IntegerWeights draws integer weights uniform in {1, ..., maxW}.
func IntegerWeights(maxW int) WeightFn {
	if maxW < 1 {
		maxW = 1
	}
	return func(rng *rand.Rand) float64 { return float64(1 + int(rng.Float64()*float64(maxW))) }
}

// WeightsByName maps a CLI-friendly name to a weight distribution:
// "uniform" (paper default, [1, maxW)), "unit" (all 1), "int" (integers
// in [1, maxW]).
func WeightsByName(name string, maxW float64) (WeightFn, error) {
	switch name {
	case "", "uniform":
		return UniformWeights(maxW), nil
	case "unit":
		return UnitWeights(), nil
	case "int":
		return IntegerWeights(int(maxW)), nil
	default:
		return nil, fmt.Errorf("graph: unknown weight distribution %q (want uniform|unit|int)", name)
	}
}

// ErdosRenyi generates a G(n, p) graph with uniform edge weights in
// [1, maxW) using the given seed. Generation walks the upper triangle with
// geometric skips, so the cost is proportional to the number of edges, not
// n^2 — the same trick that makes the paper's "graph generation is fast"
// claim hold at n = 262,144.
func ErdosRenyi(n int, p float64, maxW float64, seed int64) (*Graph, error) {
	return ErdosRenyiWeighted(n, p, UniformWeights(maxW), seed)
}

// ErdosRenyiWeighted is ErdosRenyi with an arbitrary weight distribution.
// Edge placement depends only on n, p and seed, so two distributions at
// the same seed produce the same topology with different weights.
func ErdosRenyiWeighted(n int, p float64, wf WeightFn, seed int64) (*Graph, error) {
	edges, err := sampleEdges(n, p, wf, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, err
	}
	return FromEdges(n, edges)
}

// ErdosRenyiConnected is ErdosRenyiWeighted with a connectivity
// guarantee: after sampling G(n, p) it adds a ring backbone
// 0–1–…–(n-1)–0 with weights drawn from the same distribution, so every
// pair of vertices is reachable and sparse APSP benchmarks carry no
// unreachable-pair noise. The ER edges are sampled first from the same
// rng stream as ErdosRenyiWeighted, so at equal (n, p, seed) the random
// part of the topology is identical with or without the backbone;
// duplicate edges keep the minimum weight as usual.
func ErdosRenyiConnected(n int, p float64, wf WeightFn, seed int64) (*Graph, error) {
	if wf == nil {
		wf = UniformWeights(10)
	}
	rng := rand.New(rand.NewSource(seed))
	edges, err := sampleEdges(n, p, wf, rng)
	if err != nil {
		return nil, err
	}
	if n > 1 {
		for u := 0; u < n; u++ {
			edges = append(edges, Edge{U: u, V: (u + 1) % n, W: wf(rng)})
		}
	}
	return FromEdges(n, edges)
}

// AvgDegreeProb converts a target average degree into the G(n, p) edge
// probability d/(n-1), clamped to [0, 1] — the knob sparse benchmarks use
// instead of the paper's log-density probability.
func AvgDegreeProb(n int, d float64) float64 {
	if n < 2 || d <= 0 {
		return 0
	}
	p := d / float64(n-1)
	if p > 1 {
		p = 1
	}
	return p
}

// sampleEdges draws the G(n, p) edge set from rng, consuming one rng
// value per geometric skip and one per edge weight.
func sampleEdges(n int, p float64, wf WeightFn, rng *rand.Rand) ([]Edge, error) {
	if p < 0 || p > 1 {
		return nil, fmt.Errorf("graph: edge probability %v outside [0,1]", p)
	}
	if wf == nil {
		wf = UniformWeights(10)
	}
	var edges []Edge
	if p > 0 {
		lq := math.Log1p(-p) // log(1-p); p==1 gives -Inf and dense output
		// Linearized upper-triangle index walk with geometric gaps.
		var idx, total int64
		total = int64(n) * int64(n-1) / 2
		for {
			var skip int64
			if p >= 1 {
				skip = 0
			} else {
				skip = int64(math.Floor(math.Log(1-rng.Float64()) / lq))
			}
			idx += skip
			if idx >= total {
				break
			}
			u, v := unrank(idx, n)
			edges = append(edges, Edge{U: u, V: v, W: wf(rng)})
			idx++
		}
	}
	return edges, nil
}

// ErdosRenyiPaper generates the exact graph family from the paper's §5.1.
func ErdosRenyiPaper(n int, seed int64) (*Graph, error) {
	return ErdosRenyi(n, ErdosRenyiPaperProb(n), 10, seed)
}

// unrank maps a linear index over the strictly-upper triangle of an n x n
// matrix (row-major) back to (row, col).
func unrank(idx int64, n int) (int, int) {
	// Row r starts at offset r*n - r*(r+3)/2 ... solve incrementally via the
	// closed form: remaining(r) = (n-1-r) entries in row r.
	// Use the quadratic formula on cumulative counts.
	nf := float64(n)
	r := int(math.Floor((2*nf - 1 - math.Sqrt((2*nf-1)*(2*nf-1)-8*float64(idx))) / 2))
	for rowStart(r, n) > idx {
		r--
	}
	for rowStart(r+1, n) <= idx {
		r++
	}
	c := r + 1 + int(idx-rowStart(r, n))
	return r, c
}

func rowStart(r, n int) int64 {
	return int64(r)*int64(n) - int64(r)*int64(r+1)/2
}
