package main

import (
	"math"
	"sort"

	"apspark/internal/graph"
)

// refSSSP is the benchmark's independent reference: start from the
// source alone and keep extending known shortest paths by one edge until
// no distance improves. It reads nothing but the edge list, so it shares
// no code with any engine it judges.
func refSSSP(n int, edges []graph.Edge, src int) []float64 {
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	for changed := true; changed; {
		changed = false
		for _, e := range edges {
			if d := dist[e.U] + e.W; d < dist[e.V] {
				dist[e.V], changed = d, true
			}
			if d := dist[e.V] + e.W; d < dist[e.U] {
				dist[e.U], changed = d, true
			}
		}
	}
	return dist
}

// reference holds the rows refSSSP produced for the verified sources and
// the edge weights path answers are checked against.
type reference struct {
	n    int
	rows map[int][]float64
	// nearest lists, per reference source, the other reachable vertices
	// by (distance, id) — sorted once here, not per checked /knn reply.
	nearest map[int][]int
	w       map[[2]int]float64
	// tol is the relative tolerance of a distance comparison: 0 on the
	// integer-weight graphs (bit-exact), 1e-9 on the float-weight dense
	// graph, where the solvers associate the same sums differently.
	tol float64
}

func newReference(g *graph.Graph, sources []int, tol float64) *reference {
	edges := g.Edges()
	r := &reference{n: g.N, rows: make(map[int][]float64, len(sources)), nearest: make(map[int][]int, len(sources)),
		w: make(map[[2]int]float64, len(edges)), tol: tol}
	for _, e := range edges {
		r.w[edgeKey(e.U, e.V)] = e.W
	}
	for _, s := range sources {
		if _, ok := r.rows[s]; ok {
			continue
		}
		row := refSSSP(g.N, edges, s)
		ids := make([]int, 0, g.N-1)
		for v, d := range row {
			if v != s && !math.IsInf(d, 1) {
				ids = append(ids, v)
			}
		}
		sort.Slice(ids, func(a, b int) bool {
			if row[ids[a]] != row[ids[b]] {
				return row[ids[a]] < row[ids[b]]
			}
			return ids[a] < ids[b]
		})
		r.rows[s], r.nearest[s] = row, ids
	}
	return r
}

func edgeKey(u, v int) [2]int {
	if u > v {
		u, v = v, u
	}
	return [2]int{u, v}
}

func (r *reference) same(got, want float64) bool {
	if got == want {
		return true
	}
	return math.Abs(got-want) <= r.tol*(1+math.Abs(want))
}

// distOK judges one distance. Sources without a reference row pass: the
// caller has already checked the answer's shape.
func (r *reference) distOK(from, to int, got float64) bool {
	row, ok := r.rows[from]
	return !ok || r.same(got, row[to])
}

func (r *reference) rowOK(from int, got []float64) bool {
	if len(got) != r.n {
		return false
	}
	row, ok := r.rows[from]
	if !ok {
		return true
	}
	for j, d := range got {
		if !r.same(d, row[j]) {
			return false
		}
	}
	return true
}

type knnTarget struct {
	To   int     `json:"to"`
	Dist float64 `json:"dist"`
}

// knnOK checks a k-nearest answer: k entries (the graphs are connected
// and larger than k), and for a reference source exactly the k closest
// other vertices in (distance, id) order.
func (r *reference) knnOK(from, k int, got []knnTarget) bool {
	if len(got) != k {
		return false
	}
	row, ok := r.rows[from]
	if !ok {
		return true
	}
	ids := r.nearest[from]
	if len(ids) < k {
		return false
	}
	for i, t := range got {
		if t.To != ids[i] || !r.same(t.Dist, row[ids[i]]) {
			return false
		}
	}
	return true
}

// pathOK checks a path answer for any source: it runs from -> to, every
// hop is an edge of the graph and the hop weights sum to the reported
// distance; for a reference source that distance must also be the
// shortest one.
func (r *reference) pathOK(from, to int, dist float64, hops []int) bool {
	if len(hops) == 0 || hops[0] != from || hops[len(hops)-1] != to {
		return false
	}
	sum := 0.0
	for i := 1; i < len(hops); i++ {
		w, ok := r.w[edgeKey(hops[i-1], hops[i])]
		if !ok {
			return false
		}
		sum += w
	}
	return r.same(sum, dist) && r.distOK(from, to, dist)
}
