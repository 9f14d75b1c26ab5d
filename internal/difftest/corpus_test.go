// Package difftest holds every producer of distances to one reference,
// seq.Reference, on one corpus of graphs, through every consumer that
// reads distances back: a table of producers (the cluster solvers, the
// two MPI baselines, the sequential Floyd-Warshall pair, the sparse
// engine through every entry point, stores of every codec, a generation
// after delta batches, rows solved on demand) crossed with a table of
// consumers (the store's reads with its row cache on and off, the
// serving engine, the HTTP handler). A new engine, codec or endpoint is
// one row of a table. Metamorphic checks (symmetry, zero diagonal,
// triangle inequality, monotonicity under a weight decrease, invariance
// under relabelling) run on every producer too. The package is tests
// only.
//
// On integer weights every path sum is exact, so every producer must
// equal the reference bit for bit. On real weights the sparse engine
// settles the same left-to-right sums the reference does, and is held
// to it bit for bit too; producers that add up paths in another order
// (the Floyd-Warshall family, the MPI baselines) are held to a bound
// derived from the reference path: a sum of h rounded hops of length d
// is within (h-1)·2^-53·d of the exact sum, so two such sums are within
// twice that.
package difftest

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"sync"

	"apspark/internal/graph"
	"apspark/internal/matrix"
	"apspark/internal/seq"
)

// An entry is one corpus graph, the tile edge the producers that cut the
// matrix into blocks or panels use on it, and its reference distances.
type entry struct {
	name string
	g    *graph.Graph
	b    int
	ref  *matrix.Block
	// hops is, on real weights, the most hops of a path the reference's
	// labels are tight along, for every pair; nil on integer weights.
	hops []int32
}

// bound is how far a producer that rounds its own way may stray from the
// reference at (i, j): 2·(h-1)·2^-53·d on real weights, nothing on
// integer ones.
func (e *entry) bound(i, j int) float64 {
	if e.hops == nil {
		return 0
	}
	h := e.hops[i*e.g.N+j]
	return 2 * float64(max(h-1, 0)) * 0x1p-53 * e.ref.At(i, j)
}

// corpus returns the shared corpus, built and solved by the reference
// once per test binary.
var corpus = sync.OnceValue(func() []*entry {
	rng := rand.New(rand.NewSource(43))
	must := func(g *graph.Graph, err error) *graph.Graph {
		if err != nil {
			panic(err)
		}
		return g
	}
	edges := func(n int, es []graph.Edge) *graph.Graph { return must(graph.FromEdges(n, es)) }
	intER := func(n int, deg float64, maxW int, seed int64) *graph.Graph {
		return must(graph.ErdosRenyiConnected(n, graph.AvgDegreeProb(n, deg), graph.IntegerWeights(maxW), seed))
	}
	islands := intER(60, 5, 20, 4).Edges()
	for _, e := range slices.Clone(islands) {
		islands = append(islands, graph.Edge{U: e.U + 60, V: e.V + 60, W: e.W})
	}
	knnInt := func(w float64, n int) float64 { return min(1+math.Floor(400*w*math.Sqrt(float64(n)/4096)), 255) }
	es := []*entry{
		{name: "ER sparse", g: intER(100, 6, 100, 1), b: 32},
		{name: "ER dense", g: must(graph.ErdosRenyiWeighted(96, 0.5, graph.IntegerWeights(50), 2)), b: 32},
		{name: "planted", g: must(graph.PlantedPartitionConnected(192, 8, 0.2, 0.003, graph.IntegerWeights(50), 3)), b: 64},
		{name: "disconnected + isolated", g: edges(7, []graph.Edge{{U: 0, V: 1, W: 2}, {U: 1, V: 2, W: 3}, {U: 3, V: 4, W: 1}, {U: 4, V: 5, W: 255}}), b: 3},
		{name: "two islands", g: edges(120, islands), b: 32},
		{name: "chain", g: edges(40, chain(40, 1, 5, 2)), b: 16},
		{name: "star at 255", g: edges(130, star(130, 255, 1, 64)), b: 32},
		{name: "weights at 256", g: edges(100, append(chain(100, 256, 1), star(100, 256)...)), b: 32},
		{name: "duplicate edges", g: edges(20, append(chain(20, 9), append(chain(20, 2, 30), graph.Edge{U: 1, V: 0, W: 1})...)), b: 8},
		{name: "n=1", g: edges(1, nil), b: 1},
		{name: "zero-weight edges", g: edges(200, append(chain(200, 0, 0, 3), star(200, 0, 9)...)), b: 48},
		{name: "no edges", g: edges(5, nil), b: 2},
		// Zero-weight arcs settle vertices at the distance being popped.
		{name: "zero-weight star", g: edges(300, star(300, 0)), b: 64},
		{name: "all weights zero", g: edges(70, append(chain(70, 0), star(70, 0)...)), b: 16},
		{name: "chain 1/255/0/100", g: edges(257, chain(257, 1, 255, 0, 100)), b: 64},
		// Relaxations at equal distance must not loop or mis-rank.
		{name: "zero-weight chain with shortcuts", g: edges(6, []graph.Edge{
			{U: 0, V: 1, W: 0}, {U: 1, V: 2, W: 0}, {U: 2, V: 3, W: 5}, {U: 3, V: 4, W: 0},
			{U: 0, V: 4, W: 5}, {U: 1, V: 3, W: 2}, {U: 4, V: 5, W: 1}, {U: 5, V: 0, W: 0}}), b: 2},
		{name: "unit weights", g: must(graph.ErdosRenyiWeighted(100, 0.06, graph.UnitWeights(), 3)), b: 64},
		// The two ends of each chain are its largest distance: 65,279
		// stands on 16-bit lanes, 65,280 is a batch thrown away.
		{name: "distance 65,279", g: edges(257, chain(257, append(slices.Repeat([]float64{255}, 255), 254)...)), b: 64},
		{name: "distance 65,280", g: edges(257, chain(257, 255)), b: 64},
		// Its later panels start from seeds past 16 bits.
		{name: "75,000 chain", g: edges(301, chain(301, 250)), b: 64},
		// A sweep in label order moves each wavefront a vertex or two:
		// a batch outgrows 16-bit lanes, then overruns its budget.
		{name: "shuffled path", g: edges(512, relabel(chain(512, 255), rng.Perm(512))), b: 128},
		{name: "ER real", g: must(graph.ErdosRenyiPaper(100, 11)), b: 32},
		{name: "ER real, q = 1", g: must(graph.ErdosRenyi(16, 0.25, 10, 3)), b: 16},
		{name: "ER real, ragged b", g: must(graph.ErdosRenyi(30, 0.25, 10, 2)), b: 7},
		{name: "kNN real, draw order", g: knn(200, 10, false, nil), b: 64},
		{name: "kNN real, strip order", g: knn(200, 10, true, nil), b: 64},
		{name: "kNN integer, draw order", g: knn(200, 10, false, knnInt), b: 64},
		{name: "kNN integer, strip order", g: knn(200, 10, true, knnInt), b: 64},
	}
	for _, e := range es {
		e.ref = seq.Reference(e.g)
		if !integral(e.g) {
			e.hops = tightHops(e.g, e.ref)
		}
	}
	return es
})

// entryNamed returns the corpus entry called name.
func entryNamed(name string) *entry {
	for _, e := range corpus() {
		if e.name == name {
			return e
		}
	}
	panic("difftest: no corpus entry " + name)
}

// chain is the path 0-1-...-(n-1), its weights cycling through ws.
func chain(n int, ws ...float64) []graph.Edge {
	var es []graph.Edge
	for i := 0; i+1 < n; i++ {
		es = append(es, graph.Edge{U: i, V: i + 1, W: ws[i%len(ws)]})
	}
	return es
}

// star joins vertex 0 to every other vertex, its weights cycling through
// ws.
func star(n int, ws ...float64) []graph.Edge {
	var es []graph.Edge
	for i := 1; i < n; i++ {
		es = append(es, graph.Edge{U: 0, V: i, W: ws[i%len(ws)]})
	}
	return es
}

// relabel renames every vertex of es through perm.
func relabel(es []graph.Edge, perm []int) []graph.Edge {
	out := make([]graph.Edge, len(es))
	for i, e := range es {
		out[i] = graph.Edge{U: perm[e.U], V: perm[e.V], W: e.W}
	}
	return out
}

// knn is the symmetric k-nearest-neighbour graph of n uniform points in
// the unit square, by brute force: an edge joins each point to its k
// nearest, weighted by their distance, or by round(distance) when round
// is set. Vertices are numbered in draw order, or with strips set by
// vertical strip of x and then by y, as a spatial order would.
func knn(n, k int, strips bool, round func(w float64, n int) float64) *graph.Graph {
	rng := rand.New(rand.NewSource(int64(n)))
	pts := make([][2]float64, n)
	for i := range pts {
		pts[i] = [2]float64{rng.Float64(), rng.Float64()}
	}
	if strips {
		s := math.Sqrt(float64(n)) / 4
		slices.SortStableFunc(pts, func(a, b [2]float64) int {
			return cmp.Or(cmp.Compare(math.Floor(a[0]*s), math.Floor(b[0]*s)), cmp.Compare(a[1], b[1]))
		})
	}
	var es []graph.Edge
	near, d := make([]int, n), make([]float64, n)
	for u := range pts {
		for v := range near {
			near[v], d[v] = v, math.Hypot(pts[u][0]-pts[v][0], pts[u][1]-pts[v][1])
		}
		slices.SortFunc(near, func(a, b int) int { return cmp.Compare(d[a], d[b]) })
		for _, v := range near[1 : k+1] {
			w := d[v]
			if round != nil {
				w = round(w, n)
			}
			es = append(es, graph.Edge{U: u, V: v, W: w})
		}
	}
	g, err := graph.FromEdges(n, es)
	if err != nil {
		panic(err)
	}
	return g
}

// integral reports whether every weight of g is an integer.
func integral(g *graph.Graph) bool {
	for _, e := range g.Edges() {
		if e.W != math.Trunc(e.W) {
			return false
		}
	}
	return true
}

// tightHops returns, for every pair, the most hops of a path along which
// the reference's labels are tight: edge (u, v) is tight from s when
// d(s,u) < d(s,v) and d(s,u) + w == d(s,v). Walking each source's
// vertices by distance visits u before every v it is tight into.
func tightHops(g *graph.Graph, ref *matrix.Block) []int32 {
	n := g.N
	hops := make([]int32, n*n)
	order := make([]int, n)
	for s := range n {
		d, h := ref.Row(s), hops[s*n:(s+1)*n]
		for v := range order {
			order[v] = v
		}
		slices.SortFunc(order, func(a, b int) int { return cmp.Compare(d[a], d[b]) })
		for _, v := range order {
			g.VisitAdj(v, func(u int, w float64) {
				if d[u] < d[v] && d[u]+w == d[v] {
					h[v] = max(h[v], h[u]+1)
				}
			})
		}
	}
	return hops
}
