package graph

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// neighbor is one adjacency entry as VisitAdj reports it.
type neighbor struct {
	To int
	W  float64
}

// adjOf collects vertex u's adjacency through VisitAdj.
func adjOf(g *Graph, u int) []neighbor {
	var out []neighbor
	g.VisitAdj(u, func(v int, w float64) { out = append(out, neighbor{v, w}) })
	return out
}

func TestFromEdgesBasic(t *testing.T) {
	g, err := FromEdges(4, []Edge{{0, 1, 2}, {1, 2, 3}, {2, 3, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 3 {
		t.Fatalf("NumEdges = %d, want 3", g.NumEdges())
	}
	if d1, d0 := len(adjOf(g, 1)), len(adjOf(g, 0)); d1 != 2 || d0 != 1 {
		t.Fatalf("degrees = %d,%d", d1, d0)
	}
	adj := adjOf(g, 1)
	if adj[0].To != 0 || adj[1].To != 2 {
		t.Fatalf("adjacency of 1 = %v", adj)
	}
}

func TestFromEdgesDropsSelfLoopsAndKeepsMinWeight(t *testing.T) {
	g, err := FromEdges(3, []Edge{{0, 0, 5}, {0, 1, 9}, {1, 0, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1", g.NumEdges())
	}
	if w := adjOf(g, 0)[0].W; w != 2 {
		t.Fatalf("duplicate edge kept weight %v, want 2", w)
	}
}

func TestFromEdgesValidation(t *testing.T) {
	if _, err := FromEdges(2, []Edge{{0, 5, 1}}); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
	if _, err := FromEdges(2, []Edge{{0, 1, -1}}); err == nil {
		t.Fatal("negative weight accepted")
	}
	// NaN fails every comparison, so a "w < 0" check lets it through.
	want := "graph: weight NaN on edge (0,1), want >= 0"
	if _, err := FromEdges(2, []Edge{{0, 1, math.NaN()}}); err == nil || err.Error() != want {
		t.Fatalf("NaN weight: err = %v, want %q", err, want)
	}
	// Vertex ids are packed into int32s: a larger n would wrap, not fail.
	for _, n := range []int{-1, math.MaxInt32 + 1, 1 << 62} {
		if _, err := FromEdges(n, nil); err == nil {
			t.Fatalf("n = %d accepted", n)
		}
	}
}

func TestEdgesRoundTrip(t *testing.T) {
	in := []Edge{{0, 1, 2}, {1, 3, 4}, {2, 3, 0.5}}
	g, err := FromEdges(4, in)
	if err != nil {
		t.Fatal(err)
	}
	out := g.Edges()
	if len(out) != len(in) {
		t.Fatalf("Edges() returned %d, want %d", len(out), len(in))
	}
	g2, err := FromEdges(4, out)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Dense().Equal(g2.Dense()) {
		t.Fatal("edge-list round trip changed the graph")
	}
}

func TestConnected(t *testing.T) {
	conn, _ := FromEdges(3, []Edge{{0, 1, 1}, {1, 2, 1}})
	if !conn.Connected() {
		t.Fatal("path graph reported disconnected")
	}
	disc, _ := FromEdges(4, []Edge{{0, 1, 1}, {2, 3, 1}})
	if disc.Connected() {
		t.Fatal("two components reported connected")
	}
	empty, _ := FromEdges(0, nil)
	if !empty.Connected() {
		t.Fatal("empty graph should be trivially connected")
	}
}

func TestDense(t *testing.T) {
	g, _ := FromEdges(3, []Edge{{0, 2, 4}})
	a := g.Dense()
	if a.At(0, 0) != 0 || a.At(1, 1) != 0 {
		t.Fatal("diagonal not zero")
	}
	if a.At(0, 2) != 4 || a.At(2, 0) != 4 {
		t.Fatal("edge weight not symmetric in dense form")
	}
	if !math.IsInf(a.At(0, 1), 1) {
		t.Fatal("absent edge not +Inf")
	}
}

func TestErdosRenyiDeterministic(t *testing.T) {
	g1, err := ErdosRenyi(100, 0.05, 10, 42)
	if err != nil {
		t.Fatal(err)
	}
	g2, _ := ErdosRenyi(100, 0.05, 10, 42)
	if !g1.Dense().Equal(g2.Dense()) {
		t.Fatal("same seed produced different graphs")
	}
	g3, _ := ErdosRenyi(100, 0.05, 10, 43)
	if g1.Dense().Equal(g3.Dense()) {
		t.Fatal("different seeds produced identical graphs (suspicious)")
	}
}

func TestErdosRenyiEdgeCountConcentration(t *testing.T) {
	n, p := 400, 0.05
	g, err := ErdosRenyi(n, p, 10, 7)
	if err != nil {
		t.Fatal(err)
	}
	mean := p * float64(n) * float64(n-1) / 2
	got := float64(g.NumEdges())
	// Binomial std ~ sqrt(mean); allow 6 sigma.
	if math.Abs(got-mean) > 6*math.Sqrt(mean) {
		t.Fatalf("edge count %v too far from mean %v", got, mean)
	}
}

func TestErdosRenyiExtremes(t *testing.T) {
	g0, err := ErdosRenyi(10, 0, 10, 1)
	if err != nil || g0.NumEdges() != 0 {
		t.Fatalf("p=0: edges=%d err=%v", g0.NumEdges(), err)
	}
	g1, err := ErdosRenyi(10, 1, 10, 1)
	if err != nil || g1.NumEdges() != 45 {
		t.Fatalf("p=1: edges=%d err=%v, want complete graph", g1.NumEdges(), err)
	}
	if _, err := ErdosRenyi(10, 1.5, 10, 1); err == nil {
		t.Fatal("p>1 accepted")
	}
}

func TestErdosRenyiWeightsInRange(t *testing.T) {
	g, _ := ErdosRenyi(50, 0.3, 5, 11)
	for _, e := range g.Edges() {
		if e.W < 1 || e.W >= 5 {
			t.Fatalf("weight %v outside [1,5)", e.W)
		}
	}
}

func TestErdosRenyiPaperProb(t *testing.T) {
	if p := ErdosRenyiPaperProb(1); p != 0 {
		t.Fatalf("n=1 prob = %v", p)
	}
	n := 1024
	want := 1.1 * math.Log(float64(n)) / float64(n)
	if got := ErdosRenyiPaperProb(n); math.Abs(got-want) > 1e-15 {
		t.Fatalf("paper prob = %v, want %v", got, want)
	}
	// The paper family is almost surely connected (p above the ln n / n
	// threshold); check one sample.
	g, err := ErdosRenyiPaper(512, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Connected() {
		t.Log("warning: sample not connected (possible but unlikely)")
	}
}

func TestUnrankQuick(t *testing.T) {
	f := func(seed int64) bool {
		n := int(seed%97) + 2
		if n < 2 {
			n = 2
		}
		idx := int64(0)
		for r := 0; r < n; r++ {
			for c := r + 1; c < n; c++ {
				gr, gc := unrank(idx, n)
				if gr != r || gc != c {
					return false
				}
				idx++
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestWeightDistributions(t *testing.T) {
	const n, seed = 200, 5
	p := ErdosRenyiPaperProb(n)
	uniform, err := ErdosRenyiWeighted(n, p, UniformWeights(10), seed)
	if err != nil {
		t.Fatal(err)
	}
	unit, err := ErdosRenyiWeighted(n, p, UnitWeights(), seed)
	if err != nil {
		t.Fatal(err)
	}
	integer, err := ErdosRenyiWeighted(n, p, IntegerWeights(100), seed)
	if err != nil {
		t.Fatal(err)
	}

	// Same seed, same p: identical topology across distributions.
	ue, ne, ie := uniform.Edges(), unit.Edges(), integer.Edges()
	if len(ue) != len(ne) || len(ue) != len(ie) {
		t.Fatalf("edge counts diverge: %d / %d / %d", len(ue), len(ne), len(ie))
	}
	for k := range ue {
		if ue[k].U != ne[k].U || ue[k].V != ne[k].V || ue[k].U != ie[k].U || ue[k].V != ie[k].V {
			t.Fatalf("edge %d topology diverges across weight distributions", k)
		}
	}

	sawBigInt := false
	for k := range ue {
		if w := ue[k].W; w < 1 || w >= 10 {
			t.Fatalf("uniform weight %v outside [1,10)", w)
		}
		if ne[k].W != 1 {
			t.Fatalf("unit weight %v != 1", ne[k].W)
		}
		w := ie[k].W
		if w != math.Trunc(w) || w < 1 || w > 100 {
			t.Fatalf("integer weight %v outside {1..100}", w)
		}
		if w > 1 {
			sawBigInt = true
		}
	}
	if !sawBigInt {
		t.Fatal("integer weights never exceeded 1; distribution looks broken")
	}

	// The uniform path is the historical ErdosRenyi: bit-identical graphs.
	legacy, err := ErdosRenyi(n, p, 10, seed)
	if err != nil {
		t.Fatal(err)
	}
	le := legacy.Edges()
	for k := range ue {
		if ue[k] != le[k] {
			t.Fatalf("ErdosRenyiWeighted(UniformWeights) diverges from ErdosRenyi at edge %d", k)
		}
	}
}

func TestWeightsByName(t *testing.T) {
	for _, name := range []string{"", "uniform", "unit", "int"} {
		if _, err := WeightsByName(name, 10); err != nil {
			t.Errorf("WeightsByName(%q): %v", name, err)
		}
	}
	if _, err := WeightsByName("gaussian", 10); err == nil {
		t.Error("unknown distribution accepted")
	}
}

func TestCSRMatchesVisitAdj(t *testing.T) {
	g, err := ErdosRenyiPaper(60, 4)
	if err != nil {
		t.Fatal(err)
	}
	rowPtr, colIdx, weights := g.CSR()
	if len(rowPtr) != g.N+1 || len(colIdx) != len(weights) {
		t.Fatalf("CSR shapes: ptr=%d idx=%d w=%d", len(rowPtr), len(colIdx), len(weights))
	}
	for u := 0; u < g.N; u++ {
		want := adjOf(g, u)
		lo, hi := rowPtr[u], rowPtr[u+1]
		if int(hi-lo) != len(want) {
			t.Fatalf("vertex %d: CSR degree %d, VisitAdj %d", u, hi-lo, len(want))
		}
		for k, nb := range want {
			if int(colIdx[lo+int32(k)]) != nb.To || weights[lo+int32(k)] != nb.W {
				t.Fatalf("vertex %d entry %d: CSR (%d,%v), VisitAdj (%d,%v)",
					u, k, colIdx[lo+int32(k)], weights[lo+int32(k)], nb.To, nb.W)
			}
		}
	}
}

// fromEdgesMapReference is the body FromEdges had before it sorted: dedupe
// through a map, scatter in map order, sort every adjacency list.
func fromEdgesMapReference(n int, edges []Edge) (*Graph, error) {
	type key struct{ u, v int }
	best := make(map[key]float64, len(edges))
	for _, e := range edges {
		if e.U < 0 || e.U >= n || e.V < 0 || e.V >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", e.U, e.V, n)
		}
		if e.W < 0 {
			return nil, fmt.Errorf("graph: negative weight %v on edge (%d,%d)", e.W, e.U, e.V)
		}
		if e.U == e.V {
			continue
		}
		u, v := e.U, e.V
		if u > v {
			u, v = v, u
		}
		k := key{u, v}
		if w, ok := best[k]; !ok || e.W < w {
			best[k] = e.W
		}
	}
	deg := make([]int32, n)
	for k := range best {
		deg[k.u]++
		deg[k.v]++
	}
	g := &Graph{N: n, rowPtr: make([]int32, n+1)}
	for i := 0; i < n; i++ {
		g.rowPtr[i+1] = g.rowPtr[i] + deg[i]
	}
	m := int(g.rowPtr[n])
	g.colIdx = make([]int32, m)
	g.weights = make([]float64, m)
	fill := make([]int32, n)
	for k, w := range best {
		for _, pair := range [2][2]int{{k.u, k.v}, {k.v, k.u}} {
			u, v := pair[0], pair[1]
			pos := g.rowPtr[u] + fill[u]
			g.colIdx[pos] = int32(v)
			g.weights[pos] = w
			fill[u]++
		}
	}
	for u := 0; u < n; u++ {
		lo, hi := g.rowPtr[u], g.rowPtr[u+1]
		sort.Sort(&adjSorter{g.colIdx[lo:hi], g.weights[lo:hi]})
	}
	return g, nil
}

type adjSorter struct {
	idx []int32
	ws  []float64
}

func (s *adjSorter) Len() int           { return len(s.idx) }
func (s *adjSorter) Less(i, j int) bool { return s.idx[i] < s.idx[j] }
func (s *adjSorter) Swap(i, j int) {
	s.idx[i], s.idx[j] = s.idx[j], s.idx[i]
	s.ws[i], s.ws[j] = s.ws[j], s.ws[i]
}

// TestFromEdgesMatchesMapReference: the CSR arrays are element for element
// what the map-based builder produced, on the inputs where the two could
// differ — duplicates (equal and unequal weights, either orientation),
// self-loops, an empty edge set, isolated vertices, unsorted input.
func TestFromEdgesMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	random := func(n, m, maxW int) []Edge {
		edges := make([]Edge, m)
		for i := range edges {
			edges[i] = Edge{U: rng.Intn(n), V: rng.Intn(n), W: float64(rng.Intn(maxW + 1))}
		}
		return edges
	}
	cases := []struct {
		name  string
		n     int
		edges []Edge
	}{
		{"empty graph", 0, nil},
		{"no edges", 5, nil},
		{"no edges, empty slice", 5, []Edge{}},
		{"only self-loops", 3, []Edge{{0, 0, 1}, {2, 2, 0}}},
		{"reversed pairs", 4, []Edge{{3, 0, 2}, {0, 3, 1}, {2, 1, 5}, {1, 2, 5}, {1, 2, 7}}},
		{"duplicates, min first, last and in the middle", 3, []Edge{{0, 1, 1}, {0, 1, 3}, {1, 2, 9}, {2, 1, 4}, {1, 2, 6}, {0, 2, 8}, {2, 0, 8}}},
		{"zero and infinite weights", 3, []Edge{{0, 1, 0}, {1, 0, math.Inf(1)}, {1, 2, math.Inf(1)}}},
		{"isolated vertices at both ends", 6, []Edge{{2, 3, 1.5}, {3, 4, 2.5}}},
		{"dense random multigraph", 12, random(12, 400, 3)},
		{"sparse random", 500, random(500, 900, 100)},
		{"one edge a thousand times", 2, random(2, 1000, 50)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := FromEdges(tc.n, tc.edges)
			if err != nil {
				t.Fatal(err)
			}
			want, err := fromEdgesMapReference(tc.n, tc.edges)
			if err != nil {
				t.Fatal(err)
			}
			if got.N != want.N || !slices.Equal(got.rowPtr, want.rowPtr) || !slices.Equal(got.colIdx, want.colIdx) || !slices.Equal(got.weights, want.weights) {
				t.Fatalf("CSR differs from the map-based builder's:\n got %v %v %v\nwant %v %v %v",
					got.rowPtr, got.colIdx, got.weights, want.rowPtr, want.colIdx, want.weights)
			}
			if (got.colIdx == nil) != (want.colIdx == nil) || (got.weights == nil) != (want.weights == nil) {
				t.Fatalf("nil-ness of the empty arrays differs")
			}
		})
	}
}
