package sparse

import (
	"context"
	"math/rand"
	"testing"

	"apspark/internal/graph"
	"apspark/internal/seq"
)

// radixOnly returns an engine over g with the queue choice overridden to
// the radix heap — the differential partner of New(g) on integer graphs.
func radixOnly(g *graph.Graph) *Engine {
	e := New(g)
	e.dial, e.rows = nil, &e.scratch
	e.width.Store(rowWise)
	return e
}

func mustGraph(t testing.TB, n int, edges []graph.Edge) *graph.Graph {
	t.Helper()
	g, err := graph.FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// chain is the path 0-1-...-(n-1) with weights cycling through ws.
func chain(n int, ws ...float64) []graph.Edge {
	edges := make([]graph.Edge, 0, n)
	for i := 0; i+1 < n; i++ {
		edges = append(edges, graph.Edge{U: i, V: i + 1, W: ws[i%len(ws)]})
	}
	return edges
}

// star joins vertex 0 to every other vertex with weights cycling through
// ws. With one weight every leaf lands in the same bucket, which walks
// that bucket through every window size up to n.
func star(n int, ws ...float64) []graph.Edge {
	edges := make([]graph.Edge, 0, n)
	for i := 1; i < n; i++ {
		edges = append(edges, graph.Edge{U: 0, V: i, W: ws[i%len(ws)]})
	}
	return edges
}

// requireRowsMatch solves every source on e and compares each row, bit
// for bit, with want's.
func requireRowsMatch(t testing.TB, e *Engine, want func(src int) []float64) {
	t.Helper()
	row := make([]float64, e.N())
	for src := 0; src < e.N(); src++ {
		if err := e.SolveRowInto(src, row); err != nil {
			t.Fatal(err)
		}
		for v, w := range want(src) {
			if row[v] != w {
				t.Fatalf("%s: dist[%d][%d] = %v, want %v", e.Queue(), src, v, row[v], w)
			}
		}
	}
}

// TestDialMatchesRadixAndFloydWarshall is the differential pin for the
// queue choice: on every graph shape that stresses the Dial queue, the
// chosen engine, the radix heap forced onto the same graph and sequential
// Floyd-Warshall agree bit for bit.
func TestDialMatchesRadixAndFloydWarshall(t *testing.T) {
	cases := []struct {
		name  string
		n     int
		edges []graph.Edge
	}{
		{"single vertex", 1, nil},
		{"no edges", 5, nil},
		// Zero-weight arcs push onto the bucket being read, here past its
		// first window.
		{"zero-weight star", 300, star(300, 0)},
		{"zero-weight chain", 200, chain(200, 0, 0, 3)},
		{"all weights zero", 70, append(chain(70, 0), star(70, 0)...)},
		// FromEdges keeps the lighter of two parallel edges.
		{"duplicate edges", 4, []graph.Edge{{U: 0, V: 1, W: 9}, {U: 1, V: 0, W: 2}, {U: 1, V: 2, W: 4}, {U: 1, V: 2, W: 4}, {U: 2, V: 3, W: 0}}},
		{"disconnected + isolated", 7, []graph.Edge{{U: 0, V: 1, W: 2}, {U: 1, V: 2, W: 3}, {U: 3, V: 4, W: 1}, {U: 4, V: 5, W: 255}}},
		{"one-weight star", 700, star(700, 7)},
		{"star at W*", 130, star(130, dialMaxWeight, 1, 64)},
		{"chain at W*", 300, chain(300, dialMaxWeight)},
		{"chain, mixed weights", 257, chain(257, 1, dialMaxWeight, 0, 100)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := mustGraph(t, tc.n, tc.edges)
			e := New(g)
			if e.Queue() != "dial" {
				t.Fatalf("queue = %s, want dial", e.Queue())
			}
			fw := fwRef(t, g)
			requireRowsMatch(t, e, fw.Row)
			requireRowsMatch(t, radixOnly(g), fw.Row)
		})
	}
}

// TestQueueFallsBackToRadix: a graph one step outside the rule runs the
// radix heap, and still solves correctly.
func TestQueueFallsBackToRadix(t *testing.T) {
	cases := []struct {
		name  string
		edges []graph.Edge
	}{
		{"maxW = W*+1", chain(40, 3, dialMaxWeight+1)},
		{"one non-integral weight", append(chain(40, 2, 5), graph.Edge{U: 0, V: 39, W: 7.5})},
		{"uniform weights", chain(40, 1.25, 2.5, 99.75)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := mustGraph(t, 40, tc.edges)
			e := New(g)
			if e.Queue() != "radix" {
				t.Fatalf("queue = %s, want radix", e.Queue())
			}
			requireRowsMatch(t, e, func(src int) []float64 { return seq.Dijkstra(g, src) })
		})
	}
}

// TestDialERAgainstRadix runs the two queues over whole random graphs,
// panels and workers included.
func TestDialERAgainstRadix(t *testing.T) {
	for _, maxW := range []int{1, 100, dialMaxWeight} {
		g, err := graph.ErdosRenyiConnected(300, graph.AvgDegreeProb(300, 9), graph.IntegerWeights(maxW), int64(maxW))
		if err != nil {
			t.Fatal(err)
		}
		if q := New(g).Queue(); q != "dial" {
			t.Fatalf("maxW=%d: queue = %s, want dial", maxW, q)
		}
		want, _, err := radixOnly(g).Solve(context.Background(), 64, Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		requireBitIdentical(t, solveFull(t, g, 64), want)
	}
}

// FuzzDialMatchesRadix builds a small integer-weight graph from the fuzz
// input and requires the two queues to produce identical rows.
func FuzzDialMatchesRadix(f *testing.F) {
	f.Add(int64(1), uint8(12), uint8(30), uint8(9))
	f.Add(int64(2), uint8(1), uint8(0), uint8(0))
	f.Add(int64(3), uint8(40), uint8(200), uint8(255))
	f.Add(int64(4), uint8(25), uint8(60), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, nv, ne, maxW uint8) {
		n := int(nv)%48 + 1
		rng := rand.New(rand.NewSource(seed))
		edges := make([]graph.Edge, ne)
		for i := range edges {
			edges[i] = graph.Edge{U: rng.Intn(n), V: rng.Intn(n), W: float64(rng.Intn(int(maxW) + 1))}
		}
		g := mustGraph(t, n, edges)
		e, r := New(g), radixOnly(g)
		if e.Queue() != "dial" {
			t.Fatalf("queue = %s, want dial", e.Queue())
		}
		want := make([]float64, n)
		requireRowsMatch(t, e, func(src int) []float64 {
			if err := r.SolveRowInto(src, want); err != nil {
				t.Fatal(err)
			}
			return want
		})
	})
}
