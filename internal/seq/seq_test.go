package seq

import (
	"math"
	"testing"

	"apspark/internal/graph"
	"apspark/internal/matrix"
)

// mustFW runs FloydWarshall, failing the test on the kernel error.
func mustFW(t testing.TB, g *graph.Graph) *matrix.Block {
	t.Helper()
	m, err := FloydWarshall(g)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func pathGraph(t *testing.T, n int) *graph.Graph {
	t.Helper()
	edges := make([]graph.Edge, 0, n-1)
	for i := 0; i < n-1; i++ {
		edges = append(edges, graph.Edge{U: i, V: i + 1, W: 1})
	}
	g, err := graph.FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func randomGraph(t *testing.T, n int, p float64, seed int64) *graph.Graph {
	t.Helper()
	g, err := graph.ErdosRenyi(n, p, 10, seed)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestFloydWarshallPathGraph(t *testing.T) {
	g := pathGraph(t, 6)
	d := mustFW(t, g)
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			want := math.Abs(float64(i - j))
			if d.At(i, j) != want {
				t.Fatalf("d(%d,%d) = %v, want %v", i, j, d.At(i, j), want)
			}
		}
	}
}

// TestReferenceMatchesFloydWarshall cross-checks the two references once.
// On integer weights every path sum is exact, so they agree bit for bit.
// On real weights each rounds its own sums: a label of h hops and length d
// is within (h-1)·2^-53·d of the exact sum, so the two are within twice
// that, and a shortest path has at most n-1 hops.
func TestReferenceMatchesFloydWarshall(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		for _, c := range []struct {
			wf    graph.WeightFn
			exact bool
		}{{graph.IntegerWeights(100), true}, {graph.UniformWeights(10), false}} {
			g, err := graph.ErdosRenyiWeighted(60, 0.08, c.wf, seed)
			if err != nil {
				t.Fatal(err)
			}
			ref, fw := Reference(g), mustFW(t, g)
			tol := 2 * float64(g.N-2) * 0x1p-53
			for i, r := range ref.Data {
				f := fw.Data[i]
				if r != f && (c.exact || math.IsInf(r, 1) || math.IsInf(f, 1) || math.Abs(r-f) > tol*r) {
					t.Fatalf("seed %d, cell %d: reference %v, Floyd-Warshall %v", seed, i, r, f)
				}
			}
		}
	}
}

func TestBlockedFloydWarshallMatchesPlain(t *testing.T) {
	for _, cfg := range []struct {
		n, b int
		seed int64
	}{
		{20, 5, 1}, {20, 7, 2}, {33, 8, 3}, {16, 16, 4}, {17, 1, 5}, {50, 13, 6},
	} {
		g := randomGraph(t, cfg.n, 0.2, cfg.seed)
		want := mustFW(t, g)
		got, err := BlockedFloydWarshall(g, cfg.b)
		if err != nil {
			t.Fatal(err)
		}
		if !got.AllClose(want, 1e-9) {
			t.Fatalf("n=%d b=%d: blocked FW != plain FW", cfg.n, cfg.b)
		}
	}
}

func TestBlockedFloydWarshallErrors(t *testing.T) {
	if err := BlockedFloydWarshallDense(matrix.New(2, 3), 1); err == nil {
		t.Fatal("non-square accepted")
	}
	if err := BlockedFloydWarshallDense(matrix.New(4, 4), 0); err == nil {
		t.Fatal("zero block accepted")
	}
}

func TestSymmetryOfDistances(t *testing.T) {
	g := randomGraph(t, 45, 0.15, 77)
	d := mustFW(t, g)
	for i := 0; i < g.N; i++ {
		for j := 0; j < g.N; j++ {
			if d.At(i, j) != d.At(j, i) {
				t.Fatalf("asymmetric distance at (%d,%d)", i, j)
			}
		}
	}
}
