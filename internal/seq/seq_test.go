package seq

import (
	"math"
	"testing"
	"testing/quick"

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

func TestFloydWarshallMatchesDijkstra(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		g := randomGraph(t, 40, 0.15, seed)
		fw := mustFW(t, g)
		dj := matrix.New(g.N, g.N)
		for s := 0; s < g.N; s++ {
			copy(dj.Data[s*g.N:(s+1)*g.N], Dijkstra(g, s))
		}
		if !fw.AllClose(dj, 1e-9) {
			t.Fatalf("seed %d: FW != Dijkstra oracle", seed)
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

func TestRepeatedSquaringMatchesFW(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		g := randomGraph(t, 30, 0.2, seed)
		want := mustFW(t, g)
		got, err := RepeatedSquaring(g)
		if err != nil {
			t.Fatal(err)
		}
		if !got.AllClose(want, 1e-9) {
			t.Fatalf("seed %d: repeated squaring != FW", seed)
		}
	}
}

func TestRepeatedSquaringSingleVertex(t *testing.T) {
	g, _ := graph.FromEdges(1, nil)
	got, err := RepeatedSquaring(g)
	if err != nil {
		t.Fatal(err)
	}
	if got.At(0, 0) != 0 {
		t.Fatalf("1-vertex distance = %v", got.At(0, 0))
	}
}

func TestJohnsonMatchesFW(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		g := randomGraph(t, 35, 0.15, seed)
		want := mustFW(t, g)
		got, err := Johnson(g)
		if err != nil {
			t.Fatal(err)
		}
		if !got.AllClose(want, 1e-9) {
			t.Fatalf("seed %d: Johnson != FW", seed)
		}
	}
}

func TestJohnsonDisconnected(t *testing.T) {
	g, _ := graph.FromEdges(4, []graph.Edge{{U: 0, V: 1, W: 2}, {U: 2, V: 3, W: 3}})
	got, err := Johnson(g)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(got.At(0, 3), 1) {
		t.Fatalf("cross-component distance = %v", got.At(0, 3))
	}
	if got.At(0, 1) != 2 || got.At(2, 3) != 3 {
		t.Fatal("intra-component distances wrong")
	}
}

func TestDijkstraStaleEntries(t *testing.T) {
	// Triangle where the heap will contain a stale longer path to vertex 2.
	g, _ := graph.FromEdges(3, []graph.Edge{
		{U: 0, V: 1, W: 1}, {U: 0, V: 2, W: 10}, {U: 1, V: 2, W: 1},
	})
	d := Dijkstra(g, 0)
	if d[2] != 2 {
		t.Fatalf("d[2] = %v, want 2", d[2])
	}
}

func TestAllSolversAgreeQuick(t *testing.T) {
	f := func(seed int64) bool {
		n := int(((seed%29)+29)%29) + 2
		g, err := graph.ErdosRenyi(n, 0.3, 8, seed)
		if err != nil {
			return false
		}
		fw := mustFW(t, g)
		bfw, err := BlockedFloydWarshall(g, n/3+1)
		if err != nil {
			return false
		}
		rs, err := RepeatedSquaring(g)
		if err != nil {
			return false
		}
		jo, err := Johnson(g)
		if err != nil {
			return false
		}
		return fw.AllClose(bfw, 1e-9) && fw.AllClose(rs, 1e-9) && fw.AllClose(jo, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
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
