package sparse

import (
	"context"
	"testing"

	"apspark/internal/graph"
	"apspark/internal/matrix"
	"apspark/internal/seq"
)

// fwRef is the Floyd-Warshall ground truth for a test graph.
func fwRef(t testing.TB, g *graph.Graph) *matrix.Block {
	t.Helper()
	m, err := seq.FloydWarshall(g)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// intER builds a connected sparse ER graph with integer weights 1..100.
// Integer weights make every path sum exact in float64, so Dijkstra and
// Floyd-Warshall must agree bit for bit, not just within tolerance.
func intER(t testing.TB, n int, deg float64, seed int64) *graph.Graph {
	return intERMaxW(t, n, deg, 100, seed)
}

// intERMaxW is intER with weights 1..maxW.
func intERMaxW(t testing.TB, n int, deg float64, maxW int, seed int64) *graph.Graph {
	t.Helper()
	g, err := graph.ErdosRenyiConnected(n, graph.AvgDegreeProb(n, deg), graph.IntegerWeights(maxW), seed)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// requireBitIdentical fails unless got and want are exactly equal,
// reporting the first mismatching pair.
func requireBitIdentical(t *testing.T, got, want *matrix.Block) {
	t.Helper()
	if got.R != want.R || got.C != want.C {
		t.Fatalf("shape %dx%d, want %dx%d", got.R, got.C, want.R, want.C)
	}
	for i := 0; i < got.R; i++ {
		for j := 0; j < got.C; j++ {
			if got.At(i, j) != want.At(i, j) {
				t.Fatalf("dist[%d][%d] = %v, want %v", i, j, got.At(i, j), want.At(i, j))
			}
		}
	}
}

// requireIntCells fails unless uint32 cells hold want's distances
// exactly, matrix.NoPath32 where want has no path.
func requireIntCells(t *testing.T, cells []uint32, want *matrix.Block) {
	t.Helper()
	for i, d := range want.Data {
		got := float64(cells[i])
		if cells[i] == matrix.NoPath32 {
			got = matrix.Inf
		}
		if got != d {
			t.Fatalf("cell %d = %d, want %v", i, cells[i], d)
		}
	}
}

func solveFull(t *testing.T, g *graph.Graph, panelRows int) *matrix.Block {
	t.Helper()
	out, done, err := New(g).Solve(context.Background(), panelRows, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if done != g.N {
		t.Fatalf("solved %d rows, want %d", done, g.N)
	}
	return out
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
// ws.
func star(n int, ws ...float64) []graph.Edge {
	edges := make([]graph.Edge, 0, n)
	for i := 1; i < n; i++ {
		edges = append(edges, graph.Edge{U: 0, V: i, W: ws[i%len(ws)]})
	}
	return edges
}

// TestRowsAndPanelsMatchFloydWarshall is the corpus of edge-case shapes:
// on each, every SolveRowInto row and every row of a panelled Solve
// (batched where this build and the weights allow) equal sequential
// Floyd-Warshall bit for bit.
func TestRowsAndPanelsMatchFloydWarshall(t *testing.T) {
	cases := []struct {
		name  string
		n     int
		edges []graph.Edge
	}{
		{"single vertex", 1, nil},
		{"no edges", 5, nil},
		// Zero-weight arcs settle vertices at the distance being popped.
		{"zero-weight star", 300, star(300, 0)},
		{"zero-weight chain", 200, chain(200, 0, 0, 3)},
		{"all weights zero", 70, append(chain(70, 0), star(70, 0)...)},
		// FromEdges keeps the lighter of two parallel edges.
		{"duplicate edges", 4, []graph.Edge{{U: 0, V: 1, W: 9}, {U: 1, V: 0, W: 2}, {U: 1, V: 2, W: 4}, {U: 1, V: 2, W: 4}, {U: 2, V: 3, W: 0}}},
		{"disconnected + isolated", 7, []graph.Edge{{U: 0, V: 1, W: 2}, {U: 1, V: 2, W: 3}, {U: 3, V: 4, W: 1}, {U: 4, V: 5, W: 255}}},
		{"one-weight star", 700, star(700, 7)},
		{"star at 255", 130, star(130, maxArcWeight, 1, 64)},
		{"chain at 255", 300, chain(300, maxArcWeight)},
		{"chain, mixed weights", 257, chain(257, 1, maxArcWeight, 0, 100)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := mustGraph(t, tc.n, tc.edges)
			e := New(g)
			rows := matrix.NewZero(g.N, g.N)
			for src := 0; src < g.N; src++ {
				if err := e.SolveRowInto(src, rows.Row(src)); err != nil {
					t.Fatal(err)
				}
			}
			fw := fwRef(t, g)
			requireBitIdentical(t, rows, fw)
			requireBitIdentical(t, solveFull(t, g, 64), fw)
		})
	}
}

func TestDijkstraMatchesFloydWarshallSparseER(t *testing.T) {
	g := intER(t, 193, 8, 1)
	requireBitIdentical(t, solveFull(t, g, 32), fwRef(t, g))
}

func TestDijkstraMatchesFloydWarshallDenseER(t *testing.T) {
	g, err := graph.ErdosRenyiWeighted(96, 0.5, graph.IntegerWeights(50), 2)
	if err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, solveFull(t, g, 17), fwRef(t, g))
}

func TestDijkstraUnitWeights(t *testing.T) {
	g, err := graph.ErdosRenyiWeighted(150, 0.05, graph.UnitWeights(), 3)
	if err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, solveFull(t, g, 64), fwRef(t, g))
}

func TestDijkstraZeroWeightEdges(t *testing.T) {
	// A chain with zero-weight links plus shortcut edges: relaxations at
	// equal distance must not loop or mis-rank.
	edges := []graph.Edge{
		{U: 0, V: 1, W: 0}, {U: 1, V: 2, W: 0}, {U: 2, V: 3, W: 5},
		{U: 3, V: 4, W: 0}, {U: 0, V: 4, W: 5}, {U: 1, V: 3, W: 2},
		{U: 4, V: 5, W: 1}, {U: 5, V: 0, W: 0},
	}
	g, err := graph.FromEdges(6, edges)
	if err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, solveFull(t, g, 2), fwRef(t, g))
}

func TestDijkstraDisconnected(t *testing.T) {
	// Two components: cross-component distances must be exactly +Inf.
	edges := []graph.Edge{
		{U: 0, V: 1, W: 2}, {U: 1, V: 2, W: 3},
		{U: 3, V: 4, W: 1},
	}
	g, err := graph.FromEdges(6, edges) // vertex 5 fully isolated
	if err != nil {
		t.Fatal(err)
	}
	got := solveFull(t, g, 4)
	requireBitIdentical(t, got, fwRef(t, g))
	if got.At(0, 3) != matrix.Inf || got.At(5, 0) != matrix.Inf {
		t.Fatalf("cross-component distances not Inf: %v %v", got.At(0, 3), got.At(5, 0))
	}
	if got.At(5, 5) != 0 {
		t.Fatalf("isolated vertex self-distance = %v, want 0", got.At(5, 5))
	}
}

func TestDijkstraSingleNode(t *testing.T) {
	g, err := graph.FromEdges(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := solveFull(t, g, 1)
	if got.R != 1 || got.C != 1 || got.At(0, 0) != 0 {
		t.Fatalf("single-node solve = %+v, want 1x1 [0]", got)
	}
}

func TestDijkstraUniformWeightsWithinTolerance(t *testing.T) {
	// Uniform real weights: path sums associate differently in FW than in
	// Dijkstra, so equality is only up to rounding (the reason exact tests
	// above use integer weights).
	g, err := graph.ErdosRenyiPaper(128, 11)
	if err != nil {
		t.Fatal(err)
	}
	if !solveFull(t, g, 32).AllClose(fwRef(t, g), 1e-9) {
		t.Fatal("dij diverges from Floyd-Warshall beyond 1e-9")
	}
}

func TestSolvePanelsMatchesFullSolve(t *testing.T) {
	g := intER(t, 131, 6, 4)
	want := solveFull(t, g, 131)
	for _, panelRows := range []int{1, 32, 50, 131, 500} {
		s := newMemSink(g.N, panelRows)
		done, err := New(g).SolveTo(context.Background(), s, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if panels := (g.N + panelRows - 1) / panelRows; done != g.N || s.next != panels || s.ints != panels {
			t.Fatalf("panelRows=%d: wrote %d panels, %d of uint32 cells (done=%d), want %d and %d rows", panelRows, s.next, s.ints, done, panels, g.N)
		}
		requireBitIdentical(t, s.held(), want)
	}
}

func TestParallelWorkersBitIdentical(t *testing.T) {
	g := intER(t, 257, 8, 5)
	serial, _, err := New(g).Solve(context.Background(), 64, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, _, err := New(g).Solve(context.Background(), 64, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, par, serial)
}

func TestSolveRowIntoMatchesReferenceDijkstra(t *testing.T) {
	g := intER(t, 200, 5, 6)
	e := New(g)
	row := make([]float64, g.N)
	for _, src := range []int{0, 1, 99, 199} {
		if err := e.SolveRowInto(src, row); err != nil {
			t.Fatal(err)
		}
		want := seq.Dijkstra(g, src)
		for v := range row {
			if row[v] != want[v] {
				t.Fatalf("src %d: dist[%d] = %v, want %v", src, v, row[v], want[v])
			}
		}
	}
	if err := e.SolveRowInto(-1, row); err == nil {
		t.Fatal("negative source accepted")
	}
	if err := e.SolveRowInto(0, row[:10]); err == nil {
		t.Fatal("short row accepted")
	}
	for _, bad := range []int{0, -1} {
		if _, err := e.SolveTo(context.Background(), newMemSink(g.N, bad), Options{}); err == nil {
			t.Fatalf("panel height %d accepted", bad)
		}
	}
}

func TestCancellationReturnsPartialRows(t *testing.T) {
	g := intER(t, 120, 4, 7)
	e := New(g)
	ctx, cancel := context.WithCancel(context.Background())
	emitted := 0
	s := newMemSink(g.N, 16)
	s.write = func(int, func(r, v int) float64) error {
		emitted++
		if emitted == 2 {
			cancel()
		}
		return nil
	}
	done, err := e.SolveTo(ctx, s, Options{Workers: 1})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if done != 32 {
		t.Fatalf("done = %d, want 32 (two emitted panels)", done)
	}
}

func TestProgressReportsEveryPanel(t *testing.T) {
	g := intER(t, 70, 4, 8)
	var marks []int
	_, done, err := New(g).Solve(context.Background(), 32, Options{
		Progress: func(rowsDone, rowsTotal int) {
			if rowsTotal != 70 {
				t.Fatalf("rowsTotal = %d, want 70", rowsTotal)
			}
			marks = append(marks, rowsDone)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if done != 70 || len(marks) != 3 || marks[0] != 32 || marks[1] != 64 || marks[2] != 70 {
		t.Fatalf("progress marks = %v (done=%d), want [32 64 70]", marks, done)
	}
}

// TestSolvePanelsPoolSafety runs streaming solves under the arena's
// checker: their two panels are the call's own allocations and the
// per-worker scratch is the engine's, so neither cell type — real weights,
// integer weights — takes a block from the arena or returns one to it (an
// arena block would stay pooled after the solve, and could be returned
// twice).
func TestSolvePanelsPoolSafety(t *testing.T) {
	matrix.SetPoolCheck(true)
	defer matrix.SetPoolCheck(false)
	for _, g := range []*graph.Graph{realER(t, 150, 6, 10), intER(t, 150, 6, 10)} {
		if _, err := New(g).SolveTo(context.Background(), newMemSink(g.N, 32), Options{Workers: 2}); err != nil {
			t.Fatal(err)
		}
	}
	if st := matrix.PoolCheckStats(); st.Gets != 0 || st.Puts != 0 || st.DoublePuts != 0 {
		t.Fatalf("arena traffic %+v, want none", st)
	}
}

func TestEpochWrapClearsStaleState(t *testing.T) {
	g := intER(t, 40, 4, 11)
	e := New(g)
	sc := e.scratch.get().(*state)
	sc.epoch = ^uint32(0) - 1 // two sources from wrapping
	e.scratch.put(sc)
	want := fwRef(t, g)
	row := make([]float64, g.N)
	for src := 0; src < 4; src++ { // crosses the wrap boundary
		if err := e.SolveRowInto(src, row); err != nil {
			t.Fatal(err)
		}
		for v := range row {
			if row[v] != want.At(src, v) {
				t.Fatalf("after epoch wrap: dist[%d][%d] = %v, want %v", src, v, row[v], want.At(src, v))
			}
		}
	}
}
