package difftest

import (
	"bytes"
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"apspark"
	"apspark/internal/graph"
	"apspark/internal/matrix"
	"apspark/internal/mpi"
	"apspark/internal/mpibench"
	"apspark/internal/obs"
	"apspark/internal/seq"
	"apspark/internal/serve"
	"apspark/internal/sparse"
	"apspark/internal/store"
)

// An output is what a producer leaves for the consumers: a distance
// source, the store file behind it if it wrote one, and where f32 tiles
// rounded distances, the worst relative error recorded for the tile of
// each cell.
type output struct {
	src   serve.Source
	path  string
	lossy func(i, j int) float64
}

// A producer is one way of computing distances.
type producer struct {
	name string
	// rounds marks producers that sum paths in their own order; on real
	// weights they are held to entry.bound, every other one is exact.
	rounds bool
	// maxN skips larger corpus graphs (0: none).
	maxN int
	run  func(t *testing.T, g *graph.Graph, b int) output
}

var producers = []producer{
	{"rs", true, 160, sessionSolve(apspark.SolverRS)},
	{"fw2d", true, 160, sessionSolve(apspark.SolverFW2D)},
	{"im", true, 320, sessionSolve(apspark.SolverIM)},
	{"cb", true, 320, sessionSolve(apspark.SolverCB)},
	{"mpibench.FW2D", true, 160, mpiRun(mpibench.FW2D)},
	{"mpibench.DC", true, 320, mpiRun(mpibench.DC)},
	{"seq.FloydWarshall", true, 320, matrixOf(func(g *graph.Graph, _ int) (*matrix.Block, error) { return seq.FloydWarshall(g) })},
	{"seq.BlockedFloydWarshall", true, 320, matrixOf(seq.BlockedFloydWarshall)},
	{"dij Session.Solve", false, 0, sessionSolve(apspark.SolverDijkstra)},
	{"dij Engine.SolveRowInto", false, 0, matrixOf(func(g *graph.Graph, _ int) (*matrix.Block, error) {
		m, e := matrix.New(g.N, g.N), sparse.New(g)
		for i := range g.N {
			if err := e.SolveRowInto(i, m.Row(i)); err != nil {
				return nil, err
			}
		}
		return m, nil
	})},
	{"dij Engine.Solve", false, 0, matrixOf(enginePanels)},
	{"dij SolveToStore raw", false, 0, solveToStore("raw")},
	{"dij SolveToStore ivarint", false, 0, solveToStore("ivarint")},
	{"dij SolveToStore f32", false, 0, solveToStore("f32")},
	{"cb WriteStoreWithCodec raw", true, 320, writeStore("raw")},
	{"cb WriteStoreWithCodec ivarint", true, 320, writeStore("ivarint")},
	{"cb WriteStoreWithCodec f32", true, 320, writeStore("f32")},
	{"generation after 2 delta batches", false, 0, generationAfterDeltas},
	{"rows source", false, 0, rowsSource},
}

// session is a virtual cluster of 32 cores: big enough for every solver,
// small enough to schedule quickly.
func session(t *testing.T) *apspark.Session {
	t.Helper()
	s, err := apspark.New(apspark.WithClusterCores(32))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func matrixSource(t *testing.T, m *matrix.Block) output {
	t.Helper()
	src, err := serve.NewMatrixSource(m)
	if err != nil {
		t.Fatal(err)
	}
	return output{src: src}
}

func matrixOf(solve func(g *graph.Graph, b int) (*matrix.Block, error)) func(*testing.T, *graph.Graph, int) output {
	return func(t *testing.T, g *graph.Graph, b int) output {
		m, err := solve(g, b)
		if err != nil {
			t.Fatal(err)
		}
		return matrixSource(t, m)
	}
}

// mpiRun runs an MPI baseline for real, on a square rank grid whose side
// (4, 3 or 2) divides n, or on one rank where none does.
func mpiRun(run func(n, p int, dense *matrix.Block, cfg mpi.Config, rates mpibench.Rates) (*mpibench.Result, error)) func(*testing.T, *graph.Graph, int) output {
	return matrixOf(func(g *graph.Graph, _ int) (*matrix.Block, error) {
		p := 1
		for _, q := range []int{4, 3, 2} {
			if g.N%q == 0 {
				p = q * q
				break
			}
		}
		res, err := run(g.N, p, g.Dense(), mpi.GbE(), mpibench.PaperRates())
		if err != nil {
			return nil, err
		}
		return res.Dist, nil
	})
}

// sessionSolve solves with solver k through Session.Solve.
func sessionSolve(k apspark.SolverKind) func(*testing.T, *graph.Graph, int) output {
	return func(t *testing.T, g *graph.Graph, b int) output {
		res, err := session(t).Solve(ctx, g, apspark.WithSolver(k), apspark.WithBlockSize(b))
		if err != nil {
			t.Fatal(err)
		}
		return matrixSource(t, res.Dist)
	}
}

// openStore opens the store at path with both caches, the row cache
// only when rows is set (without it Dist reads through the tile path).
func openStore(t *testing.T, path string, rows bool) *store.Store {
	t.Helper()
	opts := store.Options{TileCacheBytes: 1 << 20}
	if rows {
		opts.RowCacheBytes = 1 << 20
	}
	st, err := store.OpenWithOptions(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// stored opens the store a producer wrote at path, with the relative
// error each f32 tile recorded.
func stored(t *testing.T, path string) output {
	t.Helper()
	st := openStore(t, path, true)
	b, q := st.BlockSize(), st.TilesPerSide()
	rel, out := make([]float64, q*q), output{src: st, path: path}
	for bi := range q {
		raw, metas, err := st.ReadPanelRaw(bi, nil)
		if err != nil {
			t.Fatal(err)
		}
		for bj, m := range metas {
			rel[bi*q+bj] = store.TileMaxRelErr(m.Codec, raw[:m.Length])
			raw = raw[m.Length:]
		}
	}
	if slices.Max(rel) > 0 {
		out.lossy = func(i, j int) float64 { return rel[i/b*q+j/b] }
	}
	return out
}

func solveToStore(codec string) func(*testing.T, *graph.Graph, int) output {
	return func(t *testing.T, g *graph.Graph, b int) output {
		path := filepath.Join(t.TempDir(), "dist.apsp")
		_, err := session(t).SolveToStore(ctx, g, path,
			apspark.WithSolver(apspark.SolverDijkstra), apspark.WithBlockSize(b), apspark.WithCodec(codec))
		if err != nil {
			t.Fatal(err)
		}
		return stored(t, path)
	}
}

func writeStore(codec string) func(*testing.T, *graph.Graph, int) output {
	return func(t *testing.T, g *graph.Graph, b int) output {
		res, err := session(t).Solve(ctx, g, apspark.WithSolver(apspark.SolverCB), apspark.WithBlockSize(b))
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "dist.apsp")
		if err := res.WriteStoreWithCodec(path, b, codec); err != nil {
			t.Fatal(err)
		}
		return stored(t, path)
	}
}

// generationAfterDeltas imports an ivarint store of g as a generation,
// then applies two delta batches: the first lowers or adds edge
// (0, n-1) and removes another edge, the second puts both back. The
// generation it ends on is rebuilt, dirty panels solved and clean ones
// supplied from its parent, for g itself.
func generationAfterDeltas(t *testing.T, g *graph.Graph, b int) output {
	if g.N < 2 {
		t.Skip("a delta needs two vertices")
	}
	ctx, s, dir := ctx, session(t), t.TempDir()
	seed := filepath.Join(dir, "seed.apsp")
	if _, err := s.SolveToStore(ctx, g, seed, apspark.WithSolver(apspark.SolverDijkstra),
		apspark.WithBlockSize(b), apspark.WithCodec("ivarint")); err != nil {
		t.Fatal(err)
	}
	gens := filepath.Join(dir, "gens")
	if _, err := apspark.InitGenerations(gens, seed, g); err != nil {
		t.Fatal(err)
	}
	last := g.N - 1
	change, undo := []apspark.EdgeDelta{{U: 0, V: last, W: 1}}, []apspark.EdgeDelta{{U: 0, V: last, Remove: true}}
	for _, e := range g.Edges() {
		if e.U == 0 && e.V == last {
			change[0].W, undo[0] = e.W/2, apspark.EdgeDelta{U: 0, V: last, W: e.W}
		} else if len(change) == 1 {
			change = append(change, apspark.EdgeDelta{U: e.U, V: e.V, Remove: true})
			undo = append(undo, apspark.EdgeDelta{U: e.U, V: e.V, W: e.W})
		}
	}
	var up *apspark.UpdateResult
	for _, batch := range [][]apspark.EdgeDelta{change, undo} {
		var err error
		if up, err = s.ApplyDeltas(ctx, gens, batch); err != nil {
			t.Fatal(err)
		}
	}
	return stored(t, filepath.Join(gens, up.Generation, "dist.apsp"))
}

// rowsSource serves g with no store: rows solved on demand, 4 of them
// cached, so a Dist reads a cached row or solves to its target.
func rowsSource(t *testing.T, g *graph.Graph, _ int) output {
	src, err := serve.NewRowsSource(g, 4*8*int64(g.N))
	if err != nil {
		t.Fatal(err)
	}
	return output{src: src}
}

// reached records the panel kernels the engines of enginePanels ended on
// or fell back to, over every graph they solved.
var reached = struct {
	sync.Mutex
	kernels map[string]int
	graphs  map[*graph.Graph]bool
}{kernels: map[string]int{}, graphs: map[*graph.Graph]bool{}}

// enginePanels solves g in panels of b rows on an engine of its own,
// holds it to reporting every row solved, and records where the engine's
// panel kernel went: "batch32" if it stayed there, "batch16" after a
// range fallback, "row" after a budget one, read from PanelKernel and the
// engine's fallback counters.
func enginePanels(g *graph.Graph, b int) (*matrix.Block, error) {
	e := sparse.New(g)
	m, done, err := e.Solve(ctx, b, sparse.Options{Workers: 2})
	if err != nil {
		return nil, err
	}
	if done != g.N {
		return nil, fmt.Errorf("Solve reports %d of %d rows solved", done, g.N)
	}
	reg := obs.NewRegistry()
	e.RegisterMetrics(reg)
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		return nil, err
	}
	reached.Lock()
	defer reached.Unlock()
	reached.graphs[g] = true
	reached.kernels[e.PanelKernel()+" at the end"]++
	for kernel, reason := range map[string]string{"batch16": "range", "row": "budget"} {
		if strings.Contains(buf.String(), fmt.Sprintf("apsp_sparse_batch_fallbacks_total{reason=%q} 1", reason)) {
			reached.kernels[kernel+" after a "+reason+" fallback"]++
		}
	}
	return m, nil
}
