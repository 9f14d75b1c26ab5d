package apspark

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"apspark/internal/graph"
	"apspark/internal/matrix"
	"apspark/internal/sparse"
)

// hostTestGraph is a connected sparse ER graph with integer weights:
// integer path sums are exact in float64, so the Dijkstra fast path must
// agree with the dense solvers bit for bit.
func hostTestGraph(t *testing.T, n int, deg float64, seed int64) *Graph {
	t.Helper()
	g, err := graph.ErdosRenyiConnected(n, graph.AvgDegreeProb(n, deg), graph.IntegerWeights(100), seed)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestHostSolverMatchesClusterSolvers pins the sparse fast path against
// both references: the sequential Floyd-Warshall ground truth and a full
// virtual-cluster Blocked-CB solve, exactly (0 tolerance).
func TestHostSolverMatchesClusterSolvers(t *testing.T) {
	g := hostTestGraph(t, 160, 6, 21)
	s, err := New(WithClusterCores(64), WithSolver(SolverDijkstra))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Solve(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if res.Dist == nil {
		t.Fatal("host solve returned no matrix")
	}
	if res.Solver != "CSR Dijkstra (host)" || res.UnitsRun != g.N || res.UnitsTotal != g.N {
		t.Fatalf("unexpected result header: %+v", res)
	}
	if res.VirtualSeconds != 0 {
		t.Fatalf("host solve charged %v virtual seconds", res.VirtualSeconds)
	}
	want := mustFW(t, g)
	if !res.Dist.Equal(want) {
		t.Fatal("dij diverges from sequential Floyd-Warshall")
	}
	cb, err := s.Solve(context.Background(), g, WithSolver(SolverCB))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Dist.Equal(cb.Dist) {
		t.Fatal("dij diverges from Blocked-CB")
	}
}

func TestHostSolverVerifyOption(t *testing.T) {
	g := hostTestGraph(t, 80, 4, 22)
	s, err := New(WithSolver(SolverDijkstra))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Solve(context.Background(), g, WithVerify(true)); err != nil {
		t.Fatal(err)
	}
}

// TestSolveToStoreStreamingByteIdentical pins the facade contract the
// differential satellite asks for: the file a streamed host solve writes
// is byte-identical to Result.WriteStore of the same solve's matrix at
// the same tile size.
func TestSolveToStoreStreamingByteIdentical(t *testing.T) {
	g := hostTestGraph(t, 130, 5, 23)
	dir := t.TempDir()
	s, err := New(WithSolver(SolverDijkstra))
	if err != nil {
		t.Fatal(err)
	}
	streamed := filepath.Join(dir, "streamed.apsp")
	res, err := s.SolveToStore(context.Background(), g, streamed, WithBlockSize(32))
	if err != nil {
		t.Fatal(err)
	}
	if res.Dist != nil {
		t.Fatal("streamed solve materialized the matrix")
	}
	if res.UnitsRun != g.N || res.BlockSize != 32 {
		t.Fatalf("unexpected streamed result: %+v", res)
	}
	mem, err := s.Solve(context.Background(), g, WithBlockSize(32))
	if err != nil {
		t.Fatal(err)
	}
	ref := filepath.Join(dir, "ref.apsp")
	if err := mem.WriteStore(ref, 32); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(streamed)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(ref)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("streamed store differs from WriteStore output (%d vs %d bytes)", len(got), len(want))
	}
	// And the streamed store serves the right distances.
	st, err := OpenStore(streamed, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for _, pair := range [][2]int{{0, 1}, {5, 77}, {129, 0}} {
		d, err := st.Dist(context.Background(), pair[0], pair[1])
		if err != nil {
			t.Fatal(err)
		}
		if d != mem.Dist.At(pair[0], pair[1]) {
			t.Fatalf("store dist(%d,%d) = %v, want %v", pair[0], pair[1], d, mem.Dist.At(pair[0], pair[1]))
		}
	}
}

// TestSolveToStoreClusterFallback: virtual-cluster solvers still work
// through SolveToStore (solve in memory, then write).
func TestSolveToStoreClusterFallback(t *testing.T) {
	g := hostTestGraph(t, 96, 5, 24)
	s, err := New(WithClusterCores(64))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cb.apsp")
	// The cluster fallback materializes the matrix, so WithVerify is
	// honored (only streamed host solves reject it).
	res, err := s.SolveToStore(context.Background(), g, path, WithSolver(SolverCB), WithVerify(true))
	if err != nil {
		t.Fatal(err)
	}
	if res.Dist == nil {
		t.Fatal("cluster fallback dropped the matrix")
	}
	st, err := OpenStore(path, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	d, err := st.Dist(context.Background(), 0, 50)
	if err != nil {
		t.Fatal(err)
	}
	if d != res.Dist.At(0, 50) {
		t.Fatalf("store dist = %v, want %v", d, res.Dist.At(0, 50))
	}
}

func TestHostSolverRejectsUnsupportedModes(t *testing.T) {
	g := hostTestGraph(t, 40, 4, 25)
	s, err := New(WithSolver(SolverDijkstra))
	if err != nil {
		t.Fatal(err)
	}
	// Which options a dij job takes is pinned by TestJobOptionMatrix.
	ctx := context.Background()
	if _, err := s.Project(ctx, 1024); err == nil {
		t.Fatal("host solver accepted a phantom projection")
	}
	if _, err := s.SolveToStore(ctx, nil, "x.apsp"); err == nil {
		t.Fatal("nil graph accepted")
	}
	if _, err := s.SolveToStore(ctx, g, ""); err == nil {
		t.Fatal("empty path accepted")
	}
}

func TestHostSolverProgressAndCancellation(t *testing.T) {
	g := hostTestGraph(t, 200, 4, 26)
	var events []StageEvent
	s, err := New(WithSolver(SolverDijkstra), WithProgress(func(ev StageEvent) {
		events = append(events, ev)
	}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Solve(context.Background(), g, WithBlockSize(64)); err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 || !events[len(events)-1].Done {
		t.Fatalf("progress stream missing final done event: %d events", len(events))
	}
	units := 0
	for _, ev := range events {
		if ev.Name == "unit" {
			units++
		}
	}
	if units != 4 { // ceil(200/64) panels
		t.Fatalf("got %d unit events, want 4", units)
	}

	ctx, cancel := context.WithCancel(context.Background())
	rows := 0
	s2, err := New(WithSolver(SolverDijkstra), WithProgress(func(ev StageEvent) {
		if ev.Name == "unit" {
			rows = ev.UnitsDone
			cancel()
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s2.Solve(ctx, g, WithBlockSize(32))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil || res.Dist != nil || res.UnitsRun != rows || res.UnitsRun >= g.N {
		t.Fatalf("unexpected partial result %+v (rows=%d)", res, rows)
	}
	// A cancelled streamed solve must leave nothing at the target path.
	path := filepath.Join(t.TempDir(), "cancelled.apsp")
	ctx2, cancel2 := context.WithCancel(context.Background())
	s3, err := New(WithSolver(SolverDijkstra), WithProgress(func(ev StageEvent) {
		if ev.Name == "unit" {
			cancel2()
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s3.SolveToStore(ctx2, g, path, WithBlockSize(32)); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("cancelled streamed solve left a store at %s", path)
	}
}

// requireSameFile fails unless the files at got and want hold the same
// bytes.
func requireSameFile(t *testing.T, what, got, want string) {
	t.Helper()
	a, err := os.ReadFile(got)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("%s: %s differs from %s (%d vs %d bytes)", what, got, want, len(a), len(b))
	}
}

// radixStore writes g's store from radix rows alone — one Dijkstra per
// source, so no batch and no seed — through Result.WriteStoreWithCodec:
// the file a seeded solve must write byte for byte.
func radixStore(t *testing.T, g *Graph, path string, b int, codec string) {
	t.Helper()
	eng, m := sparse.New(g), matrix.NewZero(g.N, g.N)
	for src := 0; src < g.N; src++ {
		if err := eng.SolveRowInto(src, m.Row(src)); err != nil {
			t.Fatal(err)
		}
	}
	if err := (&Result{Dist: m}).WriteStoreWithCodec(path, b, codec); err != nil {
		t.Fatal(err)
	}
}

// TestIntegerPanelsMatchFloatPanels: on integer weights SolveToStore
// streams uint32 panels into the store, each batched one seeded from the
// tiles above it read back from the file and written with those tiles as
// its lower half, and Solve seeds its float panels from its own rows; both
// files must be the one unseeded radix rows write for the same distances,
// byte for byte, for every codec: on ER and planted graphs, no-path cells,
// the chain whose 75,000 outgrows 16-bit lanes, a shuffled path whose
// first batch overruns its budget (the rest are radix rows), n not a
// multiple of b and n < b. So must, on each of them, a streamed solve
// cancelled after its first panel, resumed and cancelled again after its
// third, then resumed to the end — each resumed run seeding its first
// panel from tiles an earlier run wrote — and a generation rebuild of the
// graph with one weight changed, which copies its clean panels through
// Supply and seeds its dirty ones from them.
func TestIntegerPanelsMatchFloatPanels(t *testing.T) {
	ctx := context.Background()
	s, err := New(WithSolver(SolverDijkstra))
	if err != nil {
		t.Fatal(err)
	}
	mustGraph := func(n int, edges []Edge) *Graph {
		t.Helper()
		g, err := NewGraph(n, edges)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	// path joins label(0), label(1), ..., label(n-1) by edges of weight w.
	path := func(n int, w float64, label func(int) int) []Edge {
		edges := make([]Edge, n-1)
		for i := range edges {
			edges[i] = Edge{U: label(i), V: label(i + 1), W: w}
		}
		return edges
	}
	inOrder := func(i int) int { return i }
	shuffled := rand.New(rand.NewSource(2)).Perm(1024)
	planted, err := graph.PlantedPartitionConnected(512, 8, 0.06, 0.001, graph.IntegerWeights(100), 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		g    *Graph
		b    int
	}{
		{"ER", hostTestGraph(t, 300, 6, 31), 64},
		{"planted", planted, 128},
		{"disconnected + isolated", mustGraph(40, append(path(17, 3, inOrder), Edge{U: 20, V: 39, W: 255})), 16},
		{"75,000 chain", mustGraph(301, path(301, 250, inOrder)), 64},
		{"shuffled path", mustGraph(1024, path(1024, 7, func(i int) int { return shuffled[i] })), 256},
		{"n not a multiple of b", hostTestGraph(t, 131, 5, 32), 32},
		{"n < b", hostTestGraph(t, 40, 4, 33), 64},
	} {
		for _, e := range tc.g.Edges() {
			if e.W < 0 || e.W > 255 || e.W != math.Trunc(e.W) {
				t.Fatalf("%s: weight %v leaves no uint32 panels", tc.name, e.W)
			}
		}
		mem, err := s.Solve(ctx, tc.g, WithBlockSize(tc.b))
		if err != nil {
			t.Fatal(err)
		}
		for _, codec := range []string{"raw", "ivarint", "f32"} {
			dir := t.TempDir()
			refPath, floatPath, intPath := filepath.Join(dir, "ref.apsp"), filepath.Join(dir, "float.apsp"), filepath.Join(dir, "int.apsp")
			radixStore(t, tc.g, refPath, tc.b, codec)
			if err := mem.WriteStoreWithCodec(floatPath, tc.b, codec); err != nil {
				t.Fatal(err)
			}
			if _, err := s.SolveToStore(ctx, tc.g, intPath, WithBlockSize(tc.b), WithCodec(codec)); err != nil {
				t.Fatal(err)
			}
			requireSameFile(t, tc.name+", "+codec+", streamed", intPath, refPath)
			requireSameFile(t, tc.name+", "+codec+", in memory", floatPath, refPath)

			resumedPath := filepath.Join(dir, "resumed.apsp")
			q := (tc.g.N + tc.b - 1) / tc.b
			for run, stop := range []struct{ after, skipped int }{{1, 0}, {2, tc.b}, {0, 3 * tc.b}} {
				if run > 0 && stop.skipped >= tc.g.N {
					break // the solve has ended already
				}
				cctx, cancel := context.WithCancel(ctx)
				panels := 0
				res, err := s.SolveToStore(cctx, tc.g, resumedPath, WithBlockSize(tc.b), WithCodec(codec), WithResume(run > 0), WithProgress(func(ev StageEvent) {
					if ev.Name == "unit" {
						if panels++; panels == stop.after {
							cancel()
						}
					}
				}))
				cancel()
				// A cancel after the last panel's write comes too late to stop it.
				last := stop.after == 0 || stop.skipped/tc.b+stop.after >= q
				if !last && !errors.Is(err, context.Canceled) || last && err != nil {
					t.Fatalf("%s, %s: run %d: err = %v", tc.name, codec, run, err)
				}
				if res == nil || res.UnitsSkipped != stop.skipped {
					t.Fatalf("%s, %s: run %d skipped %d rows, want %d", tc.name, codec, run, res.UnitsSkipped, stop.skipped)
				}
				if last {
					break
				}
			}
			requireSameFile(t, tc.name+", "+codec+", resumed twice", resumedPath, refPath)

			gens, nextRef := filepath.Join(dir, "gens"), filepath.Join(dir, "next.apsp")
			if _, err := InitGenerations(gens, refPath, tc.g); err != nil {
				t.Fatal(err)
			}
			edges := tc.g.Edges()
			d := EdgeDelta{U: edges[len(edges)/2].U, V: edges[len(edges)/2].V, W: edges[len(edges)/2].W - 1}
			if d.W < 1 {
				d.W += 2
			}
			edges[len(edges)/2].W = d.W
			radixStore(t, mustGraph(tc.g.N, edges), nextRef, tc.b, codec)
			up, err := s.ApplyDeltas(ctx, gens, []EdgeDelta{d})
			if err != nil {
				t.Fatal(err)
			}
			requireSameFile(t, tc.name+", "+codec+", rebuilt", filepath.Join(gens, up.Generation, "dist.apsp"), nextRef)
		}
	}
}
