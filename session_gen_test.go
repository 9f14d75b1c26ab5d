package apspark

import (
	"context"
	"errors"
	"maps"
	"path/filepath"
	"testing"

	"apspark/internal/fsx"
	"apspark/internal/graph"
)

// TestGenerationLifecycle drives the live-update library surface end to
// end: publish a solved store, apply a delta batch, list the generations
// and roll back. A directory lock held elsewhere surfaces as
// ErrGenerationBusy, and a store that does not solve its graph is caught
// by the validation gate as ErrGenerationValidation.
func TestGenerationLifecycle(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	s, err := New(WithSolver(SolverDijkstra))
	if err != nil {
		t.Fatal(err)
	}
	solve := func(g *Graph, name string) string {
		path := filepath.Join(dir, name)
		if _, err := s.SolveToStore(ctx, g, path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	// 0-2 is 10 through vertex 1; the delta makes it a direct 1.
	g, err := NewGraph(3, []Edge{{U: 0, V: 1, W: 5}, {U: 1, V: 2, W: 5}, {U: 0, V: 2, W: 100}})
	if err != nil {
		t.Fatal(err)
	}
	gens := filepath.Join(dir, "gens")
	first, err := InitGenerations(gens, solve(g, "dist.apsp"), g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := InitGenerations(gens, filepath.Join(dir, "dist.apsp"), g); err == nil {
		t.Fatal("InitGenerations imported over an existing generation")
	}
	up, err := s.ApplyDeltas(ctx, gens, []EdgeDelta{{U: 0, V: 2, W: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if up.Parent != first || up.Generation == first || up.Deltas != 1 {
		t.Fatalf("unexpected update: %+v", up)
	}
	st, err := OpenStore(filepath.Join(gens, up.Generation, "dist.apsp"), 0)
	if err != nil {
		t.Fatal(err)
	}
	d, err := st.Dist(ctx, 0, 2)
	st.Close()
	if err != nil || d != 1 {
		t.Fatalf("updated generation: dist(0,2) = %v, %v; want 1", d, err)
	}
	list, err := Generations(gens)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 || list[0].ID != first || list[1].ID != up.Generation || !list[1].Current {
		t.Fatalf("generations after one update: %+v", list)
	}
	back, err := RollbackGeneration(gens)
	if err != nil || back != first {
		t.Fatalf("rollback = %q, %v; want %q", back, err, first)
	}

	lock, err := fsx.LockDir(gens)
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.ApplyDeltas(ctx, gens, []EdgeDelta{{U: 0, V: 1, W: 2}})
	lock.Unlock()
	if !errors.Is(err, ErrGenerationBusy) {
		t.Fatalf("update under a held lock: %v, want ErrGenerationBusy", err)
	}

	// Every pair of the complete graph is 1 apart, so the store says no
	// row of g depends on the edge the delta lowers: nothing is rebuilt,
	// and the gate's from-scratch rows disagree with the copied ones.
	k3, err := NewGraph(3, []Edge{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}, {U: 0, V: 2, W: 1}})
	if err != nil {
		t.Fatal(err)
	}
	wrong := filepath.Join(dir, "wrong")
	if _, err := InitGenerations(wrong, solve(k3, "k3.apsp"), g); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ApplyDeltas(ctx, wrong, []EdgeDelta{{U: 0, V: 1, W: 4}}); !errors.Is(err, ErrGenerationValidation) {
		t.Fatalf("update over a store that does not solve its graph: %v, want ErrGenerationValidation", err)
	}
}

// TestGenerationRebuildMatchesFreshSolve: a generation built from a delta
// batch — dirty panels re-solved, clean ones copied from the parent — is
// byte-identical to a from-scratch SolveToStore of the new graph, raw,
// ivarint and f32. The graph is two components, so the batch leaves half
// its panels clean. On integer weights the dirty panels are solved and
// written as uint32 cells, on real weights as float64 rows; an f32 store
// of real distances passes the update's differential validation, which
// accepts its tiles' float32 rounding.
func TestGenerationRebuildMatchesFreshSolve(t *testing.T) {
	rebuildMatchesFreshSolve(t, graph.IntegerWeights(100), "raw", "ivarint", "f32")
	rebuildMatchesFreshSolve(t, graph.UniformWeights(100), "raw", "ivarint", "f32")
}

func rebuildMatchesFreshSolve(t *testing.T, weightFn graph.WeightFn, codecs ...string) {
	ctx := context.Background()
	s, err := New(WithSolver(SolverDijkstra))
	if err != nil {
		t.Fatal(err)
	}
	const half, b = 48, 16
	weights := map[[2]int]float64{}
	for i, seed := range []int64{61, 62} {
		part, err := graph.ErdosRenyiConnected(half, graph.AvgDegreeProb(half, 4), weightFn, seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range part.Edges() {
			weights[[2]int{e.U + i*half, e.V + i*half}] = e.W
		}
	}
	deltas := []EdgeDelta{{U: 0, V: 40, W: 1}, {U: 5, V: 9, W: 2}}
	graphWith := func(deltas []EdgeDelta) *Graph {
		w := maps.Clone(weights)
		for _, d := range deltas {
			w[[2]int{d.U, d.V}] = d.W
		}
		edges := make([]Edge, 0, len(w))
		for k, wt := range w {
			edges = append(edges, Edge{U: k[0], V: k[1], W: wt})
		}
		g, err := NewGraph(2*half, edges)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	g, next := graphWith(nil), graphWith(deltas)
	for _, codec := range codecs {
		dir := t.TempDir()
		seed, fresh := filepath.Join(dir, "seed.apsp"), filepath.Join(dir, "fresh.apsp")
		if _, err := s.SolveToStore(ctx, g, seed, WithBlockSize(b), WithCodec(codec)); err != nil {
			t.Fatal(err)
		}
		gens := filepath.Join(dir, "gens")
		if _, err := InitGenerations(gens, seed, g); err != nil {
			t.Fatal(err)
		}
		up, err := s.ApplyDeltas(ctx, gens, deltas)
		if err != nil {
			t.Fatal(err)
		}
		if up.DirtyPanels == 0 || up.DirtyPanels == up.TotalPanels {
			t.Fatalf("%s: %d of %d panels dirty, want some but not all", codec, up.DirtyPanels, up.TotalPanels)
		}
		if _, err := s.SolveToStore(ctx, next, fresh, WithBlockSize(b), WithCodec(codec)); err != nil {
			t.Fatal(err)
		}
		requireSameFile(t, codec, filepath.Join(gens, up.Generation, "dist.apsp"), fresh)
	}
}
