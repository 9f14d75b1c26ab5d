package apspark

import (
	"context"
	"errors"
	"path/filepath"
	"testing"

	"apspark/internal/fsx"
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
