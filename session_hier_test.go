package apspark

import (
	"context"
	"path/filepath"
	"strings"
	"testing"
)

// TestBuildHierarchyMatchesFlatSolve pins the facade contract: the
// oracle a hierarchy build returns answers every pair bit-identically to
// the dense reference on integer weights, with the WithVerify
// cross-check also passing.
func TestBuildHierarchyMatchesFlatSolve(t *testing.T) {
	g := hostTestGraph(t, 240, 6, 31)
	s, err := New()
	if err != nil {
		t.Fatal(err)
	}
	o, err := s.BuildHierarchy(context.Background(), g,
		WithPartSize(40), WithPartSeed(7), WithVerify(true))
	if err != nil {
		t.Fatal(err)
	}
	want := mustFW(t, g)
	for u := 0; u < g.N; u += 17 {
		for v := 0; v < g.N; v += 13 {
			d, err := o.Dist(context.Background(), u, v)
			if err != nil {
				t.Fatal(err)
			}
			if d != want.At(u, v) {
				t.Fatalf("Dist(%d,%d) = %v, want %v", u, v, d, want.At(u, v))
			}
		}
	}
	if st := o.Stats(); st.Parts < 2 || st.BoundaryVerts == 0 {
		t.Fatalf("degenerate build stats: %+v", st)
	}
}

func TestBuildHierarchyProgressAndPersistence(t *testing.T) {
	g := hostTestGraph(t, 160, 5, 32)
	s, err := New(WithPartSize(32))
	if err != nil {
		t.Fatal(err)
	}
	var units, done int
	o, err := s.BuildHierarchy(context.Background(), g, WithProgress(func(ev StageEvent) {
		if ev.Done {
			done++
		} else if ev.Name == "unit" {
			units++
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	if units != o.Stats().Parts || done != 1 {
		t.Fatalf("progress saw %d units (want %d) and %d done events", units, o.Stats().Parts, done)
	}
	path := filepath.Join(t.TempDir(), "g.hier")
	if err := o.Save(path); err != nil {
		t.Fatal(err)
	}
	ld, err := OpenHierarchy(path, g, 0)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < g.N; u += 11 {
		a, err := o.Dist(context.Background(), u, g.N-1-u)
		if err != nil {
			t.Fatal(err)
		}
		b, err := ld.Dist(context.Background(), u, g.N-1-u)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("loaded oracle diverges at %d: %v vs %v", u, a, b)
		}
	}
}

func TestBuildHierarchyRejectsClusterKnobs(t *testing.T) {
	g := hostTestGraph(t, 40, 4, 33)
	s, err := New()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := s.BuildHierarchy(ctx, nil); err == nil {
		t.Error("BuildHierarchy accepted a nil graph")
	}
	// Which options a build takes is pinned by TestJobOptionMatrix; a flat
	// solve refusing a hierarchy knob points at the entry point that takes
	// it.
	if _, err := s.Solve(ctx, g, WithPartSize(16)); err == nil || !strings.Contains(err.Error(), "BuildHierarchy") {
		t.Errorf("cluster solve accepted WithPartSize: %v", err)
	}
	if _, err := s.Solve(ctx, g, WithSolver(SolverDijkstra), WithPartSeed(4)); err == nil || !strings.Contains(err.Error(), "BuildHierarchy") {
		t.Errorf("host solve accepted WithPartSeed: %v", err)
	}
}
