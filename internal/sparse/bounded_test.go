package sparse

import (
	"testing"

	"apspark/internal/graph"
	"apspark/internal/matrix"
)

func requireRowsEqual(t *testing.T, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("row length %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("dist[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

// A target-stopped solve reads the cell the full row holds, at every
// target, near or far.
func TestBoundedZeroValueMatchesUnbounded(t *testing.T) {
	g := intER(t, 211, 6, 11)
	e := New(g)
	full := make([]float64, g.N)
	for src := 0; src < g.N; src += 17 {
		if err := e.SolveRowInto(src, full); err != nil {
			t.Fatal(err)
		}
		for dst := range g.N {
			d, err := e.SolveDist(src, dst)
			if err != nil {
				t.Fatal(err)
			}
			if d != full[dst] {
				t.Fatalf("SolveDist(%d,%d) = %v, row says %v", src, dst, d, full[dst])
			}
		}
	}
}

func TestBoundedTargetsEarlyExit(t *testing.T) {
	g := intER(t, 300, 6, 21)
	e := New(g)
	full := make([]float64, g.N)
	if err := e.SolveRowInto(0, full); err != nil {
		t.Fatal(err)
	}
	for _, tg := range []int{5, 250, 123, 0} {
		before := e.settled.Load()
		d, err := e.SolveDist(0, tg)
		if err != nil {
			t.Fatal(err)
		}
		if settled := e.settled.Load() - before; settled == int64(g.N) {
			t.Fatalf("target %d: early exit still settled all %d vertices", tg, g.N)
		}
		if d != full[tg] {
			t.Fatalf("target %d settled at %v, want %v", tg, d, full[tg])
		}
	}
	if d, _ := e.SolveDist(7, 7); d != 0 {
		t.Fatalf("d(7,7) = %v, want 0", d)
	}
}

func TestBoundedUnreachableTargetExhaustsHeap(t *testing.T) {
	// Two 3-vertex path components: a target on the far island can never
	// settle, so the solve must end by exhaustion, settling only the
	// source's component, and report no path.
	edges := []graph.Edge{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}, {U: 3, V: 4, W: 1}, {U: 4, V: 5, W: 1}}
	g, err := graph.FromEdges(6, edges)
	if err != nil {
		t.Fatal(err)
	}
	e := New(g)
	d, err := e.SolveDist(0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if d != matrix.Inf {
		t.Fatalf("d(0,5) = %v across components, want +Inf", d)
	}
	if settled := e.settled.Load(); settled != 3 {
		t.Fatalf("settled %d vertices, want the source component's 3", settled)
	}
}

func TestBoundedInterleavesWithUnbounded(t *testing.T) {
	// Target-stopped solves leave heap entries behind; the next solve on
	// the same scratch must be unaffected.
	g := intER(t, 180, 6, 17)
	e := New(g)
	want := make([]float64, g.N)
	if err := e.SolveRowInto(2, want); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := e.SolveDist(2, 3); err != nil {
			t.Fatal(err)
		}
		got := make([]float64, g.N)
		if err := e.SolveRowInto(2, got); err != nil {
			t.Fatal(err)
		}
		requireRowsEqual(t, got, want)
	}
}

func TestBoundedValidation(t *testing.T) {
	g := intER(t, 30, 4, 1)
	e := New(g)
	for _, pair := range [][2]int{{-1, 0}, {30, 0}, {0, -1}, {0, 30}} {
		if _, err := e.SolveDist(pair[0], pair[1]); err == nil {
			t.Fatalf("SolveDist(%d,%d) accepted", pair[0], pair[1])
		}
	}
	if err := e.SolveRowInto(0, make([]float64, 3)); err == nil {
		t.Fatal("short row accepted")
	}
	if err := e.SolveRowInto(99, make([]float64, g.N)); err == nil {
		t.Fatal("out-of-range source accepted")
	}
}
