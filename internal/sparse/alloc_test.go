package sparse

import (
	"context"
	"testing"

	"apspark/internal/matrix"
)

// TestPerSourceZeroAllocs pins the engine's allocation discipline: after
// the first source has grown the scratch, solving further sources
// performs no heap allocations at all. (It runs under -race too: the
// scratch sits on the engine's own free list, not in a sync.Pool, which
// drops items there by design.)
func TestPerSourceZeroAllocs(t *testing.T) {
	g := intER(t, 512, 8, 9)
	e := New(g)
	row := make([]float64, g.N)
	if err := e.SolveRowInto(0, row); err != nil { // warmup: scratch grows once
		t.Fatal(err)
	}
	src := 0
	allocs := testing.AllocsPerRun(100, func() {
		src = (src + 1) % g.N
		if err := e.SolveRowInto(src, row); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("per-source Dijkstra allocates %v objects/op after warmup, want 0", allocs)
	}
}

// TestPerBatchZeroAllocs is the same pin for the batched kernel: a warm
// worker's batch allocates nothing, so a panel allocates what SolvePanel
// itself does (its job record and worker bookkeeping) however many
// batches it holds.
func TestPerBatchZeroAllocs(t *testing.T) {
	requireBatchKernel(t)
	g := intER(t, 512, 8, 9)
	e := New(g)
	perPanel := func(h int) float64 {
		panel := matrix.NewZero(h, g.N)
		base := 0
		return testing.AllocsPerRun(20, func() {
			base = (base + h) % (g.N - h)
			if err := e.SolvePanel(context.Background(), base, panel, 1); err != nil {
				t.Fatal(err)
			}
		})
	}
	one, many := perPanel(batch32), perPanel(8*batch32)
	t.Logf("allocs per panel: %v with one batch, %v with eight", one, many)
	if many != one || one > 2 {
		t.Fatalf("a panel of eight batches allocates %v objects, one of a single batch %v: batches allocate", many, one)
	}
	if e.PanelKernel() != "batch32" {
		t.Fatalf("panel kernel = %s, want batch32", e.PanelKernel())
	}
}
