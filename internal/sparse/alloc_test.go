package sparse

import (
	"context"
	"testing"
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
	allocs = testing.AllocsPerRun(100, func() {
		src = (src + 1) % g.N
		if _, err := e.SolveDist(src, g.N-1-src); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("target-stopped Dijkstra allocates %v objects/op after warmup, want 0", allocs)
	}
}

// TestPerBatchZeroAllocs is the same pin for the batched kernel, on both
// cell types and on a seeded panel: a warm worker's batch, and its fill
// from the tiles above, allocate nothing, so a panel allocates what
// solvePanel itself does (its job record and worker bookkeeping) however
// many batches it holds.
func TestPerBatchZeroAllocs(t *testing.T) {
	requireBatchKernel(t)
	g := intER(t, 512, 8, 9)
	e := New(g)
	ctx := context.Background()
	want := radixRows(t, g).Data
	// Panels 1.. of h rows (panel 0 has nothing above it to seed from).
	perPanel := func(h int, solve func(bi int) error) float64 {
		bi := 0
		return testing.AllocsPerRun(20, func() {
			bi = bi%(g.N/h-1) + 1
			if err := solve(bi); err != nil {
				t.Fatal(err)
			}
		})
	}
	floats := func(h int) float64 {
		panel := make([]float64, h*g.N)
		return perPanel(h, func(bi int) error {
			_, _, err := solvePanel(ctx, e, bi*h, panel, h, 1, above[float64]{})
			return err
		})
	}
	ints := func(read func(h int) readBack) func(h int) float64 {
		return func(h int) float64 {
			panel, up := make([]uint32, h*g.N), above[uint32]{b: h, read: read(h)}
			return perPanel(h, func(bi int) error {
				_, _, err := solvePanel(ctx, e, bi*h, panel, h, 1, up)
				return err
			})
		}
	}
	unseeded := func(int) readBack { return nil }
	seeded := func(h int) readBack { return tilesOf(want, g.N, h) }
	for name, allocs := range map[string]func(h int) float64{"float64": floats, "uint32": ints(unseeded), "seeded uint32": ints(seeded)} {
		one, many := allocs(batch32), allocs(8*batch32)
		t.Logf("%s cells: allocs per panel: %v with one batch, %v with eight", name, one, many)
		if many != one || one > 2 {
			t.Fatalf("%s cells: a panel of eight batches allocates %v objects, one of a single batch %v: batches allocate", name, many, one)
		}
	}
	if e.PanelKernel() != "batch32" {
		t.Fatalf("panel kernel = %s, want batch32", e.PanelKernel())
	}
}
