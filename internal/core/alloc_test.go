//go:build !race

package core

import (
	"context"
	"runtime"
	"testing"

	"apspark/internal/graph"
)

// TestWarmSolveAllocatesTwoGenerations pins what recycling buys: a warm cb
// solve at n=1024, b=128 allocates the assembled n x n result it hands to
// the caller plus at most three generations' worth of block bytes (two
// live generations, the second orientations of one iteration's panels, the
// engine's bookkeeping). Without recycling every one of the q = 8
// iterations allocates a generation and its transposes: eleven and more.
// Excluded under -race, where sync.Pool intentionally drops items.
func TestWarmSolveAllocatesTwoGenerations(t *testing.T) {
	if testing.Short() {
		t.Skip("solves n=1024 twice")
	}
	const n, b = 1024, 128
	g, err := graph.ErdosRenyiPaper(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	in, err := NewGraphInput(g, b)
	if err != nil {
		t.Fatal(err)
	}
	solve := func() {
		if _, err := Run(context.Background(), testContext(t), BlockedCollectBroadcast{}, in, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	solve() // warm the arena
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	solve()
	runtime.ReadMemStats(&after)

	var generation uint64
	for _, blk := range in.Blocks {
		generation += uint64(blk.SizeBytes())
	}
	got := after.TotalAlloc - before.TotalAlloc
	if limit := uint64(n*n*8) + 3*generation; got > limit {
		t.Fatalf("warm solve allocated %.1f MiB = result + %.1f generations, want at most result + 3",
			float64(got)/(1<<20), (float64(got)-n*n*8)/float64(generation))
	}
}
