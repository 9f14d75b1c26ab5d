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

// TestPhantomShuffleMallocs pins the engine's per-record overhead on the
// phantom path, where no block data exists and every allocation is the
// virtual cluster's own: four block iterations of Blocked-IM, the
// shuffle-heaviest solver, at n=4096, b=256 (q=16) on one host worker,
// counted on a second run so that one-time initialization stays out.
// Grouping each key's records in place of a ListAppend combiner, sharing
// one value across a block's copies and passing phantoms through brought
// the run from 11,925 allocations to 5,831 on go1.24; boxed keys, a
// map[any]any fold and per-task bucket maps had made 15,881.
func TestPhantomShuffleMallocs(t *testing.T) {
	in, err := NewPhantomInput(4096, 256)
	if err != nil {
		t.Fatal(err)
	}
	solve := func() {
		rc := testContext(t)
		rc.SetHostWorkers(1)
		if _, err := Run(context.Background(), rc, BlockedInMemory{}, in, Options{MaxUnits: 4}); err != nil {
			t.Fatal(err)
		}
	}
	solve()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	solve()
	runtime.ReadMemStats(&after)
	got := after.Mallocs - before.Mallocs
	t.Logf("phantom Blocked-IM run made %d allocations", got)
	if limit := uint64(8000); got > limit {
		t.Fatalf("phantom Blocked-IM run made %d allocations, want at most %d", got, limit)
	}
}
