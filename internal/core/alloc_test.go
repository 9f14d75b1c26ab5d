//go:build !race

package core

import (
	"context"
	"runtime"
	"testing"

	"apspark/internal/graph"
)

// TestWarmSolveAllocatesOneGeneration pins what recycling and the in-place
// Phase 3 buy: a warm cb solve at n=1024, b=128 allocates the assembled
// n x n result it hands to the caller plus at most one generation's worth
// of block bytes (what the arena no longer holds of the panels, their
// second orientations and the assembly scratch, and the engine's
// bookkeeping). The input is built outside the measured region: the run
// owns it, and its off-column blocks are the solve's only generation.
// Folding Phase 3 into an arena copy of each block cost 1.35 generations
// here; without recycling every one of the q = 8 iterations allocates a
// generation and its transposes: eleven and more. Excluded under -race,
// where sync.Pool intentionally drops items.
func TestWarmSolveAllocatesOneGeneration(t *testing.T) {
	if testing.Short() {
		t.Skip("solves n=1024 twice")
	}
	const n, b = 1024, 128
	g, err := graph.ErdosRenyiPaper(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	solve := func(in Input) {
		if _, err := Run(context.Background(), testContext(t), BlockedCollectBroadcast{}, in, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	warm := freshInput(t, g, b)
	var generation uint64 // read now: the solve recycles these blocks
	for _, blk := range warm.Blocks {
		generation += uint64(blk.SizeBytes())
	}
	solve(warm) // warm the arena
	in := freshInput(t, g, b)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	solve(in)
	runtime.ReadMemStats(&after)

	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("warm solve allocated %.1f MiB = result + %.2f generations",
		float64(got)/(1<<20), (float64(got)-n*n*8)/float64(generation))
	if limit := uint64(n*n*8) + generation; got > limit {
		t.Fatalf("warm solve allocated %.1f MiB = result + %.2f generations, want at most result + 1",
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
