package core

import (
	"context"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
)

// goldenShapes are the phantom runs of the clock pin: full runs, runs
// truncated inside the first squaring / before the last block iteration,
// n not a multiple of b, and two runs that Repeated Squaring truncates past
// a squaring boundary (MaxUnits > q) while the blocked solvers finish.
var goldenShapes = []struct{ n, b, maxUnits int }{
	{256, 64, 0},
	{512, 64, 3},
	{300, 64, 0},
	{300, 64, 2},
	{2048, 256, 9},
	{4096, 1024, 5},
}

// goldenHostWorkers are the host worker counts every golden run is made
// at (0: the engine's default, GOMAXPROCS): the virtual clock, and the
// order of the float charges behind it, must not depend on scheduling.
var goldenHostWorkers = []int{0, 1, 8}

// TestGoldenClock holds the virtual clock and every cluster counter of the
// four solvers under both partitioners to testdata/clock.golden, one line
// per run, the float64s by their bits so that a one-ulp drift fails. A
// change that moves a line says why (ROADMAP aim 1: "bit-identical unless
// a PR says why") and replaces it with the line the failure prints. Every
// run is made at each of goldenHostWorkers against the same line. CI runs
// it on the avx2 and the purego kernel path.
func TestGoldenClock(t *testing.T) {
	data, err := os.ReadFile("testdata/clock.golden")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	row := 0
	for _, key := range RegisteredSolvers() {
		s, err := SolverByName(key)
		if err != nil {
			t.Fatal(err)
		}
		for _, pk := range []PartitionerKind{PartitionerMD, PartitionerPH} {
			for _, sh := range goldenShapes {
				in, err := NewPhantomInput(sh.n, sh.b)
				if err != nil {
					t.Fatal(err)
				}
				for _, workers := range goldenHostWorkers {
					rc := testContext(t)
					if workers > 0 {
						rc.SetHostWorkers(workers)
					}
					res, err := Run(context.Background(), rc, s, in, Options{Partitioner: pk, MaxUnits: sh.maxUnits})
					if err != nil {
						t.Fatal(err)
					}
					m := res.Metrics
					got := fmt.Sprintf("%s %s n=%d b=%d max=%d: units=%d/%d virtual=%016x projected=%016x stages=%d tasks=%d shuffle=%d sharedRead=%d sharedWrite=%d collect=%d broadcast=%d localPeak=%d",
						key, pk, sh.n, sh.b, sh.maxUnits, res.UnitsRun, res.UnitsTotal,
						math.Float64bits(res.VirtualSeconds), math.Float64bits(res.ProjectedSeconds),
						m.Stages, m.Tasks, m.ShuffleBytes, m.SharedReadBytes, m.SharedWriteBytes,
						m.CollectBytes, m.BroadcastBytes, m.LocalPeakBytes)
					if row >= len(want) {
						t.Fatalf("testdata/clock.golden has %d lines, missing:\n%s", len(want), got)
					}
					if got != want[row] {
						t.Errorf("line %d, host workers %d (0: default):\n got %s\nwant %s", row+1, workers, got, want[row])
					}
				}
				row++
			}
		}
	}
	if row != len(want) {
		t.Errorf("testdata/clock.golden has %d lines, the test made %d", len(want), row)
	}
}
