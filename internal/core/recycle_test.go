package core

import (
	"context"
	"errors"
	"testing"

	"apspark/internal/graph"
	"apspark/internal/matrix"
	"apspark/internal/rdd"
	"apspark/internal/seq"
)

var recyclingSolvers = []Solver{BlockedCollectBroadcast{}, BlockedInMemory{}}

func requireSameBlocks(t *testing.T, what string, got, want map[graph.BlockKey]*matrix.Block) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d blocks, want %d", what, len(got), len(want))
	}
	for k, w := range want {
		if g := got[k]; g == nil || !g.Equal(w) {
			t.Fatalf("%s: block %v differs", what, k)
		}
	}
}

// TestRecycledGenerationsAreSafe runs the solvers that hand superseded
// block generations back to the arena with arena checking on, where every
// released block is filled with NaN: a reader holding a block past its
// release, or a release of something still live, turns the result into NaN
// and fails the comparison with the un-recycled oracle solve. The shapes
// are the corners of the release rule: one block (only the input's is
// released), two (every phase degenerate), ragged last row/column blocks,
// unreachable vertices (+Inf-heavy blocks), a multi-worker engine.
func TestRecycledGenerationsAreSafe(t *testing.T) {
	disconnected, err := graph.FromEdges(12, []graph.Edge{
		{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 2}, {U: 5, V: 6, W: 1}, {U: 8, V: 9, W: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	er := func(n int, seed int64) *graph.Graph {
		g, err := graph.ErdosRenyi(n, 0.25, 10, seed)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	tc := taskCtx(t)
	for _, c := range []struct {
		name string
		g    *graph.Graph
		b    int
	}{
		{"q=1", er(16, 1), 16},
		{"q=2", er(32, 2), 16},
		{"ragged", er(30, 3), 7},
		{"disconnected", disconnected, 4},
		{"q=6", er(96, 4), 16},
	} {
		t.Run(c.name, func(t *testing.T) {
			want := oracleBlockedSolve(t, tc, freshInput(t, c.g, c.b))

			matrix.SetPoolCheck(true)
			defer matrix.SetPoolCheck(false)
			// Two solvers back to back, each on its own Input: a run owns
			// its input, updates its off-column blocks in place and
			// releases the rest, so what one run returned to the arena
			// must not reach the next run's result.
			for _, s := range recyclingSolvers {
				rc := testContext(t)
				rc.SetHostWorkers(4)
				res, err := Run(context.Background(), rc, s, freshInput(t, c.g, c.b), Options{})
				if err != nil {
					t.Fatalf("%s: %v", s.Name(), err)
				}
				requireSameBlocks(t, s.Name(), res.Blocks, want)
				if !res.Dist.AllClose(seq.Reference(c.g), 1e-9) {
					t.Fatalf("%s: distances diverge from sequential FW", s.Name())
				}
			}
			if st := matrix.PoolCheckStats(); st.DoublePuts != 0 {
				t.Fatalf("%d blocks were released twice", st.DoublePuts)
			} else if st.Puts == 0 {
				t.Fatal("nothing was released: the solvers are not recycling")
			}
		})
	}
}

// TestRecyclingSurvivesCancellation aborts a solve between iterations,
// where a generation has been released and the next is half built, and
// then solves the same graph again from a new Input (the aborted run owned
// the first and left it half updated): no block may have been released
// twice, and nothing the aborted run left in the arena may leak into the
// rerun.
func TestRecyclingSurvivesCancellation(t *testing.T) {
	g, err := graph.ErdosRenyi(96, 0.25, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	const b = 16
	want := oracleBlockedSolve(t, taskCtx(t), freshInput(t, g, b))

	matrix.SetPoolCheck(true)
	defer matrix.SetPoolCheck(false)
	for _, s := range recyclingSolvers {
		ctx, cancel := context.WithCancel(context.Background())
		rc := testContext(t)
		rc.SetProgress(func(ev rdd.StageEvent) {
			if ev.Name == "unit" && ev.UnitsDone == 3 {
				cancel()
			}
		})
		res, err := Run(ctx, rc, s, freshInput(t, g, b), Options{})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", s.Name(), err)
		}
		if res == nil || res.UnitsRun != 3 || res.Blocks != nil {
			t.Fatalf("%s: partial result %+v", s.Name(), res)
		}
		cancel()
		res, err = Run(context.Background(), testContext(t), s, freshInput(t, g, b), Options{})
		if err != nil {
			t.Fatalf("%s rerun: %v", s.Name(), err)
		}
		requireSameBlocks(t, s.Name()+" rerun", res.Blocks, want)
	}
	if st := matrix.PoolCheckStats(); st.DoublePuts != 0 {
		t.Fatalf("%d blocks were released twice", st.DoublePuts)
	}
}

// TestBlockedSolversMatchParentBitForBit solves n=512, b=64 with both
// blocked solvers and requires the blocks the parent commit's transposing
// code produces, exactly. CI runs it on the avx2 and the purego kernel.
func TestBlockedSolversMatchParentBitForBit(t *testing.T) {
	g, err := graph.ErdosRenyiPaper(512, 7)
	if err != nil {
		t.Fatal(err)
	}
	const b = 64
	want := oracleBlockedSolve(t, taskCtx(t), freshInput(t, g, b))
	for _, s := range recyclingSolvers {
		res, err := Run(context.Background(), testContext(t), s, freshInput(t, g, b), Options{})
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		requireSameBlocks(t, s.Name(), res.Blocks, want)
	}
}

// TestBlockedCBKeepsOneIterationStaged: every iteration of Blocked-CB
// drops the previous iteration's staged blocks, which nothing reads again
// and which the recycler returns to the arena, so a full run leaves only
// the last iteration's one diagonal and q-1 panel keys in shared storage.
func TestBlockedCBKeepsOneIterationStaged(t *testing.T) {
	g, err := graph.ErdosRenyi(96, 0.25, 10, 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []int{96, 16, 14} { // q = 1, 6, 7 (ragged)
		in := freshInput(t, g, b)
		q := in.Dec.Q
		rc := testContext(t)
		if _, err := Run(context.Background(), rc, BlockedCollectBroadcast{}, in, Options{}); err != nil {
			t.Fatal(err)
		}
		if got := rc.Store.Len(); got != q {
			t.Fatalf("q=%d: %d keys staged after the run, want %d", q, got, q)
		}
	}
}

// TestRepeatedSquaringLeavesNothingStaged: every column's staged blocks
// are dropped once its products are materialized, so a complete Repeated
// Squaring run leaves shared storage empty.
func TestRepeatedSquaringLeavesNothingStaged(t *testing.T) {
	g, err := graph.ErdosRenyi(96, 0.25, 10, 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []int{96, 16, 14} { // q = 1, 6, 7 (ragged)
		rc := testContext(t)
		if _, err := Run(context.Background(), rc, RepeatedSquaring{}, freshInput(t, g, b), Options{}); err != nil {
			t.Fatal(err)
		}
		if got := rc.Store.Len(); got != 0 {
			t.Fatalf("b=%d: %d keys staged after the run, want 0", b, got)
		}
	}
}

// TestDenseAndPhantomRunsChargeAlike shows the host-side changes never
// reach the virtual clock: a dense and a phantom run at one (n, b, p) report
// the same virtual seconds and byte counters — in particular a staged
// two-orientation panel is written and read at one block's bytes.
func TestDenseAndPhantomRunsChargeAlike(t *testing.T) {
	const n, b = 96, 16
	g, err := graph.ErdosRenyi(n, 0.25, 10, 8)
	if err != nil {
		t.Fatal(err)
	}
	phantom, err := NewPhantomInput(n, b)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range recyclingSolvers {
		d, err := Run(context.Background(), testContext(t), s, freshInput(t, g, b), Options{})
		if err != nil {
			t.Fatal(err)
		}
		p, err := Run(context.Background(), testContext(t), s, phantom, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if d.VirtualSeconds != p.VirtualSeconds || d.Metrics != p.Metrics {
			t.Fatalf("%s: dense run %v s %+v, phantom run %v s %+v",
				s.Name(), d.VirtualSeconds, d.Metrics, p.VirtualSeconds, p.Metrics)
		}
	}
}
