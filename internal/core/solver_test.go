package core

import (
	"context"
	"errors"
	"testing"

	"apspark/internal/cluster"
	"apspark/internal/costmodel"
	"apspark/internal/graph"
	"apspark/internal/matrix"
	"apspark/internal/rdd"
	"apspark/internal/seq"
)

// fwRef is the Floyd-Warshall ground truth for a test graph.
func fwRef(t testing.TB, g *graph.Graph) *matrix.Block {
	t.Helper()
	m, err := seq.FloydWarshall(g)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// testContext is a driver over a small virtual cluster, so tests run many
// stages quickly (virtual time is unaffected by the host).
func testContext(t *testing.T) *rdd.Context {
	t.Helper()
	cfg := cluster.Paper()
	cfg.Nodes = 4
	cfg.CoresPerNode = 4
	rc, err := NewContext(cfg, costmodel.PaperKernels())
	if err != nil {
		t.Fatal(err)
	}
	return rc
}

func solveReal(t *testing.T, s Solver, n, b int, seed int64, opts Options) *Result {
	t.Helper()
	g, err := graph.ErdosRenyi(n, 0.25, 10, seed)
	if err != nil {
		t.Fatal(err)
	}
	in, err := NewInput(g.Dense(), b)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), testContext(t), s, in, opts)
	if err != nil {
		t.Fatalf("%s failed: %v", s.Name(), err)
	}
	want := fwRef(t, g)
	if res.Dist == nil {
		t.Fatalf("%s returned no distance matrix", s.Name())
	}
	if !res.Dist.AllClose(want, 1e-9) {
		t.Fatalf("%s: distances diverge from sequential FW (n=%d b=%d seed=%d)", s.Name(), n, b, seed)
	}
	return res
}

func TestAllSolversMatchSequential(t *testing.T) {
	for _, s := range Solvers() {
		s := s
		t.Run(s.Name(), func(t *testing.T) {
			for _, cfg := range []struct {
				n, b int
				seed int64
			}{
				{24, 8, 1},
				{30, 7, 2},  // ragged blocks
				{16, 16, 3}, // q == 1
			} {
				solveReal(t, s, cfg.n, cfg.b, cfg.seed, Options{})
			}
		})
	}
}

func TestSolversWithPHPartitioner(t *testing.T) {
	for _, s := range Solvers() {
		solveReal(t, s, 20, 5, 7, Options{Partitioner: PartitionerPH})
	}
}

func TestSolversWithB1(t *testing.T) {
	for _, s := range []Solver{BlockedInMemory{}, BlockedCollectBroadcast{}} {
		solveReal(t, s, 20, 5, 9, Options{PartsPerCore: 1})
	}
}

func TestSolverDisconnectedGraph(t *testing.T) {
	g, err := graph.FromEdges(12, []graph.Edge{
		{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 2}, {U: 5, V: 6, W: 1}, {U: 8, V: 9, W: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	in, err := NewInput(g.Dense(), 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range Solvers() {
		res, err := Run(context.Background(), testContext(t), s, in, Options{})
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if !res.Dist.AllClose(fwRef(t, g), 1e-9) {
			t.Fatalf("%s wrong on disconnected graph", s.Name())
		}
	}
}

func TestSolverNames(t *testing.T) {
	for _, c := range []struct {
		short string
		want  string
		pure  bool
	}{
		{"rs", "Repeated Squaring", false},
		{"fw2d", "2D Floyd-Warshall", true},
		{"im", "Blocked-IM", true},
		{"cb", "Blocked-CB", false},
	} {
		s, err := SolverByName(c.short)
		if err != nil {
			t.Fatal(err)
		}
		if s.Name() != c.want || s.Pure() != c.pure {
			t.Fatalf("%s: name=%q pure=%v", c.short, s.Name(), s.Pure())
		}
		if _, err := SolverByName(s.Name()); err != nil {
			t.Fatalf("full name lookup failed for %q", s.Name())
		}
	}
	if _, err := SolverByName("nope"); err == nil {
		t.Fatal("unknown solver accepted")
	}
}

func TestUnitsAccounting(t *testing.T) {
	dec, _ := graph.NewDecomposition(64, 16) // q = 4
	if got := (BlockedInMemory{}).Units(dec); got != 4 {
		t.Fatalf("IM units = %d", got)
	}
	if got := (BlockedCollectBroadcast{}).Units(dec); got != 4 {
		t.Fatalf("CB units = %d", got)
	}
	if got := (FW2D{}).Units(dec); got != 64 {
		t.Fatalf("FW2D units = %d", got)
	}
	if got := (RepeatedSquaring{}).Units(dec); got != 6*4 {
		t.Fatalf("RS units = %d", got)
	}
}

func TestTruncatedRunProjects(t *testing.T) {
	in, err := NewPhantomInput(512, 64) // q = 8
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range Solvers() {
		res, err := Run(context.Background(), testContext(t), s, in, Options{MaxUnits: 2})
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if res.UnitsRun != 2 {
			t.Fatalf("%s ran %d units", s.Name(), res.UnitsRun)
		}
		if res.UnitsTotal <= res.UnitsRun {
			t.Fatalf("%s total units %d", s.Name(), res.UnitsTotal)
		}
		if res.ProjectedSeconds <= res.VirtualSeconds {
			t.Fatalf("%s projection %v not beyond measured %v", s.Name(), res.ProjectedSeconds, res.VirtualSeconds)
		}
		if res.Blocks != nil {
			t.Fatalf("%s truncated run returned blocks", s.Name())
		}
	}
}

func TestPhantomFullRunBlockedCB(t *testing.T) {
	in, err := NewPhantomInput(1024, 128) // q = 8, full virtual run
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), testContext(t), BlockedCollectBroadcast{}, in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.UnitsRun != 8 || res.Blocks == nil || res.Dist != nil {
		t.Fatalf("phantom run: units=%d blocks=%v dist=%v", res.UnitsRun, res.Blocks != nil, res.Dist)
	}
	if res.VirtualSeconds <= 0 {
		t.Fatal("no virtual time accumulated")
	}
	m := res.Metrics
	if m.SharedReadBytes == 0 || m.SharedWriteBytes == 0 {
		t.Fatalf("CB staged nothing: %+v", m)
	}
}

func TestPhantomIMShufflesMoreThanCB(t *testing.T) {
	in, err := NewPhantomInput(1024, 128)
	if err != nil {
		t.Fatal(err)
	}
	imCtx := testContext(t)
	if _, err := Run(context.Background(), imCtx, BlockedInMemory{}, in, Options{}); err != nil {
		t.Fatal(err)
	}
	cbCtx := testContext(t)
	if _, err := Run(context.Background(), cbCtx, BlockedCollectBroadcast{}, in, Options{}); err != nil {
		t.Fatal(err)
	}
	imShuffle := imCtx.Cluster.Metrics().ShuffleBytes
	cbShuffle := cbCtx.Cluster.Metrics().ShuffleBytes
	if imShuffle <= cbShuffle {
		t.Fatalf("IM shuffle %d should exceed CB shuffle %d (paper §4.5)", imShuffle, cbShuffle)
	}
}

func TestPureSolverSurvivesInjectedFailure(t *testing.T) {
	g, _ := graph.ErdosRenyi(20, 0.3, 10, 5)
	in, _ := NewInput(g.Dense(), 5)
	ctx := testContext(t)
	ctx.Injector = rdd.NewFailureInjector(0.02, 11)
	res, err := Run(context.Background(), ctx, BlockedInMemory{}, in, Options{})
	if err != nil {
		t.Fatalf("pure solver did not survive failures: %v", err)
	}
	if !res.Dist.AllClose(fwRef(t, g), 1e-9) {
		t.Fatal("recovered run produced wrong distances")
	}
	if ctx.Cluster.Metrics().TaskRetries == 0 {
		t.Skip("no failures were injected at this seed")
	}
}

func TestImpureSolverAbortsOnFailure(t *testing.T) {
	g, _ := graph.ErdosRenyi(20, 0.3, 10, 5)
	in, _ := NewInput(g.Dense(), 5)
	ctx := testContext(t)
	ctx.Injector = rdd.NewFailureInjector(0.05, 11)
	_, err := Run(context.Background(), ctx, BlockedCollectBroadcast{}, in, Options{})
	if err == nil {
		t.Skip("no failures were injected at this seed")
	}
	if !errors.Is(err, rdd.ErrNotFaultTolerant) {
		t.Fatalf("want ErrNotFaultTolerant, got %v", err)
	}
}

func TestInputHelpers(t *testing.T) {
	g, _ := graph.ErdosRenyi(12, 0.5, 10, 1)
	in, err := NewInput(g.Dense(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if in.Phantom() {
		t.Fatal("dense input reported phantom")
	}
	pin, err := NewPhantomInput(12, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !pin.Phantom() {
		t.Fatal("phantom input reported dense")
	}
	if _, err := NewInput(g.Dense(), 0); err == nil {
		t.Fatal("bad block size accepted")
	}
	if _, err := NewPhantomInput(0, 1); err == nil {
		t.Fatal("bad n accepted")
	}
}

func TestSizeOfCoreTypes(t *testing.T) {
	b := graphBlock(t)
	if (&TaggedBlock{B: b, T: b}).SizeBytes() != b.SizeBytes() {
		t.Fatal("TaggedBlock size wrong: B alone counts")
	}
	if (*TaggedBlock)(nil).SizeBytes() != 0 || (&TaggedBlock{}).SizeBytes() != 0 {
		t.Fatal("nil TaggedBlock size wrong")
	}
	if (columnSegments{0: b, 3: b}).SizeBytes() != 2*b.SizeBytes() {
		t.Fatal("column segments size wrong")
	}
}

func graphBlock(t *testing.T) *matrix.Block {
	t.Helper()
	g, _ := graph.ErdosRenyi(6, 0.5, 10, 1)
	return g.Dense()
}

// TestSolversWithIntraKernelParallelism pins the parallel tile paths.
// The block size matters: the product kernels' row-panel sharding only
// engages at matrix.ParallelMinEdge rows, so smaller blocks would
// silently compare the serial path against itself. With a host-worker
// surplus forcing TaskContext.Workers() > 1, the kernel-bound solvers
// (RS via the parallel product, IM/CB via parallel panel updates) must
// produce exactly the distances of the serial-kernel run. FW2D is
// excluded: its rank-1 update has no parallel tile path. (The diagonal
// FloydWarshallPar needs 1024-row blocks to shard and so stays serial
// here; its parallel path is pinned by the matrix package tests.)
func TestSolversWithIntraKernelParallelism(t *testing.T) {
	const b = matrix.ParallelMinEdge
	g, err := graph.ErdosRenyi(2*b, 0.03, 10, 21)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []Solver{RepeatedSquaring{}, BlockedInMemory{}, BlockedCollectBroadcast{}} {
		in, err := NewInput(g.Dense(), b)
		if err != nil {
			t.Fatal(err)
		}
		serialCtx := testContext(t)
		serialCtx.SetHostWorkers(1)
		serial, err := Run(context.Background(), serialCtx, s, in, Options{})
		if err != nil {
			t.Fatalf("%s serial: %v", s.Name(), err)
		}
		parCtx := testContext(t)
		parCtx.SetHostWorkers(16)
		par, err := Run(context.Background(), parCtx, s, in, Options{})
		if err != nil {
			t.Fatalf("%s parallel: %v", s.Name(), err)
		}
		if !par.Dist.Equal(serial.Dist) {
			t.Fatalf("%s: parallel kernels diverge from serial", s.Name())
		}
		if par.VirtualSeconds != serial.VirtualSeconds {
			t.Fatalf("%s: host parallelism changed the virtual clock (%v vs %v)", s.Name(), par.VirtualSeconds, serial.VirtualSeconds)
		}
	}
}
