package apspark

import (
	"context"
	"math"
	"testing"

	"apspark/internal/cluster"
)

// mustFW is the sequential Floyd-Warshall reference for tests, failing
// the test on the (impossible for well-formed graphs) kernel error.
func mustFW(t testing.TB, g *Graph) *Matrix {
	t.Helper()
	m, err := SequentialAPSP(g)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func tinyCluster() *cluster.Config {
	cfg := cluster.Paper()
	cfg.Nodes = 2
	cfg.CoresPerNode = 4
	return &cfg
}

// tinySession is a session over the tiny test cluster.
func tinySession(t testing.TB) *Session {
	t.Helper()
	s, err := New(WithCluster(*tinyCluster()))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSolveQuickstart(t *testing.T) {
	g, err := NewErdosRenyiGraph(64, PaperEdgeProb(64), 42)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tinySession(t).Solve(context.Background(), g, WithSolver(SolverCB), WithBlockSize(16), WithVerify(true))
	if err != nil {
		t.Fatal(err)
	}
	if res.Dist == nil || res.Dist.R != 64 {
		t.Fatal("no distance matrix")
	}
	if res.VirtualSeconds <= 0 {
		t.Fatal("no virtual time")
	}
	if res.Solver != "Blocked-CB" {
		t.Fatalf("solver = %q", res.Solver)
	}
}

func TestSolveAllSolverKinds(t *testing.T) {
	g, err := NewErdosRenyiGraph(24, 0.3, 7)
	if err != nil {
		t.Fatal(err)
	}
	want := mustFW(t, g)
	for _, k := range []SolverKind{SolverRS, SolverFW2D, SolverIM, SolverCB} {
		res, err := tinySession(t).Solve(context.Background(), g, WithSolver(k), WithBlockSize(6))
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		if !res.Dist.AllClose(want, 1e-9) {
			t.Fatalf("%s: wrong distances", k)
		}
	}
}

func TestSolveDefaults(t *testing.T) {
	g, err := NewGraph(10, []Edge{{U: 0, V: 1, W: 3}, {U: 1, V: 2, W: 4}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := tinySession(t).Solve(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if res.Dist.At(0, 2) != 7 {
		t.Fatalf("d(0,2) = %v, want 7", res.Dist.At(0, 2))
	}
	if !math.IsInf(res.Dist.At(0, 9), 1) {
		t.Fatal("unreachable vertex not Inf")
	}
}

func TestSolveUnknownSolver(t *testing.T) {
	g, _ := NewGraph(4, nil)
	if _, err := tinySession(t).Solve(context.Background(), g, WithSolver("bogus")); err == nil {
		t.Fatal("unknown solver accepted")
	}
}

func TestProjectPhantom(t *testing.T) {
	res, err := tinySession(t).Project(context.Background(), 4096, WithSolver(SolverCB), WithBlockSize(512))
	if err != nil {
		t.Fatal(err)
	}
	if res.Dist != nil {
		t.Fatal("phantom run returned data")
	}
	if res.ProjectedSeconds <= 0 || res.UnitsRun != res.UnitsTotal {
		t.Fatalf("projection: %+v", res)
	}
}

func TestProjectTruncated(t *testing.T) {
	res, err := tinySession(t).Project(context.Background(), 8192, WithSolver(SolverIM), WithBlockSize(512), WithMaxUnits(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.UnitsRun != 2 || res.ProjectedSeconds <= res.VirtualSeconds {
		t.Fatalf("truncated projection: %+v", res)
	}
}

func TestJohnsonFacade(t *testing.T) {
	g, err := NewErdosRenyiGraph(30, 0.3, 3)
	if err != nil {
		t.Fatal(err)
	}
	jd, err := Johnson(g)
	if err != nil {
		t.Fatal(err)
	}
	if !jd.AllClose(mustFW(t, g), 1e-9) {
		t.Fatal("Johnson facade diverges from FW")
	}
}

func TestMetricsExposed(t *testing.T) {
	g, _ := NewErdosRenyiGraph(32, 0.3, 5)
	res, err := tinySession(t).Solve(context.Background(), g, WithSolver(SolverIM), WithBlockSize(8))
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Stages == 0 || res.Metrics.ShuffleBytes == 0 {
		t.Fatalf("metrics empty: %+v", res.Metrics)
	}
}
