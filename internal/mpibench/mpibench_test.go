package mpibench

import (
	"sync"
	"testing"

	"apspark/internal/graph"
	"apspark/internal/matrix"
	"apspark/internal/mpi"
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

func TestFW2DRealMatchesSequential(t *testing.T) {
	for _, cfg := range []struct {
		n, p int
		seed int64
	}{
		{16, 4, 1}, {24, 4, 2}, {27, 9, 3}, {32, 16, 4},
	} {
		g, err := graph.ErdosRenyi(cfg.n, 0.3, 10, cfg.seed)
		if err != nil {
			t.Fatal(err)
		}
		res, err := FW2D(cfg.n, cfg.p, g.Dense(), mpi.GbE(), PaperRates())
		if err != nil {
			t.Fatal(err)
		}
		if !res.Dist.AllClose(fwRef(t, g), 1e-9) {
			t.Fatalf("n=%d p=%d: FW-2D diverges from sequential FW", cfg.n, cfg.p)
		}
		if res.Seconds <= 0 {
			t.Fatal("no virtual time")
		}
	}
}

func TestFW2DValidation(t *testing.T) {
	if _, err := FW2D(16, 3, nil, mpi.GbE(), PaperRates()); err == nil {
		t.Fatal("non-square p accepted")
	}
	if _, err := FW2D(10, 9, nil, mpi.GbE(), PaperRates()); err == nil {
		t.Fatal("non-dividing grid accepted")
	}
	g, _ := graph.ErdosRenyi(8, 0.5, 10, 1)
	if _, err := FW2D(16, 4, g.Dense(), mpi.GbE(), PaperRates()); err == nil {
		t.Fatal("wrong matrix size accepted")
	}
}

func TestFW2DPhantomTime(t *testing.T) {
	res, err := FW2D(256, 16, nil, mpi.GbE(), PaperRates())
	if err != nil {
		t.Fatal(err)
	}
	if res.Dist != nil {
		t.Fatal("phantom run returned a matrix")
	}
	if res.Seconds <= 0 {
		t.Fatal("no virtual time")
	}
}

func TestDCDenseMatchesSequential(t *testing.T) {
	for _, cfg := range []struct {
		n    int
		seed int64
	}{
		{10, 1}, {64, 2}, {100, 3}, {129, 4}, // below, at, and across the base-case size
	} {
		g, err := graph.ErdosRenyi(cfg.n, 0.2, 10, cfg.seed)
		if err != nil {
			t.Fatal(err)
		}
		a := g.Dense()
		if err := DCDense(a); err != nil {
			t.Fatal(err)
		}
		if !a.AllClose(fwRef(t, g), 1e-9) {
			t.Fatalf("n=%d: DC recursion diverges from sequential FW", cfg.n)
		}
	}
}

func TestDCDenseNonSquare(t *testing.T) {
	g, _ := graph.ErdosRenyi(6, 0.5, 10, 1)
	a := g.Dense()
	a.C++ // corrupt the shape
	a.C--
	if err := DCDense(a); err != nil {
		t.Fatal(err)
	}
}

func TestDCRealRun(t *testing.T) {
	g, err := graph.ErdosRenyi(80, 0.2, 10, 9)
	if err != nil {
		t.Fatal(err)
	}
	res, err := DC(80, 4, g.Dense(), mpi.GbE(), PaperRates())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Dist.AllClose(fwRef(t, g), 1e-9) {
		t.Fatal("DC distributed run's numeric result wrong")
	}
	if res.Seconds <= 0 {
		t.Fatal("no virtual time")
	}
}

func TestDCValidation(t *testing.T) {
	if _, err := DC(64, 5, nil, mpi.GbE(), PaperRates()); err == nil {
		t.Fatal("non-square p accepted")
	}
	g, _ := graph.ErdosRenyi(8, 0.5, 10, 1)
	if _, err := DC(16, 4, g.Dense(), mpi.GbE(), PaperRates()); err == nil {
		t.Fatal("wrong matrix size accepted")
	}
}

// paperFW2D is FW-2D-GbE at the paper's largest configuration (Table 3:
// p = 1024, n = 262144), run once for the two tests that pin it.
var paperFW2D = sync.OnceValues(func() (*Result, error) {
	return FW2D(262144, 1024, nil, mpi.GbE(), PaperRates())
})

func TestDCOutperformsFW2DAtScale(t *testing.T) {
	// The paper's headline baseline result (Table 3): at p = 1024 and
	// n = 262144, DC-GbE is far faster than FW-2D-GbE.
	const n, p = 262144, 1024
	fw, err := paperFW2D()
	if err != nil {
		t.Fatal(err)
	}
	dc, err := DC(n, p, nil, mpi.GbE(), PaperRates())
	if err != nil {
		t.Fatal(err)
	}
	if dc.Seconds >= fw.Seconds {
		t.Fatalf("DC (%v s) not faster than FW-2D (%v s)", dc.Seconds, fw.Seconds)
	}
	if fw.Seconds/dc.Seconds < 2 {
		t.Fatalf("DC speedup %.1fx below the paper's >2.8x regime", fw.Seconds/dc.Seconds)
	}
}

func TestFW2DWeakScalingShape(t *testing.T) {
	// Weak scaling with n/p = 256: times should grow with p (the method
	// does not weak-scale well — that is the paper's point).
	t64, err := FW2D(16384, 64, nil, mpi.GbE(), PaperRates())
	if err != nil {
		t.Fatal(err)
	}
	t1024, err := paperFW2D()
	if err != nil {
		t.Fatal(err)
	}
	if t1024.Seconds <= t64.Seconds {
		t.Fatalf("FW-2D weak scaling impossibly good: %v -> %v", t64.Seconds, t1024.Seconds)
	}
}
