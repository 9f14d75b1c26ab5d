package apspark

// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation (§5). Each benchmark replays the experiment on the
// virtual cluster at a scale that completes in go-test time; the
// `apsp-bench` command prints the same tables at the paper's full scale.
//
//	go test -bench=. -benchmem
//
// Reported custom metrics: virtual-sec/op is the simulated cluster time
// of the experiment the benchmark regenerates (the quantity the paper
// tabulates); wall time measures only this repository's simulator.

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"apspark/internal/bench"
	"apspark/internal/cluster"
	"apspark/internal/core"
	"apspark/internal/costmodel"
	"apspark/internal/graph"
	"apspark/internal/matrix"
	"apspark/internal/mpi"
	"apspark/internal/mpibench"
	"apspark/internal/seq"
)

func benchCluster() cluster.Config {
	cfg := cluster.Paper()
	cfg.Nodes = 4
	cfg.CoresPerNode = 8
	return cfg
}

// BenchmarkFigure2FloydWarshallKernel measures the real Go FW kernel at a
// representative block size (Figure 2, left curve).
func BenchmarkFigure2FloydWarshallKernel(b *testing.B) {
	blk := matrix.New(256, 256)
	for i := range blk.Data {
		blk.Data[i] = float64(i%89) + 1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		work := blk.Clone()
		if err := matrix.FloydWarshall(work); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(costmodel.PaperKernels().FloydWarshall(256), "virtual-sec/op")
}

// BenchmarkFigure2MinPlusKernel measures the real Go MatProd+MatMin pair
// (Figure 2, right curve).
func BenchmarkFigure2MinPlusKernel(b *testing.B) {
	x := matrix.New(256, 256)
	for i := range x.Data {
		x.Data[i] = float64(i%89) + 1
	}
	y := x.Clone()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prod, err := matrix.MinPlusMul(x, y)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := matrix.MatMin(prod, x); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(costmodel.PaperKernels().MinPlusMul(256, 256, 256), "virtual-sec/op")
}

// BenchmarkFigure2Sweep regenerates the model curve across the paper's
// block-size range.
func BenchmarkFigure2Sweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := bench.Figure2(bench.Fig2Config{Model: costmodel.PaperKernels()})
		if len(pts) == 0 {
			b.Fatal("no points")
		}
	}
}

// BenchmarkFigure3BlockSizeSweep regenerates the IM/CB block-size sweep
// (Figure 3 top/middle) at reduced scale.
func BenchmarkFigure3BlockSizeSweep(b *testing.B) {
	var virtual float64
	for i := 0; i < b.N; i++ {
		pts, err := bench.Figure3(bench.Fig3Config{
			N:          8192,
			Cluster:    benchCluster(),
			BlockSizes: []int{512, 1024, 2048},
			MaxUnits:   2,
		})
		if err != nil {
			b.Fatal(err)
		}
		virtual = 0
		for _, p := range pts {
			virtual += p.Seconds
		}
	}
	b.ReportMetric(virtual, "virtual-sec/op")
}

// BenchmarkFigure3PartitionCensus regenerates the partition-size census
// (Figure 3 bottom) at the paper's full scale — it is pure partitioner
// arithmetic, no simulation.
func BenchmarkFigure3PartitionCensus(b *testing.B) {
	for i := 0; i < b.N; i++ {
		census, err := bench.Figure3Partitions(131072, 1024, 2, nil)
		if err != nil {
			b.Fatal(err)
		}
		if len(census) == 0 {
			b.Fatal("no census")
		}
	}
}

// BenchmarkTable2SolverSweep regenerates Table 2 (single-iteration times
// and projections for all four solvers) at reduced scale.
func BenchmarkTable2SolverSweep(b *testing.B) {
	var virtual float64
	for i := 0; i < b.N; i++ {
		rows, err := bench.Table2(bench.Table2Config{
			N:          4096,
			Cluster:    benchCluster(),
			BlockSizes: []int{256, 512},
			UnitsToRun: 2,
		})
		if err != nil {
			b.Fatal(err)
		}
		virtual = 0
		for _, r := range rows {
			virtual += r.SingleSec
		}
	}
	b.ReportMetric(virtual, "virtual-sec/op")
}

// BenchmarkTable3WeakScaling regenerates the weak-scaling study (Table 3
// and Figure 5) at reduced scale, including both MPI baselines.
func BenchmarkTable3WeakScaling(b *testing.B) {
	var virtual float64
	for i := 0; i < b.N; i++ {
		rows, err := bench.Table3(bench.Table3Config{
			Cluster:         benchCluster(),
			Ps:              []int{16, 64},
			VerticesPerCore: 64,
			BlockSizeIM:     map[int]int{16: 256, 64: 256},
			BlockSizeCB:     map[int]int{16: 256, 64: 256},
			MPIPs:           []int{16, 64},
			MaxUnits:        2,
		})
		if err != nil {
			b.Fatal(err)
		}
		virtual = 0
		for _, r := range rows {
			virtual += r.Seconds
		}
	}
	b.ReportMetric(virtual, "virtual-sec/op")
}

// BenchmarkFigure5SequentialBaseline measures the T1 reference (the
// 0.762 Gops sequential Floyd-Warshall at n = 256) with the real kernel.
func BenchmarkFigure5SequentialBaseline(b *testing.B) {
	g, err := graph.ErdosRenyiPaper(256, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = seq.FloydWarshall(g)
	}
	b.ReportMetric(bench.SequentialGops(costmodel.PaperKernels(), 256), "model-Gops")
}

// --- per-solver end-to-end benches (real data, small n): these are the
// building blocks of Table 2's "Single" column ---

func benchSolver(b *testing.B, s core.Solver) {
	g, err := graph.ErdosRenyi(96, 0.15, 10, 3)
	if err != nil {
		b.Fatal(err)
	}
	dense := g.Dense()
	var virtual float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in, err := core.NewInput(dense.Clone(), 24)
		if err != nil {
			b.Fatal(err)
		}
		rc, err := core.NewContext(benchCluster(), costmodel.PaperKernels())
		if err != nil {
			b.Fatal(err)
		}
		res, err := core.Run(context.Background(), rc, s, in, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		virtual = res.VirtualSeconds
	}
	b.ReportMetric(virtual, "virtual-sec/op")
}

// BenchmarkSolverRepeatedSquaring is Table 2, rows "Repeated Squaring".
func BenchmarkSolverRepeatedSquaring(b *testing.B) { benchSolver(b, core.RepeatedSquaring{}) }

// BenchmarkSolverFW2D is Table 2, rows "2D Floyd-Warshall".
func BenchmarkSolverFW2D(b *testing.B) { benchSolver(b, core.FW2D{}) }

// BenchmarkSolverBlockedIM is Table 2, rows "Blocked-IM".
func BenchmarkSolverBlockedIM(b *testing.B) { benchSolver(b, core.BlockedInMemory{}) }

// BenchmarkSolverBlockedCB is Table 2, rows "Blocked-CB".
func BenchmarkSolverBlockedCB(b *testing.B) { benchSolver(b, core.BlockedCollectBroadcast{}) }

// BenchmarkSolveDenseCB is the dense solve the benchmark of record times
// (solve_dense_cb: warm session, ER graph at the paper's density, cb on 64
// virtual cores), at n=1024 b=128 so a CI smoke run finishes: ms/solve is
// graph in, distance matrix out, and -benchmem shows what a warm solve
// still allocates (the blocked solvers recycle their block generations).
func BenchmarkSolveDenseCB(b *testing.B) { benchSolveDenseCB(b, 1024, 128) }

func benchSolveDenseCB(b *testing.B, n, blockSize int) {
	g, err := graph.ErdosRenyiPaper(n, 1)
	if err != nil {
		b.Fatal(err)
	}
	sess, err := New(WithClusterCores(64), WithSolver(SolverCB), WithBlockSize(blockSize))
	if err != nil {
		b.Fatal(err)
	}
	solve := func() {
		res, err := sess.Solve(context.Background(), g)
		if err != nil {
			b.Fatal(err)
		}
		if res.Dist == nil {
			b.Fatal("no distance matrix")
		}
	}
	solve() // warm: fills the block arena
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		solve()
	}
	b.ReportMetric(1e3*b.Elapsed().Seconds()/float64(b.N), "ms/solve")
}

// --- MPI baselines (Table 3 / Figure 5 right-hand methods) ---

// BenchmarkMPIFW2D runs the real distributed FW-2D-GbE baseline.
func BenchmarkMPIFW2D(b *testing.B) {
	g, err := graph.ErdosRenyi(64, 0.2, 10, 5)
	if err != nil {
		b.Fatal(err)
	}
	dense := g.Dense()
	var virtual float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := mpibench.FW2D(64, 16, dense.Clone(), mpi.GbE(), mpibench.PaperRates())
		if err != nil {
			b.Fatal(err)
		}
		virtual = res.Seconds
	}
	b.ReportMetric(virtual, "virtual-sec/op")
}

// BenchmarkMPIDC runs the DC-GbE baseline schedule.
func BenchmarkMPIDC(b *testing.B) {
	var virtual float64
	for i := 0; i < b.N; i++ {
		res, err := mpibench.DC(4096, 16, nil, mpi.GbE(), mpibench.PaperRates())
		if err != nil {
			b.Fatal(err)
		}
		virtual = res.Seconds
	}
	b.ReportMetric(virtual, "virtual-sec/op")
}

// --- fused kernel layer: the allocation-free min-plus path vs the
// original product + MatMin pipeline (run with -benchmem; the fused path
// must report 0 allocs/op) ---

// kernelBlockSizes are the block edges the kernel comparison is tracked
// at: the acceptance point b=256 and the out-of-cache point b=512.
var kernelBlockSizes = []int{256, 512}

// kernelOperand builds one dense benchmark operand at block edge n: varied
// finite values with a sprinkling of +Inf, as in a partially-relaxed
// distance block.
func kernelOperand(n, salt int) *matrix.Block {
	b := matrix.New(n, n)
	for i := range b.Data {
		if (i+salt)%11 == 0 {
			continue // leave +Inf
		}
		b.Data[i] = float64(((i+salt)*1103515245+12345)%1000) + 1
	}
	return b
}

// kernelOperands builds the three operands of one MinPlus call.
func kernelOperands(n int) (x, y, d *matrix.Block) {
	return kernelOperand(n, 0), kernelOperand(n, 1), kernelOperand(n, 2)
}

// BenchmarkKernelMinPlusUnfused is the pre-fusion pipeline: materialize
// the min-plus product, then fold it element-wise into the destination —
// two allocations and an extra O(b^2) pass per call.
func BenchmarkKernelMinPlusUnfused(b *testing.B) {
	for _, n := range kernelBlockSizes {
		x, y, d := kernelOperands(n)
		b.Run(fmt.Sprintf("b=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				prod, err := matrix.MinPlusMul(x, y)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := matrix.MatMin(prod, d); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchKernelFused measures the fused path the solvers use: seed the
// arena destination from d and fold the product into it in one pass.
// 0 allocs/op amortized.
func benchKernelFused(b *testing.B, name string, n int, into func(x, y, dst *matrix.Block) error) {
	x, y, d := kernelOperands(n)
	dst := matrix.Get(n, n)
	defer matrix.Put(dst)
	b.Run(name, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := dst.CopyFrom(d); err != nil {
				b.Fatal(err)
			}
			if err := into(x, y, dst); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkKernelMinPlusFused is the same computation as the unfused
// pipeline through matrix.MinPlusInto.
func BenchmarkKernelMinPlusFused(b *testing.B) {
	for _, n := range kernelBlockSizes {
		benchKernelFused(b, fmt.Sprintf("b=%d", n), n, matrix.MinPlusInto)
	}
}

// BenchmarkKernelMinPlusFusedParallel adds the intra-kernel row-panel
// sharding at the host's GOMAXPROCS (identical results, scaling with
// cores; on a single-core host it degenerates to the serial path).
func BenchmarkKernelMinPlusFusedParallel(b *testing.B) {
	workers := runtime.GOMAXPROCS(0)
	for _, n := range kernelBlockSizes {
		benchKernelFused(b, fmt.Sprintf("b=%d/workers=%d", n, workers), n, func(x, y, dst *matrix.Block) error {
			return matrix.MinPlusIntoPar(x, y, dst, workers)
		})
	}
}

// BenchmarkKernelFloydWarshall tracks the diagonal-block kernel family:
// the classic serial kernel the solvers default to, and the blocked
// variant built on the fused tiled product (whose parallel path the
// engine selects when it has idle host workers).
func BenchmarkKernelFloydWarshall(b *testing.B) {
	x := kernelOperand(256, 0)
	work := matrix.Get(256, 256)
	b.Run("classic/b=256", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			work.CopyFrom(x)
			if err := matrix.FloydWarshall(work); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("blocked/b=256", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			work.CopyFrom(x)
			if err := matrix.FloydWarshallBlocked(work); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- ablations the paper argues from (§4.2) ---

// BenchmarkAblationCartesianVsColumn contrasts the pure-Spark cartesian
// product the paper abandoned with the column-block rewrite (§4.2): the
// cartesian path's replicated network traffic dwarfs the column path's.
func BenchmarkAblationCartesianVsColumn(b *testing.B) {
	in, err := core.NewPhantomInput(2048, 256)
	if err != nil {
		b.Fatal(err)
	}
	var ratio float64
	for i := 0; i < b.N; i++ {
		// Column-rewrite shuffle volume: one RS unit.
		rc, err := core.NewContext(benchCluster(), costmodel.PaperKernels())
		if err != nil {
			b.Fatal(err)
		}
		res, err := core.Run(context.Background(), rc, core.RepeatedSquaring{}, in, core.Options{MaxUnits: 1})
		if err != nil {
			b.Fatal(err)
		}
		colBytes := res.Metrics.ShuffleBytes + res.Metrics.SharedReadBytes

		// Cartesian volume: every partition's task replicates the full
		// RDD over the network (the paper's §4.2), so with B*p
		// partitions the traffic is RDD-bytes x B x p.
		var rddBytes int64
		for _, blk := range in.Blocks {
			rddBytes += blk.SizeBytes()
		}
		cartBytes := rddBytes * int64(rc.Cluster.Cores()*2)
		ratio = float64(cartBytes) / float64(colBytes)
	}
	b.ReportMetric(ratio, "cartesian-traffic-ratio")
}

// BenchmarkAblationPartitionerSkew quantifies PH vs MD partition
// imbalance at the paper's scale (the mechanism behind Figure 3 top vs
// middle).
func BenchmarkAblationPartitionerSkew(b *testing.B) {
	var skew float64
	for i := 0; i < b.N; i++ {
		census, err := bench.Figure3Partitions(131072, 1024, 2, []int{2048})
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range census {
			if c.Partitioner == core.PartitionerPH {
				skew = float64(c.Max) / c.Mean
			}
		}
	}
	b.ReportMetric(skew, "PH-max/mean")
}
