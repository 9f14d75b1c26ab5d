package sparse

import (
	"context"
	"math/rand"
	"testing"

	"apspark/internal/graph"
	"apspark/internal/matrix"
)

// BenchmarkSolveER16 is the bench target's dij measurement in go-test
// form: full APSP on a connected ER graph at average degree 16.
func BenchmarkSolveER16(b *testing.B) {
	n := 2048
	g, err := graph.ErdosRenyiConnected(n, graph.AvgDegreeProb(n, 16), graph.IntegerWeights(100), 42)
	if err != nil {
		b.Fatal(err)
	}
	e := New(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := e.Solve(context.Background(), 256, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolveRow measures one source on an ER graph with integer
// weights — the unit the zero-alloc pin covers.
func BenchmarkSolveRow(b *testing.B) {
	benchSolveRow(b, graph.IntegerWeights(100))
}

// BenchmarkSolveRowFloat is the same row over uniform real weights, the
// paper's kind of input.
func BenchmarkSolveRowFloat(b *testing.B) {
	benchSolveRow(b, graph.UniformWeights(100))
}

func benchSolveRow(b *testing.B, weights graph.WeightFn) {
	n := 8192
	g, err := graph.ErdosRenyiConnected(n, graph.AvgDegreeProb(n, 16), weights, 42)
	if err != nil {
		b.Fatal(err)
	}
	e := New(g)
	row := make([]float64, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.SolveRowInto(i%n, row); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolvePanel* time one 256-row panel at n = 4096 on each panel
// kernel — 32 sources at a time on 16-bit lanes, 16 on 32-bit lanes, the
// radix rows — one worker, on the shapes that place the kernel's work
// budget: an ER graph and a planted partition it is built for, a grid and
// a path in label order where it is ahead by less (and where the path's
// distances outgrow 16 bits, so batch32 pays for one thrown-away batch and
// goes on as batch16), and the same path with shuffled labels, where it
// overruns the budget once and the rest of the panel runs on the rows.
func BenchmarkSolvePanelER16(b *testing.B) {
	benchSolvePanel(b, intER(b, 4096, 16, 42))
}

func BenchmarkSolvePanelPlanted(b *testing.B) {
	benchSolvePanel(b, mustPlanted(b, 4096, 8))
}

func BenchmarkSolvePanelGrid(b *testing.B) {
	benchSolvePanel(b, mustGraph(b, 4096, grid(64, rand.New(rand.NewSource(42)))))
}

func BenchmarkSolvePanelPath(b *testing.B) {
	benchSolvePanel(b, mustGraph(b, 4096, chain(4096, 1, 7, 100)))
}

func BenchmarkSolvePanelPathShuffled(b *testing.B) {
	benchSolvePanel(b, mustGraph(b, 4096, relabel(chain(4096, 1, 7, 100), rand.New(rand.NewSource(42)).Perm(4096))))
}

func benchSolvePanel(b *testing.B, g *graph.Graph) {
	panel := matrix.NewZero(256, g.N)
	for _, kernel := range []struct {
		name string
		new  func(*graph.Graph) *Engine
	}{{"batch32", New}, {"batch16", startAt16}, {"row", rowsOnly}} {
		b.Run(kernel.name, func(b *testing.B) {
			if kernel.name != "row" {
				requireBatchKernel(b)
			}
			for i := 0; i < b.N; i++ {
				// A fresh engine per panel: one that narrowed stays narrow.
				if err := solveBlock(kernel.new(g), (i*256)%g.N, panel, 1); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N*panel.R)/b.Elapsed().Seconds(), "rows/s")
		})
	}
}
