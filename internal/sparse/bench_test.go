package sparse

import (
	"context"
	"testing"

	"apspark/internal/graph"
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

// BenchmarkSolveRow measures one source on the same graph — the unit the
// zero-alloc pin covers — over the Dial queue integer weights select.
func BenchmarkSolveRow(b *testing.B) {
	benchSolveRow(b, graph.IntegerWeights(100), "dial")
}

// BenchmarkSolveRowFloat is the same row over uniform real weights, which
// keep the radix heap: the float path stays measured beside the integer
// one.
func BenchmarkSolveRowFloat(b *testing.B) {
	benchSolveRow(b, graph.UniformWeights(100), "radix")
}

func benchSolveRow(b *testing.B, weights graph.WeightFn, queue string) {
	n := 8192
	g, err := graph.ErdosRenyiConnected(n, graph.AvgDegreeProb(n, 16), weights, 42)
	if err != nil {
		b.Fatal(err)
	}
	e := New(g)
	if e.Queue() != queue {
		b.Fatalf("queue = %s, want %s", e.Queue(), queue)
	}
	row := make([]float64, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.SolveRowInto(i%n, row); err != nil {
			b.Fatal(err)
		}
	}
}
