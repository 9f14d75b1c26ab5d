package difftest

import (
	"math"
	"math/rand"
	"testing"

	"apspark/internal/graph"
	"apspark/internal/matrix"
	"apspark/internal/serve"
	"apspark/internal/sparse"
)

// TestProducersAgree runs every producer on every corpus graph it takes,
// holds what it produced to the reference and to the metamorphic checks,
// and reads it back through every consumer.
func TestProducersAgree(t *testing.T) {
	t.Cleanup(func() { requireKernelsReached(t) })
	for _, p := range producers {
		t.Run(p.name, func(t *testing.T) {
			t.Parallel()
			for _, e := range corpus() {
				if p.maxN > 0 && e.g.N > p.maxN {
					continue
				}
				t.Run(e.name, func(t *testing.T) {
					s := solve(t, p, e, e.g)
					for i := range e.g.N {
						s.row("RowInto", i, s.m.Row(i))
					}
					s.metamorphic()
					for _, c := range consumers {
						if !c.store || s.out.path != "" {
							c.check(s, c.name)
						}
					}
				})
			}
		})
	}
}

// solve runs p on g, e's graph or a relabelled copy of it, and reads
// every row of what it produced back through its source.
func solve(t *testing.T, p producer, e *entry, g *graph.Graph) *subject {
	t.Helper()
	out := p.run(t, g, e.b)
	eng, err := serve.New(out.src, g)
	if err != nil {
		t.Fatal(err)
	}
	n := g.N
	s := &subject{t: t, e: e, p: p, out: out, m: matrix.New(n, n), eng: eng, h: serve.Handler(eng), rows: []int{0, n / 2, n - 1}}
	for _, i := range s.rows {
		for j := 0; j < n; j += max(n/16, 1) {
			s.pairs = append(s.pairs, serve.PairQuery{From: i, To: j}, serve.PairQuery{From: i, To: n - 1 - j})
		}
	}
	for i := range n {
		if _, err := out.src.RowInto(ctx, i, s.m.Row(i)); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// metamorphic checks what holds of any distance matrix: a zero diagonal,
// symmetry, and the triangle inequality on a sample of triples, exactly
// on integer weights and within the rounding of the cells involved on
// real ones (the reference itself is asymmetric there).
func (s *subject) metamorphic() {
	s.t.Helper()
	n := s.e.g.N
	// slack is the rounding (i, j) may carry: the producer's, and the
	// reference's own, which the bound also covers.
	slack := func(i, j int) float64 { return s.tol(i, j) + s.e.bound(i, j) }
	for i := range n {
		if s.m.At(i, i) != 0 {
			s.t.Fatalf("d(%d,%d) = %v", i, i, s.m.At(i, i))
		}
		for j := range n {
			if d, r := s.m.At(i, j), s.m.At(j, i); d != r && !(math.Abs(d-r) <= slack(i, j)+slack(j, i)) {
				s.t.Fatalf("d(%d,%d) = %v, d(%d,%d) = %v", i, j, d, j, i, r)
			}
		}
	}
	rng := rand.New(rand.NewSource(int64(n)))
	for range 4 * n {
		i, j, k := rng.Intn(n), rng.Intn(n), rng.Intn(n)
		via := s.m.At(i, j) + s.m.At(j, k)
		if s.m.At(i, k) > via+slack(i, j)+slack(j, k)+slack(i, k)+0x1p-52*via {
			s.t.Fatalf("d(%d,%d) = %v > d(%d,%d) + d(%d,%d) = %v", i, k, s.m.At(i, k), i, j, j, k, via)
		}
	}
}

// TestMetamorphic runs every producer again on two changed copies of an
// integer and a real corpus graph: with some weights lowered, where no
// distance may rise, and with its vertices relabelled, where every
// distance must follow its pair.
func TestMetamorphic(t *testing.T) {
	for _, p := range producers {
		t.Run(p.name, func(t *testing.T) {
			t.Parallel()
			for _, name := range []string{"ER sparse", "ER real"} {
				e := entryNamed(name)
				t.Run(name, func(t *testing.T) {
					before := solve(t, p, e, e.g)
					edges := e.g.Edges()
					for k := range edges {
						if k%3 == 0 {
							edges[k].W = math.Floor(edges[k].W / 2)
						}
					}
					lower, err := graph.FromEdges(e.g.N, edges)
					if err != nil {
						t.Fatal(err)
					}
					after := p.run(t, lower, e.b).src
					row := make([]float64, e.g.N)
					for i := range e.g.N {
						if _, err := after.RowInto(ctx, i, row); err != nil {
							t.Fatal(err)
						}
						for j, d := range row {
							if d > before.m.At(i, j)+2*before.tol(i, j) {
								t.Fatalf("d(%d,%d) rose from %v to %v as weights fell", i, j, before.m.At(i, j), d)
							}
						}
					}

					perm := rand.New(rand.NewSource(7)).Perm(e.g.N)
					moved, err := graph.FromEdges(e.g.N, relabel(e.g.Edges(), perm))
					if err != nil {
						t.Fatal(err)
					}
					s := solve(t, p, e, moved)
					// Held to the reference of the pair it moved from, with the
					// rounding its own store recorded for where it moved to.
					at := *before
					if lossy := s.out.lossy; lossy != nil {
						at.out.lossy = func(i, j int) float64 { return lossy(perm[i], perm[j]) }
					}
					for i := range e.g.N {
						for j := range e.g.N {
							if got := s.m.At(perm[i], perm[j]); !at.near(i, j, got) {
								t.Fatalf("d(%d,%d) = %v after relabelling, reference %v", i, j, got, e.ref.At(i, j))
							}
						}
					}
				})
			}
		})
	}
}

// requireKernelsReached fails unless the engines of "dij Engine.Solve",
// over the whole corpus, reached each batched panel kernel and each
// fallback at least once, where this build and CPU batch, and nothing but
// rows where they do not.
func requireKernelsReached(t *testing.T) {
	reached.Lock()
	defer reached.Unlock()
	for _, e := range corpus() {
		if !reached.graphs[e.g] {
			return // a -run filter skipped some of the corpus
		}
	}
	want := []string{"batch32 at the end", "batch16 after a range fallback", "row after a budget fallback"}
	if sparse.New(entryNamed("ER sparse").g).PanelKernel() != "batch32" {
		want = []string{"row at the end"}
	}
	for _, k := range want {
		if reached.kernels[k] == 0 {
			t.Errorf("no engine reached %s: %v", k, reached.kernels)
		}
	}
	if len(want) == 1 && len(reached.kernels) != 1 {
		t.Errorf("engines that cannot batch reached %v", reached.kernels)
	}
}
