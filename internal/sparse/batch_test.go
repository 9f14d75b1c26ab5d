package sparse

import (
	"bytes"
	"context"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"apspark/internal/graph"
	"apspark/internal/matrix"
	"apspark/internal/obs"
)

// batchSweepGo is the assembly's oracle: the same sweep, one lane at a
// time.
func batchSweepGo(dp *uint32, dirty []byte, rowPtr []int32, arcs []arc) int {
	d := unsafe.Slice(dp, (len(rowPtr)-1)*batchWidth)
	visits := 0
	// Eight flags at a time: a vertex marked by a neighbour above it in
	// its own word of flags waits for the next sweep, like any vertex
	// marked from above.
	for w0 := 0; w0 < len(rowPtr)-1; w0 += 8 {
		for v := w0; v < min(w0+8, len(rowPtr)-1); v++ {
			if dirty[v] == 0 {
				continue
			}
			dirty[v] = 0
			visits++
			dv := d[v*batchWidth:][:batchWidth]
			acc := [batchWidth]uint32(dv)
			for _, a := range arcs[rowPtr[v]:rowPtr[v+1]] {
				du := d[int(a>>arcWeightBits)*batchWidth:][:batchWidth]
				for j := range acc {
					acc[j] = min(acc[j], du[j]+uint32(a&(1<<arcWeightBits-1)))
				}
			}
			if acc == [batchWidth]uint32(dv) {
				continue
			}
			copy(dv, acc[:])
			for _, a := range arcs[rowPtr[v]:rowPtr[v+1]] {
				dirty[a>>arcWeightBits] = 1
			}
		}
	}
	return visits
}

// rowsOnly returns an engine over g that never batches — the Dial rows
// (or the radix heap) the batched kernel is compared with.
func rowsOnly(g *graph.Graph) *Engine {
	e := New(g)
	e.batching.Store(false)
	return e
}

func requireBatchKernel(t testing.TB) {
	t.Helper()
	if !haveBatchKernel {
		t.Skip("no batched kernel in this build or on this CPU")
	}
}

func grid(side int, rng *rand.Rand) []graph.Edge {
	var edges []graph.Edge
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			if v := r*side + c; c+1 < side {
				edges = append(edges, graph.Edge{U: v, V: v + 1, W: float64(1 + rng.Intn(100))})
			}
			if v := r*side + c; r+1 < side {
				edges = append(edges, graph.Edge{U: v, V: v + side, W: float64(1 + rng.Intn(100))})
			}
		}
	}
	return edges
}

// relabel renames every vertex of edges through perm.
func relabel(edges []graph.Edge, perm []int) []graph.Edge {
	out := make([]graph.Edge, len(edges))
	for i, e := range edges {
		out[i] = graph.Edge{U: perm[e.U], V: perm[e.V], W: e.W}
	}
	return out
}

// TestBatchSweepMatchesGoOracle drives the assembly and the Go sweep side
// by side from the same start and requires the same visits, distances and
// dirty bits after every sweep.
func TestBatchSweepMatchesGoOracle(t *testing.T) {
	requireBatchKernel(t)
	rng := rand.New(rand.NewSource(5))
	for _, g := range []*graph.Graph{
		intERMaxW(t, 300, 3, 255, 1),
		intER(t, 1000, 16, 2),
		mustGraph(t, 130, star(130, dialMaxWeight, 0, 64)),
		mustGraph(t, 32*32, grid(32, rng)),
		mustGraph(t, 517, relabel(chain(517, 1, 0, 255), rng.Perm(517))),
	} {
		e := New(g)
		a, b := e.newBatchState(), e.newBatchState()
		for base := 0; base < g.N; base += 97 {
			k := min(batchWidth, g.N-base)
			a.seed(e, base, k)
			b.seed(e, base, k)
			for sweep := 0; ; sweep++ {
				va := batchSweepAVX2(&a.d[0], a.dirty, e.rowPtr, e.dial.arcs)
				vb := batchSweepGo(&b.d[0], b.dirty, e.rowPtr, e.dial.arcs)
				if va != vb || !slices.Equal(a.d, b.d) || !slices.Equal(a.dirty, b.dirty) {
					t.Fatalf("n=%d base=%d sweep %d: assembly visited %d, oracle %d; state equal: d %v dirty %v",
						g.N, base, sweep, va, vb, slices.Equal(a.d, b.d), slices.Equal(a.dirty, b.dirty))
				}
				if va == 0 {
					break
				}
			}
			a.reset()
			b.reset()
		}
	}
}

// TestBatchedPanelsMatchRowsAndRadix is the differential pin for the
// panel kernel: the engine as built (batching where it can), the same
// engine held to single rows and the radix heap forced onto the graph
// agree on every distance, bit for bit, and on the settled-vertex count.
func TestBatchedPanelsMatchRowsAndRadix(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	shuffled := relabel(chain(4096, 1, 7, 100), rng.Perm(4096))
	cases := []struct {
		name      string
		g         *graph.Graph
		panelRows int
		fallbacks int64 // batches abandoned over budget
	}{
		{"ER sparse", intER(t, 700, 3, 1), 64, 0},
		{"ER dense", intER(t, 300, 64, 2), 48, 0},
		{"planted", mustPlanted(t, 1024, 8), 256, 0},
		{"grid 64x64", mustGraph(t, 4096, grid(64, rng)), 256, 0},
		{"star", mustGraph(t, 700, star(700, 7, 1, 255)), 100, 0},
		{"path in order", mustGraph(t, 2000, chain(2000, 1, 7, 100)), 128, 0},
		{"path, shuffled labels", mustGraph(t, 4096, shuffled), 256, 1},
		{"disconnected + isolated", mustGraph(t, 40, append(chain(17, 2, 3), graph.Edge{U: 20, V: 39, W: 255})), 16, 0},
		{"zero-weight edges", mustGraph(t, 200, append(chain(200, 0, 0, 3), star(200, 0, 9)...)), 32, 0},
		{"all weights 1", intERMaxW(t, 500, 6, 1, 3), 64, 0},
		{"a weight of 255", mustGraph(t, 300, chain(300, dialMaxWeight, 1)), 64, 0},
		{"duplicate edges", mustGraph(t, 20, append(chain(20, 9), chain(20, 2, 30)...)), 16, 0},
		{"n=1", mustGraph(t, 1, nil), 16, 0},
		{"n=15", intER(t, 15, 4, 4), 16, 0},
		{"n=16", intER(t, 16, 4, 5), 16, 0},
		{"n=17", intER(t, 17, 4, 6), 16, 0},
		{"n=4097, ragged last panel", intER(t, 4097, 4, 7), 1024, 0},
		{"panel shorter than a batch", intER(t, 100, 5, 8), 7, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e, rows, radix := New(tc.g), rowsOnly(tc.g), radixOnly(tc.g)
			if e.Queue() != "dial" {
				t.Fatalf("queue = %s, want dial", e.Queue())
			}
			if batches := e.PanelKernel() == "batch16"; batches != haveBatchKernel {
				t.Fatalf("panel kernel = %s with haveBatchKernel = %v", e.PanelKernel(), haveBatchKernel)
			}
			// Every panel of a small graph; the first, one inside and the
			// (ragged) last of a large one.
			n, b := tc.g.N, tc.panelRows
			last := (n - 1) / b
			panels := []int{0, last / 2, last}
			if n <= 1024 {
				panels = panels[:0]
				for bi := 0; bi <= last; bi++ {
					panels = append(panels, bi)
				}
			}
			for _, bi := range panels {
				h := min(b, n-bi*b)
				var got [3]*matrix.Block
				for i, eng := range []*Engine{e, rows, radix} {
					got[i] = matrix.NewZero(h, n)
					if err := eng.SolvePanel(context.Background(), bi*b, got[i], 2); err != nil {
						t.Fatal(err)
					}
				}
				requireBitIdentical(t, got[0], got[1])
				requireBitIdentical(t, got[0], got[2])
			}
			if e.settled.Load() != rows.settled.Load() || e.srcSolved.Load() != rows.srcSolved.Load() {
				t.Fatalf("settled %d over %d sources, rows-only engine %d over %d",
					e.settled.Load(), e.srcSolved.Load(), rows.settled.Load(), rows.srcSolved.Load())
			}
			if !haveBatchKernel {
				return
			}
			if e.batchFallbacks.Load() != tc.fallbacks {
				t.Fatalf("batch fallbacks = %d, want %d", e.batchFallbacks.Load(), tc.fallbacks)
			}
			if fellBack := e.PanelKernel() == "row"; fellBack != (tc.fallbacks > 0) {
				t.Fatalf("panel kernel = %s after the solve and %d fallbacks", e.PanelKernel(), tc.fallbacks)
			}
		})
	}
}

func mustPlanted(t testing.TB, n, communities int) *graph.Graph {
	t.Helper()
	g, err := graph.PlantedPartitionConnected(n, communities, 0.06, 0.001, graph.IntegerWeights(100), 3)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestBatchNeedsTheDialView: a weight of 256 (or a real one) keeps the
// radix heap and single rows.
func TestBatchNeedsTheDialView(t *testing.T) {
	for _, edges := range [][]graph.Edge{chain(40, 3, dialMaxWeight+1), chain(40, 1.5)} {
		e := New(mustGraph(t, 40, edges))
		if e.Queue() != "radix" || e.PanelKernel() != "row" {
			t.Fatalf("queue %s, panel kernel %s; want radix, row", e.Queue(), e.PanelKernel())
		}
	}
}

// TestBatchFallbackIsExactAndSticky: on a graph that overruns the budget
// the panel comes back exact from the Dial rows, the engine reports it
// once and never batches again, and the scratch the abandoned batch used
// is clean for the next engine state.
func TestBatchFallbackIsExactAndSticky(t *testing.T) {
	requireBatchKernel(t)
	const n = 4096
	g := mustGraph(t, n, relabel(chain(n, 1, 7, 100), rand.New(rand.NewSource(2)).Perm(n)))
	e := New(g)
	reg := obs.NewRegistry()
	e.RegisterMetrics(reg)
	panel := matrix.NewZero(64, n)
	if err := e.SolvePanel(context.Background(), 128, panel, 2); err != nil {
		t.Fatal(err)
	}
	if e.batchFallbacks.Load() != 1 || e.PanelKernel() != "row" {
		t.Fatalf("fallbacks = %d, panel kernel = %s; want 1, row", e.batchFallbacks.Load(), e.PanelKernel())
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"apsp_sparse_batch_fallbacks_total 1", `apsp_sparse_panel_kernel_info{impl="row"} 1`, `apsp_sparse_panel_kernel_info{impl="batch16"} 0`} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	want := make([]float64, n)
	r := radixOnly(g)
	for i := 0; i < panel.R; i++ {
		if err := r.SolveRowInto(128+i, want); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(panel.Row(i), want) {
			t.Fatalf("row %d differs from the radix heap's after a fallback", 128+i)
		}
	}
	if err := e.SolvePanel(context.Background(), 0, panel, 2); err != nil {
		t.Fatal(err)
	}
	if e.batchFallbacks.Load() != 1 {
		t.Fatalf("fallbacks = %d after a second panel, want still 1", e.batchFallbacks.Load())
	}
	s := e.batchScratch.Get().(*batchState)
	if i := slices.IndexFunc(s.d, func(d uint32) bool { return d != unreached }); i >= 0 {
		t.Fatalf("abandoned batch left d[%d] = %d", i, s.d[i])
	}
	if i := slices.IndexFunc(s.dirty, func(f byte) bool { return f != 0 }); i >= 0 {
		t.Fatalf("abandoned batch left vertex %d dirty", i)
	}
}

// FuzzBatchMatchesDial builds a small integer-weight graph from the fuzz
// input and requires batched panels to equal the Dial rows.
func FuzzBatchMatchesDial(f *testing.F) {
	f.Add(int64(1), uint8(12), uint8(30), uint8(9), uint8(16))
	f.Add(int64(2), uint8(1), uint8(0), uint8(0), uint8(1))
	f.Add(int64(3), uint8(80), uint8(200), uint8(255), uint8(33))
	f.Add(int64(4), uint8(25), uint8(60), uint8(0), uint8(5))
	f.Fuzz(func(t *testing.T, seed int64, nv, ne, maxW, panelRows uint8) {
		n := int(nv)%96 + 1
		rng := rand.New(rand.NewSource(seed))
		edges := make([]graph.Edge, ne)
		for i := range edges {
			edges[i] = graph.Edge{U: rng.Intn(n), V: rng.Intn(n), W: float64(rng.Intn(int(maxW) + 1))}
		}
		g := mustGraph(t, n, edges)
		b := int(panelRows)%40 + 1
		got, _, err := New(g).Solve(context.Background(), b, Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := rowsOnly(g).Solve(context.Background(), b, Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		requireBitIdentical(t, got, want)
	})
}
