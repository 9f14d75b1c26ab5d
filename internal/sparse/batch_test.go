package sparse

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"apspark/internal/graph"
	"apspark/internal/matrix"
	"apspark/internal/obs"
)

// batchSweepGo is the assembly's oracle: the same sweep from vertex start,
// one lane at a time, at either lane type (the 16-bit add saturates).
func batchSweepGo[T lane](d []T, dirty []byte, rowPtr []int32, arcs []arc, start int) int {
	lanes := lanesOf[T]()
	acc := make([]T, lanes)
	visits := 0
	// Eight flags at a time: a vertex marked by a neighbour above it in
	// its own word of flags waits for the next sweep, like any vertex
	// marked from above.
	for w0 := start; w0 < len(rowPtr)-1; w0 += 8 {
		for v := w0; v < min(w0+8, len(rowPtr)-1); v++ {
			if dirty[v] == 0 {
				continue
			}
			dirty[v] = 0
			visits++
			dv := d[v*lanes:][:lanes]
			copy(acc, dv)
			for _, a := range arcs[rowPtr[v]:rowPtr[v+1]] {
				du := d[int(a>>arcWeightBits)*lanes:][:lanes]
				for j := range acc {
					sum := du[j] + T(a&(1<<arcWeightBits-1))
					if lanes == batch32 && sum < du[j] {
						sum = ^T(0)
					}
					acc[j] = min(acc[j], sum)
				}
			}
			if slices.Equal(acc, dv) {
				continue
			}
			copy(dv, acc)
			for _, a := range arcs[rowPtr[v]:rowPtr[v+1]] {
				dirty[a>>arcWeightBits] = 1
			}
		}
	}
	return visits
}

// rowsOnly returns an engine over g that never batches — the radix rows
// the batched kernel is compared with.
func rowsOnly(g *graph.Graph) *Engine {
	e := New(g)
	e.width.Store(rowWise)
	return e
}

// radixRows is g's distance matrix from the radix rows alone: no batch,
// no seed.
func radixRows(t testing.TB, g *graph.Graph) *matrix.Block {
	t.Helper()
	m, _, err := rowsOnly(g).Solve(context.Background(), 64, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// solveBlock solves the rows of sources base.. into panel, unseeded.
func solveBlock(e *Engine, base int, panel *matrix.Block, workers int) error {
	_, _, err := solvePanel(context.Background(), e, base, panel.Data[:panel.R*e.n], panel.R, workers, above[float64]{})
	return err
}

// startAt16 returns an engine over g that starts on the narrower batched
// kernel, as if an earlier batch had outgrown 16-bit lanes.
func startAt16(g *graph.Graph) *Engine {
	e := New(g)
	e.width.CompareAndSwap(batch32, batch16)
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
// by side from the same start, at both lane types, and requires the same
// visits, distances and dirty bits after every sweep: from a batch's own
// seed, and from a seeded panel's — the lanes of a random number of
// vertices below the batch (a multiple of 8 or not) at their distances,
// the sweeps starting at that number rounded down to 8.
func TestBatchSweepMatchesGoOracle(t *testing.T) {
	requireBatchKernel(t)
	rng := rand.New(rand.NewSource(5))
	for _, g := range []*graph.Graph{
		intERMaxW(t, 300, 3, 255, 1),
		intER(t, 1000, 16, 2),
		mustGraph(t, 130, star(130, maxArcWeight, 0, 64)),
		mustGraph(t, 32*32, grid(32, rng)),
		mustGraph(t, 517, relabel(chain(517, 1, 0, 255), rng.Perm(517))),
		// 102,000 end to end: the 16-bit lanes saturate on the way.
		mustGraph(t, 401, chain(401, maxArcWeight)),
	} {
		e, want := New(g), radixRows(t, g)
		sweepMatchesGoOracle[uint16](t, e, want, rng)
		sweepMatchesGoOracle[uint32](t, e, want, rng)
	}
}

func sweepMatchesGoOracle[T lane](t *testing.T, e *Engine, want *matrix.Block, rng *rand.Rand) {
	a, b, g := newBatchState[T](e.n), newBatchState[T](e.n), e.kernel.Load()
	for base := 0; base < e.n; base += 97 {
		k := min(lanesOf[T](), e.n-base)
		for _, seeded := range []int{0, rng.Intn(base + 1)} {
			if job := (&panelJob[float64]{base: base, above: seeded, up: above[float64]{whole: want.Data}}); seeded == 0 {
				a.seed(g, base, k)
				b.seed(g, base, k)
			} else if _, ok := seedAbove(a, e, job, 0, k); !ok {
				a.reset() // a seed past the 16-bit lanes: the batch would narrow
				continue
			} else {
				seedAbove(b, e, job, 0, k)
			}
			start := seeded &^ 7
			for sweep := 0; ; sweep++ {
				va := a.sweep(g, start)
				vb := batchSweepGo(b.d, b.dirty, e.rowPtr, e.arcs, start)
				if va != vb || !slices.Equal(a.d, b.d) || !slices.Equal(a.dirty, b.dirty) {
					t.Fatalf("n=%d, %d lanes, base=%d, %d seeded, sweep %d: assembly visited %d, oracle %d; state equal: d %v dirty %v",
						e.n, lanesOf[T](), base, seeded, sweep, va, vb, slices.Equal(a.d, b.d), slices.Equal(a.dirty, b.dirty))
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
// panel kernel: the engine as built (batching where it can, on the widest
// lanes the distances allow), the same engine started on the 32-bit lanes
// and the same engine held to single radix rows agree on every distance,
// bit for bit, and on the settled-vertex count — a batch thrown away on
// the way counts nothing.
func TestBatchedPanelsMatchRowsAndRadix(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	shuffled := relabel(chain(4096, 1, 7, 100), rng.Perm(4096))
	cases := []struct {
		name      string
		g         *graph.Graph
		panelRows int
		ends      string // the kernel the engine as built is on after the solve
		ranges    int64  // batches thrown away for a distance past 16 bits
		budgets   int64  // batches abandoned over budget
	}{
		{"ER sparse", intER(t, 700, 3, 1), 64, "batch32", 0, 0},
		{"ER dense", intER(t, 300, 64, 2), 48, "batch32", 0, 0},
		{"planted", mustPlanted(t, 1024, 8), 256, "batch32", 0, 0},
		{"grid 64x64", mustGraph(t, 4096, grid(64, rng)), 256, "batch32", 0, 0},
		{"star", mustGraph(t, 700, star(700, 7, 1, 255)), 100, "batch32", 0, 0},
		// 71,929 from end to end.
		{"path in order", mustGraph(t, 2000, chain(2000, 1, 7, 100)), 128, "batch16", 1, 0},
		// 147,000 from end to end, so the 16-bit lanes saturate before the
		// sweeps run out of budget: one batch thrown away, and the next,
		// on 32-bit lanes, abandoned.
		{"path, shuffled labels", mustGraph(t, 4096, shuffled), 256, "row", 1, 1},
		{"short path, shuffled labels", mustGraph(t, 4096, relabel(chain(4096, 1, 7, 10), rng.Perm(4096))), 256, "row", 0, 1},
		{"disconnected + isolated", mustGraph(t, 40, append(chain(17, 2, 3), graph.Edge{U: 20, V: 39, W: 255})), 16, "batch32", 0, 0},
		{"zero-weight edges", mustGraph(t, 200, append(chain(200, 0, 0, 3), star(200, 0, 9)...)), 32, "batch32", 0, 0},
		{"all weights 1", intERMaxW(t, 500, 6, 1, 3), 64, "batch32", 0, 0},
		{"a weight of 255", mustGraph(t, 300, chain(300, maxArcWeight, 1)), 64, "batch32", 0, 0},
		{"duplicate edges", mustGraph(t, 20, append(chain(20, 9), chain(20, 2, 30)...)), 16, "batch32", 0, 0},
		{"n=1", mustGraph(t, 1, nil), 16, "batch32", 0, 0},
		{"n=15", intER(t, 15, 4, 4), 16, "batch32", 0, 0},
		{"n=16", intER(t, 16, 4, 5), 16, "batch32", 0, 0},
		{"n=17", intER(t, 17, 4, 6), 16, "batch32", 0, 0},
		{"n=31", intER(t, 31, 4, 4), 32, "batch32", 0, 0},
		{"n=33", intER(t, 33, 4, 6), 64, "batch32", 0, 0},
		{"n=4097, ragged last panel", intER(t, 4097, 4, 7), 1024, "batch32", 0, 0},
		{"panel shorter than a batch", intER(t, 100, 5, 8), 7, "batch32", 0, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e, e16, rows := New(tc.g), startAt16(tc.g), rowsOnly(tc.g)
			if batches := e.PanelKernel() == "batch32" && e16.PanelKernel() == "batch16"; batches != haveBatchKernel {
				t.Fatalf("panel kernels = %s, %s with haveBatchKernel = %v", e.PanelKernel(), e16.PanelKernel(), haveBatchKernel)
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
			engines := []*Engine{e, e16, rows}
			for _, bi := range panels {
				h := min(b, n-bi*b)
				got := make([]*matrix.Block, len(engines))
				for i, eng := range engines {
					got[i] = matrix.NewZero(h, n)
					if err := solveBlock(eng, bi*b, got[i], 2); err != nil {
						t.Fatal(err)
					}
					requireBitIdentical(t, got[i], got[0])
					// The same panel on uint32 cells: the lanes, or the
					// radix rows, converted exactly.
					cells := make([]uint32, h*n)
					if _, _, err := solvePanel(context.Background(), eng, bi*b, cells, h, 2, above[uint32]{}); err != nil {
						t.Fatal(err)
					}
					requireIntCells(t, cells, got[0])
				}
			}
			for _, eng := range engines[:2] {
				if eng.settled.Load() != rows.settled.Load() || eng.srcSolved.Load() != rows.srcSolved.Load() {
					t.Fatalf("settled %d over %d sources, rows-only engine %d over %d",
						eng.settled.Load(), eng.srcSolved.Load(), rows.settled.Load(), rows.srcSolved.Load())
				}
			}
			if !haveBatchKernel {
				return
			}
			if e.PanelKernel() != tc.ends || e.rangeFallbacks.Load() != tc.ranges || e.budgetFallbacks.Load() != tc.budgets {
				t.Fatalf("ended on %s after %d range and %d budget fallbacks, want %s after %d and %d",
					e.PanelKernel(), e.rangeFallbacks.Load(), e.budgetFallbacks.Load(), tc.ends, tc.ranges, tc.budgets)
			}
			want16 := "batch16"
			if tc.budgets > 0 {
				want16 = "row"
			}
			if e16.PanelKernel() != want16 || e16.rangeFallbacks.Load() != 0 || e16.budgetFallbacks.Load() != tc.budgets {
				t.Fatalf("started on batch16: ended on %s after %d range and %d budget fallbacks, want %s after 0 and %d",
					e16.PanelKernel(), e16.rangeFallbacks.Load(), e16.budgetFallbacks.Load(), want16, tc.budgets)
			}
		})
	}
}

// TestSeededPanelsMatchRadixRows: a panel seeded from the rows above it
// equals the radix rows — streamed, reading back what it has written
// (from the start, and resumed at panel 2 over rows it did not solve);
// each panel alone on a fresh engine, seeded from tiles read back only,
// the way a generation rebuild seeds a dirty panel after a copied one;
// and in memory. The graphs cover batches that stand, a seed past 16 bits
// (the 75,000 chain's last panel on a fresh engine: thrown away before it
// sweeps, and solved on 32-bit lanes), a budget overrun, no-path cells and
// a ragged last panel. Where the batches stand, seeding cuts the sweeps'
// visits.
func TestSeededPanelsMatchRadixRows(t *testing.T) {
	requireBatchKernel(t)
	ctx := context.Background()
	rng := rand.New(rand.NewSource(12))
	for _, tc := range []struct {
		name  string
		g     *graph.Graph
		b     int
		fewer bool // the batches stand: seeding must cut the visits
	}{
		{"ER", intER(t, 600, 6, 21), 64, true},
		{"planted", mustPlanted(t, 512, 8), 128, true},
		{"disconnected + isolated", mustGraph(t, 40, append(chain(17, 2, 3), graph.Edge{U: 20, V: 39, W: 255})), 8, false},
		{"75,000 chain", mustGraph(t, 301, chain(301, 250)), 64, false},
		{"shuffled path", mustGraph(t, 1024, relabel(chain(1024, 7), rng.Perm(1024))), 256, false},
		{"n=131 b=32", intER(t, 131, 5, 22), 32, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n, b := tc.g.N, tc.b
			want := radixRows(t, tc.g)
			// stream solves into a sink that holds the first panels already
			// and, unless it is lossy, reads back what it holds.
			stream := func(first int, lossy bool) *Engine {
				t.Helper()
				e, s := New(tc.g), newMemSink(n, b)
				s.next, s.lossy = first, lossy
				copy(s.dist, want.Data[:first*b*n])
				if _, err := e.SolveTo(ctx, s, Options{Workers: 2}); err != nil {
					t.Fatal(err)
				}
				if s.ints != (n+b-1)/b-first {
					t.Fatalf("%d of %d panels written as uint32 cells", s.ints, (n+b-1)/b-first)
				}
				requireBitIdentical(t, s.held(), want)
				return e
			}
			seeded, unseeded := stream(0, false), stream(0, true)
			if tc.fewer && seeded.sweepVisits.Load() >= unseeded.sweepVisits.Load() {
				t.Errorf("sweep visits %d seeded, %d unseeded", seeded.sweepVisits.Load(), unseeded.sweepVisits.Load())
			}
			if last := (n - 1) / b; last >= 2 {
				stream(2, false)
			}

			for bi := 0; bi*b < n; bi++ {
				e, h := New(tc.g), min(b, n-bi*b)
				p, _, err := solvePanel(ctx, e, bi*b, make([]uint32, h*n), h, 2, above[uint32]{b: b, read: tilesOf(want.Data, n, b)})
				if err != nil {
					t.Fatal(err)
				}
				for r := 0; r < h; r++ {
					for v := 0; v < n; v++ {
						if got := cellOf(p.sink(), n, b, bi, r, v); got != want.At(bi*b+r, v) {
							t.Fatalf("panel %d alone: cell (%d,%d) = %v, want %v", bi, r, v, got, want.At(bi*b+r, v))
						}
					}
				}
				if tc.name == "75,000 chain" && bi == (n-1)/b && (e.rangeFallbacks.Load() != 1 || e.PanelKernel() != "batch16") {
					t.Fatalf("last panel: %d range fallbacks, on %s; want 1, batch16", e.rangeFallbacks.Load(), e.PanelKernel())
				}
			}

			got, _, err := New(tc.g).Solve(ctx, b, Options{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			requireBitIdentical(t, got, want)
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

// TestBatchNeedsTheDialView: a weight of 256 (or a real one) does not fit
// an arc, so the engine has no arcs and panels run single rows.
func TestBatchNeedsTheDialView(t *testing.T) {
	for _, edges := range [][]graph.Edge{chain(40, 3, maxArcWeight+1), chain(40, 1.5)} {
		e := New(mustGraph(t, 40, edges))
		if e.arcs != nil || e.PanelKernel() != "row" {
			t.Fatalf("arcs %v, panel kernel %s; want none, row", e.arcs != nil, e.PanelKernel())
		}
		// Nor do its distances fit uint32 cells, on any build.
		if e.intDistances || streamedInts(t, e) != 0 {
			t.Fatal("uint32 panels streamed on a graph whose distances need float64")
		}
	}
	if e := New(mustGraph(t, 40, chain(40, 0, maxArcWeight))); !e.intDistances || streamedInts(t, e) != 5 {
		t.Fatal("a graph of integer weights in [0, 255] streams no uint32 panels")
	}
}

// TestPackArcsDecidesLikeTrunc holds the weight check packArcs makes as
// it packs to the definition it replaced: an integer in [0, 255] is a
// w with 0 <= w <= 255 and w == math.Trunc(w).
func TestPackArcsDecidesLikeTrunc(t *testing.T) {
	for _, w := range []float64{
		0, math.Copysign(0, -1), 1, 2, 254, maxArcWeight, maxArcWeight + 1, 0.5, 1.5, 254.5, 255.5,
		math.SmallestNonzeroFloat64, math.Nextafter(1, 2), math.Nextafter(255, 0), -1, -0.5, -255,
		1 << 31, 1 << 32, 1<<32 + 1, 1<<32 + 7, 1 << 63, 1 << 64, 1e300, math.MaxFloat64,
		math.Inf(1), math.Inf(-1), math.NaN(),
	} {
		want := w >= 0 && w <= maxArcWeight && w == math.Trunc(w)
		arcs, ok, _ := packArcs(2, []int32{1, 0}, []float64{3, w})
		if ok != want {
			t.Errorf("weight %v: packArcs says %v, want %v", w, ok, want)
		}
		if ok && arcs[1] != arc(uint32(w)) {
			t.Errorf("weight %v packed as %#x", w, arcs[1])
		}
	}
	if _, ok, _ := packArcs(maxN+1, nil, nil); ok {
		t.Error("a graph past maxN packed")
	}
}

// streamedInts solves e in panels of 8 rows and returns how many of them
// it wrote as uint32 cells.
func streamedInts(t *testing.T, e *Engine) int {
	t.Helper()
	s := newMemSink(e.n, 8)
	if _, err := e.SolveTo(context.Background(), s, Options{}); err != nil {
		t.Fatal(err)
	}
	return s.ints
}

// expositionHas fails unless every line of want is in e's /metrics text.
func expositionHas(t *testing.T, e *Engine, want ...string) {
	t.Helper()
	reg := obs.NewRegistry()
	e.RegisterMetrics(reg)
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, w := range want {
		if !strings.Contains(buf.String(), w) {
			t.Errorf("exposition missing %q", w)
		}
	}
}

// requireAtRest fails unless the engine's next scratch of lane type T is
// as a finished batch must leave it.
func requireAtRest[T lane](t *testing.T, f *freeList) {
	t.Helper()
	s := f.get().(*batchState[T])
	if i := slices.IndexFunc(s.d, func(d T) bool { return d != unreachedLane[T]() }); i >= 0 {
		t.Fatalf("a batch of %d lanes left d[%d] = %d", lanesOf[T](), i, s.d[i])
	}
	if i := slices.IndexFunc(s.dirty, func(f byte) bool { return f != 0 }); i >= 0 {
		t.Fatalf("a batch of %d lanes left vertex %d dirty", lanesOf[T](), i)
	}
}

// requireRadixRows fails unless panel holds the radix heap's rows of
// sources base.. on g.
func requireRadixRows(t *testing.T, g *graph.Graph, base int, panel *matrix.Block) {
	t.Helper()
	want := make([]float64, g.N)
	r := rowsOnly(g)
	for i := 0; i < panel.R; i++ {
		if err := r.SolveRowInto(base+i, want); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(panel.Row(i), want) {
			t.Fatalf("row %d differs from the radix heap's", base+i)
		}
	}
}

// TestBatchFallbackIsExactAndSticky: on a graph that overruns the budget
// the panel comes back exact from the radix rows, the engine reports it
// once and never batches again — whichever lanes it was on — and the
// scratch the abandoned batch used is clean.
func TestBatchFallbackIsExactAndSticky(t *testing.T) {
	requireBatchKernel(t)
	const n = 4096
	// 24,570 from end to end: inside 16 bits, so this is the budget alone.
	g := mustGraph(t, n, relabel(chain(n, 1, 7, 10), rand.New(rand.NewSource(2)).Perm(n)))
	for _, e := range []*Engine{New(g), startAt16(g)} {
		started := e.PanelKernel()
		panel := matrix.NewZero(64, n)
		if err := solveBlock(e, 128, panel, 2); err != nil {
			t.Fatal(err)
		}
		if e.budgetFallbacks.Load() != 1 || e.rangeFallbacks.Load() != 0 || e.PanelKernel() != "row" {
			t.Fatalf("from %s: %d budget and %d range fallbacks, panel kernel = %s; want 1, 0, row",
				started, e.budgetFallbacks.Load(), e.rangeFallbacks.Load(), e.PanelKernel())
		}
		expositionHas(t, e, `apsp_sparse_batch_fallbacks_total{reason="budget"} 1`, `apsp_sparse_batch_fallbacks_total{reason="range"} 0`,
			`apsp_sparse_panel_kernel_info{impl="row"} 1`, `apsp_sparse_panel_kernel_info{impl="batch16"} 0`, `apsp_sparse_panel_kernel_info{impl="batch32"} 0`)
		requireRadixRows(t, g, 128, panel)
		if err := solveBlock(e, 0, panel, 2); err != nil {
			t.Fatal(err)
		}
		if e.budgetFallbacks.Load() != 1 {
			t.Fatalf("from %s: %d budget fallbacks after a second panel, want still 1", started, e.budgetFallbacks.Load())
		}
		if started == "batch32" {
			requireAtRest[uint16](t, &e.batch32Scratch)
		} else {
			requireAtRest[uint32](t, &e.batch16Scratch)
		}
	}
}

// TestBatchRangeBoundary walks the largest distance of a graph across the
// 16-bit lanes' bound. The graph is a chain of weight-255 edges from
// vertex 3 on, the last one lighter where it has to be, so that its two
// ends are total apart and every other pair is at least 254 closer: of the
// sources 0..31, the first batch, only lane 3 carries the distance that
// decides.
// Vertices 0 and 1 are a component of their own and vertex 2 is isolated,
// so the same batch has lanes that reach next to nothing. At 0xFFFF-256
// the batch stands; from 0xFFFF-255 on it must be thrown away, counted
// once, and solved again on 32-bit lanes, where the engine then stays.
func TestBatchRangeBoundary(t *testing.T) {
	requireBatchKernel(t)
	for _, tc := range []struct {
		total int
		ends  string
	}{
		{0xFFFF - 256, "batch32"},
		{0xFFFF - 255, "batch16"},
		{0xFFFF, "batch16"},
		{0xFFFF + 255*40, "batch16"},
	} {
		edges := []graph.Edge{{U: 0, V: 1, W: 4}}
		v := 3
		for left := tc.total; left > 0; v++ {
			w := min(left, maxArcWeight)
			edges = append(edges, graph.Edge{U: v, V: v + 1, W: float64(w)})
			left -= w
		}
		n := v + 1
		g := mustGraph(t, n, edges)
		e, rows := New(g), rowsOnly(g)
		panel := matrix.NewZero(n, n)
		for pass := 0; pass < 2; pass++ {
			if err := solveBlock(e, 0, panel, 2); err != nil {
				t.Fatal(err)
			}
			if got := panel.At(3, n-1); got != float64(tc.total) {
				t.Fatalf("total %d: dist(3, %d) = %v", tc.total, n-1, got)
			}
			fell := int64(0)
			if tc.ends == "batch16" {
				fell = 1
			}
			if e.PanelKernel() != tc.ends || e.rangeFallbacks.Load() != fell || e.budgetFallbacks.Load() != 0 {
				t.Fatalf("total %d, pass %d: on %s after %d range and %d budget fallbacks; want %s after %d and 0",
					tc.total, pass, e.PanelKernel(), e.rangeFallbacks.Load(), e.budgetFallbacks.Load(), tc.ends, fell)
			}
			requireRadixRows(t, g, 0, panel)
		}
		if err := solveBlock(rows, 0, panel, 2); err != nil {
			t.Fatal(err)
		}
		if e.srcSolved.Load() != 2*rows.srcSolved.Load() || e.settled.Load() != 2*rows.settled.Load() {
			t.Fatalf("total %d: %d sources, %d settled over two passes; one pass of rows counts %d, %d",
				tc.total, e.srcSolved.Load(), e.settled.Load(), rows.srcSolved.Load(), rows.settled.Load())
		}
		expositionHas(t, e, `apsp_sparse_panel_kernel_info{impl="`+tc.ends+`"} 1`)
		requireAtRest[uint16](t, &e.batch32Scratch)
		requireAtRest[uint32](t, &e.batch16Scratch)
	}
}

// TestOutOfRangeSeedFailsThePanel: a batch that ends out of range on
// 32-bit lanes has no wider lanes to go to. A sink that reads back a seed
// at exactBelow[uint32] — no distance of any graph the engine takes — on a
// resumed solve sends the first batch from batch32 to batch16, where its
// seeds are refused again: the solve must fail with an error, at once,
// and not solve the batch again for ever. One below the bound seeds as it
// is, and the batch stands.
func TestOutOfRangeSeedFailsThePanel(t *testing.T) {
	requireBatchKernel(t)
	g := intER(t, 96, 6, 4)
	for _, tc := range []struct {
		seed    uint32
		refused bool
	}{
		{exactBelow[uint32]() - 1, false},
		{exactBelow[uint32](), true},
		{matrix.NoPath32 - 1, true},
	} {
		e, s := New(g), newMemSink(g.N, 32)
		for i := range s.dist {
			s.dist[i] = float64(tc.seed)
		}
		s.next = 1
		done := make(chan error, 1)
		go func() {
			_, err := e.SolveTo(context.Background(), s, Options{Workers: 2})
			done <- err
		}()
		select {
		case err := <-done:
			if (err != nil) != tc.refused {
				t.Fatalf("seed %#x: SolveTo error %v, want an error: %v", tc.seed, err, tc.refused)
			}
			if tc.refused && e.PanelKernel() != "batch16" {
				t.Fatalf("seed %#x: panel kernel %s after the refusal, want batch16", tc.seed, e.PanelKernel())
			}
			t.Logf("seed %#x: %v", tc.seed, err)
		case <-time.After(20 * time.Second):
			t.Fatalf("seed %#x: SolveTo has not returned after 20 s", tc.seed)
		}
	}
}

// FuzzBatchMatchesRadix builds a small integer-weight graph from the fuzz
// input — random edges over a spine, a path through every vertex whose
// weight decides whether distances stay inside 16 bits — and requires
// batched panels to equal the radix rows.
func FuzzBatchMatchesRadix(f *testing.F) {
	f.Add(int64(1), uint8(12), uint8(30), uint8(9), uint8(16), uint8(0))
	f.Add(int64(2), uint8(1), uint8(0), uint8(0), uint8(1), uint8(0))
	f.Add(int64(3), uint8(80), uint8(200), uint8(255), uint8(33), uint8(0))
	f.Add(int64(4), uint8(25), uint8(60), uint8(0), uint8(5), uint8(3))
	f.Add(int64(5), uint8(255), uint8(4), uint8(255), uint8(39), uint8(255)) // 65,025 end to end, or a few edges less
	f.Add(int64(6), uint8(255), uint8(0), uint8(0), uint8(32), uint8(255))
	f.Add(int64(7), uint8(254), uint8(0), uint8(0), uint8(64), uint8(255))
	f.Fuzz(func(t *testing.T, seed int64, nv, ne, maxW, panelRows, spine uint8) {
		n := int(nv) + 1
		if spine > 0 {
			n += 2 // up to 257 vertices: 256 edges of 255 are 0xFFFF-255
		}
		rng := rand.New(rand.NewSource(seed))
		edges := make([]graph.Edge, ne)
		for i := range edges {
			edges[i] = graph.Edge{U: rng.Intn(n), V: rng.Intn(n), W: float64(rng.Intn(int(maxW) + 1))}
		}
		if spine > 0 {
			edges = append(edges, chain(n, float64(spine))...)
		}
		g := mustGraph(t, n, edges)
		b := int(panelRows)%80 + 1
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
