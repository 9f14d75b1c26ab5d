package sparse

import (
	"context"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"apspark/internal/graph"
	"apspark/internal/matrix"
	"apspark/internal/seq"
)

// markLooseOracle is what markLoose must leave in loose: the bits it held,
// and the bit of every arc (u, v, w) with v > u for which some lane j has
// d_j[u] + d_j[v] < w, summed without a bound.
func markLooseOracle[T lane](d []T, e *Engine, loose []uint64) []uint64 {
	want, w := slices.Clone(loose), lanesOf[T]()
	for u := 0; u < e.n; u++ {
		for p := e.rowPtr[u]; p < e.rowPtr[u+1]; p++ {
			v, wt := int(e.arcs[p]>>arcWeightBits), uint64(e.arcs[p]&maxArcWeight)
			if v <= u {
				continue
			}
			for j := 0; j < w; j++ {
				if uint64(d[u*w+j])+uint64(d[v*w+j]) < wt {
					want[p>>6] |= 1 << (p & 63)
				}
			}
		}
	}
	return want
}

// TestMarkLooseMatchesOracle holds the mark pass to its definition on
// lanes of every kind: small sums, unreached and saturated lanes, and
// lanes just below the top of the lane type, which an add without the
// clamp would wrap into a small sum, beside reached ones. Weights run from
// 0 to 255, and the bits already set before a pass stay set.
func TestMarkLooseMatchesOracle(t *testing.T) {
	requireBatchKernel(t)
	rng := rand.New(rand.NewSource(47))
	var edges []graph.Edge
	for i := 0; i < 1500; i++ {
		u, v := rng.Intn(300), rng.Intn(300)
		if u != v {
			edges = append(edges, graph.Edge{U: u, V: v, W: float64(rng.Intn(maxArcWeight + 1))})
		}
	}
	for _, g := range []*graph.Graph{
		mustGraph(t, 300, edges),
		mustGraph(t, 70, star(70, 0, 255, 3)),
		mustGraph(t, 130, chain(130, 255, 0, 1)),
	} {
		e := New(g)
		markMatchesOracle[uint16](t, e, rng)
		markMatchesOracle[uint32](t, e, rng)
	}
}

func markMatchesOracle[T lane](t *testing.T, e *Engine, rng *rand.Rand) {
	s, top := newBatchState[T](e.n), ^T(0)
	defer func(loose []uint64) { e.loose = loose }(e.loose)
	for round := 0; round < 40; round++ {
		small := 1 + round%8 // one lane in small is below 300
		for i := range s.d {
			switch {
			case rng.Intn(small) == 0:
				s.d[i] = T(rng.Intn(300))
			case rng.Intn(3) == 0:
				s.d[i] = unreachedLane[T]()
			case rng.Intn(2) == 0:
				s.d[i] = top - T(rng.Intn(600))
			default:
				s.d[i] = T(rng.Uint64())
			}
		}
		e.loose = make([]uint64, (len(e.arcs)+63)/64)
		if round%2 == 1 {
			for i := range e.loose {
				e.loose[i] = rng.Uint64() & rng.Uint64()
			}
		}
		want := markLooseOracle(s.d, e, e.loose)
		s.markLoose(e)
		if !slices.Equal(e.loose, want) {
			for p := range e.arcs {
				if got, exp := e.loose[p>>6]>>(p&63)&1, want[p>>6]>>(p&63)&1; got != exp {
					t.Fatalf("%d lanes, round %d: arc %d (to %d, weight %d) marked %d, want %d",
						lanesOf[T](), round, p, e.arcs[p]>>arcWeightBits, e.arcs[p]&maxArcWeight, got, exp)
				}
			}
		}
	}
}

// requirePrunedSoundly fails unless the engine's kernel is its graph less
// some loose arcs: every vertex's list is its graph list in order with
// arcs taken out, each of them with w > d(u, v) — no tight arc, zero-weight
// ones and ties with a longer path included, is ever taken out — and an
// arc is taken out exactly when its twin is. It returns how many were.
func requirePrunedSoundly(t *testing.T, e *Engine, ref *matrix.Block) int {
	t.Helper()
	g, dropped := e.kernel.Load(), 0
	type pair struct{ u, v int }
	kept := map[pair]bool{}
	for u := 0; u < e.n; u++ {
		left := g.arcs[g.rowPtr[u]:g.rowPtr[u+1]]
		for _, a := range e.arcs[e.rowPtr[u]:e.rowPtr[u+1]] {
			v, w := int(a>>arcWeightBits), float64(a&maxArcWeight)
			if len(left) > 0 && left[0] == a {
				left = left[1:]
				kept[pair{u, v}] = true
				continue
			}
			dropped++
			if !(w > ref.At(u, v)) {
				t.Errorf("arc (%d, %d) of weight %v was pruned, but d = %v: it is tight", u, v, w, ref.At(u, v))
			}
		}
		if len(left) != 0 {
			t.Fatalf("vertex %d: the kernel holds %d arcs its graph list does not, in that order", u, len(left))
		}
	}
	for p := range kept {
		if !kept[pair{p.v, p.u}] {
			t.Errorf("arc (%d, %d) is kept, its twin (%d, %d) is not", p.u, p.v, p.v, p.u)
		}
	}
	return dropped
}

// looseFrom counts the arcs the sources [0, h) prove loose with the
// reference distances: those some source s sees at d(s,u) + d(s,v) < w.
func looseFrom(g *graph.Graph, ref *matrix.Block, h int) int {
	count := 0
	for u := 0; u < g.N; u++ {
		g.VisitAdj(u, func(v int, w float64) {
			for s := 0; s < h; s++ {
				if ref.At(s, u)+ref.At(s, v) < w {
					count++
					return
				}
			}
		})
	}
	return count
}

// TestPrunedKernelKeepsEveryTightArc is the soundness oracle of the
// pruning, against seq.Reference: after a streamed solve the kernel has
// dropped only loose arcs, never a tight one, and — where the first panel
// batched all its sources — exactly the arcs the first panel's sources
// prove loose by the reference distances. The rows are the reference's.
// The graphs are the integer-weight ones of the agreement corpus, plus a
// tie (an arc as long as a two-hop path, which stays), zero-weight arcs
// (never loose), a graph whose weights cannot make an arc loose (nothing is
// marked), and a batch16 graph: the 75,000 chain with bypasses, a tight
// shortcut and a component the sources never reach, whose unreached lanes
// sit near the top of the uint32 lanes.
func TestPrunedKernelKeepsEveryTightArc(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	islands := intERMaxW(t, 60, 5, 20, 4).Edges()
	for _, e := range slices.Clone(islands) {
		islands = append(islands, graph.Edge{U: e.U + 60, V: e.V + 60, W: e.W})
	}
	tie := append(chain(40, 2), []graph.Edge{
		{U: 0, V: 2, W: 4},  // = 2 + 2 through 1: a tie, kept
		{U: 0, V: 3, W: 9},  // 6 through 1 and 2: loose
		{U: 3, V: 5, W: 0},  // zero-weight arcs are never loose
		{U: 5, V: 7, W: 0},  //
		{U: 3, V: 7, W: 0},  // a zero-weight tie
		{U: 7, V: 9, W: 20}, // 4 through 8: loose
	}...)
	bypassed := chain(301, 250)
	for k, i := range []int{3, 10, 40, 200} { // only the first three lie in panel 0
		x := 301 + k
		bypassed = append(bypassed, graph.Edge{U: i, V: x, W: 1}, graph.Edge{U: x, V: i + 1, W: 1})
	}
	bypassed = append(bypassed, graph.Edge{U: 5, V: 7, W: 255}, graph.Edge{U: 305, V: 306, W: 9},
		graph.Edge{U: 306, V: 307, W: 3}, graph.Edge{U: 305, V: 307, W: 200})
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		b    int
	}{
		{"ER sparse", intERMaxW(t, 100, 6, 100, 1), 32},
		{"ER dense", mustER(t, 96, 0.5, 50, 2), 32},
		{"planted", mustPlanted(t, 192, 8), 64},
		{"disconnected + isolated", mustGraph(t, 7, []graph.Edge{{U: 0, V: 1, W: 2}, {U: 1, V: 2, W: 3}, {U: 3, V: 4, W: 1}, {U: 4, V: 5, W: 255}}), 3},
		{"two islands", mustGraph(t, 120, islands), 32},
		{"star at 255", mustGraph(t, 130, star(130, 255, 1, 64)), 32},
		{"duplicate edges", mustGraph(t, 20, append(chain(20, 9), append(chain(20, 2, 30), graph.Edge{U: 1, V: 0, W: 1})...)), 8},
		{"zero-weight edges", mustGraph(t, 200, append(chain(200, 0, 0, 3), star(200, 0, 9)...)), 48},
		{"zero-weight star", mustGraph(t, 300, star(300, 0)), 64},
		{"all weights zero", mustGraph(t, 70, append(chain(70, 0), star(70, 0)...)), 16},
		{"chain 1/255/0/100", mustGraph(t, 257, chain(257, 1, 255, 0, 100)), 64},
		{"zero-weight chain with shortcuts", mustGraph(t, 6, []graph.Edge{
			{U: 0, V: 1, W: 0}, {U: 1, V: 2, W: 0}, {U: 2, V: 3, W: 5}, {U: 3, V: 4, W: 0},
			{U: 0, V: 4, W: 5}, {U: 1, V: 3, W: 2}, {U: 4, V: 5, W: 1}, {U: 5, V: 0, W: 0}}), 2},
		{"unit weights", intERMaxW(t, 100, 6, 1, 3), 64},
		{"distance 65,280", mustGraph(t, 257, chain(257, 255)), 64},
		{"shuffled ER", mustGraph(t, 200, relabel(intERMaxW(t, 200, 8, 255, 9).Edges(), rng.Perm(200))), 64},
		{"tie and zero weights", mustGraph(t, 40, tie), 16},
		{"75,000 chain, bypassed", mustGraph(t, 308, bypassed), 64},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ref, e, s := seq.Reference(tc.g), New(tc.g), newMemSink(tc.g.N, tc.b)
			if _, err := e.SolveTo(context.Background(), s, Options{Workers: 2}); err != nil {
				t.Fatal(err)
			}
			requireBitIdentical(t, s.held(), ref)
			if e.arcs == nil {
				return // no batched kernel: nothing to prune
			}
			dropped, want := requirePrunedSoundly(t, e, ref), 0
			if h := min(tc.b, tc.g.N); e.loose != nil && h >= batchMin && e.budgetFallbacks.Load() == 0 {
				want = looseFrom(tc.g, ref, h)
			}
			t.Logf("%d of %d arcs pruned, kernel %s", dropped, len(e.arcs), e.PanelKernel())
			if dropped != want {
				t.Fatalf("the kernel dropped %d arcs; the first panel's sources prove %d loose", dropped, want)
			}
			if got := e.kernelArcs(); e.PanelKernel() != "row" && got != len(e.arcs)-dropped {
				t.Fatalf("kernelArcs = %d, want %d of %d", got, len(e.arcs)-dropped, len(e.arcs))
			}
		})
	}
}

func mustER(t *testing.T, n int, p float64, maxW int, seed int64) *graph.Graph {
	t.Helper()
	g, err := graph.ErdosRenyiWeighted(n, p, graph.IntegerWeights(maxW), seed)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestOnlyUnseededPanelsMark: a resumed solve whose first panel is seeded
// from the tiles read back prunes nothing — a seed is a cell the sink
// holds, which the engine cannot vouch for — while one whose sink reads
// nothing back (an f32 store) solves its first panel from the sources
// alone and prunes after it as a fresh solve does.
func TestOnlyUnseededPanelsMark(t *testing.T) {
	requireBatchKernel(t)
	g := intER(t, 256, 8, 12)
	ref := seq.Reference(g)
	for _, lossy := range []bool{false, true} {
		e, s := New(g), newMemSink(g.N, 64)
		s.lossy = lossy
		copy(s.dist, ref.Data[:64*g.N])
		s.next = 1
		if _, err := e.SolveTo(context.Background(), s, Options{Workers: 2}); err != nil {
			t.Fatal(err)
		}
		requireBitIdentical(t, s.held(), ref)
		dropped := requirePrunedSoundly(t, e, ref)
		if pruned := dropped > 0; pruned != lossy {
			t.Fatalf("resumed at panel 1, read-back %v: %d arcs pruned", !lossy, dropped)
		}
	}
}

// TestConcurrentSolvesShareOneEngine: two streamed solves on one engine
// at once both write the reference rows, whichever of them prunes and
// whatever kernel each batch of the other loads (run it under -race).
func TestConcurrentSolvesShareOneEngine(t *testing.T) {
	g := intER(t, 600, 10, 21)
	ref, e := seq.Reference(g), New(g)
	sinks := []*memSink{newMemSink(g.N, 64), newMemSink(g.N, 128)}
	var wg sync.WaitGroup
	errs := make([]error, len(sinks))
	for i, s := range sinks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = e.SolveTo(context.Background(), s, Options{Workers: 2})
		}()
	}
	wg.Wait()
	for i, s := range sinks {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		requireBitIdentical(t, s.held(), ref)
	}
	if e.arcs != nil && requirePrunedSoundly(t, e, ref) == 0 {
		t.Fatal("neither solve pruned a loose arc")
	}
}

// TestSweepVisitsAreDeterministic: the pruned kernel, and so the sweep
// visits of a solve, are the same on every run and at every GOMAXPROCS —
// the marks of the whole first panel are in before the one rebuild.
func TestSweepVisitsAreDeterministic(t *testing.T) {
	requireBatchKernel(t)
	g := intER(t, 1024, 16, 31)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var first [2]int64
	for run, procs := range []int{1, 2, 1, 2} {
		runtime.GOMAXPROCS(procs)
		e := New(g)
		if _, err := e.SolveTo(context.Background(), newMemSink(g.N, 128), Options{}); err != nil {
			t.Fatal(err)
		}
		got := [2]int64{e.sweepVisits.Load(), int64(e.kernelArcs())}
		if run == 0 {
			first = got
			if got[1] >= int64(len(e.arcs)) {
				t.Fatalf("kernel arcs = %d of %d: nothing pruned", got[1], len(e.arcs))
			}
		}
		if got != first {
			t.Fatalf("run %d, GOMAXPROCS %d: %d visits over %d kernel arcs, first run %d over %d", run, procs, got[0], got[1], first[0], first[1])
		}
	}
}
