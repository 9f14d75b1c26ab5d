package serve

import (
	"context"
	"math"
	"reflect"
	"sort"
	"testing"

	"apspark/internal/graph"
	"apspark/internal/matrix"
	"apspark/internal/seq"
)

// Differential tests: the heap-based KNN selection and the CSR path walk
// must be bit-identical — ties included — to the implementations they
// replaced (full sort + truncate, VisitAdj + visited map), which live on
// here as references.

// refKNN is the pre-heap implementation: filter, full sort by
// (dist, vertex id), truncate to k.
func refKNN(row []float64, from, k int) []Target {
	targets := make([]Target, 0, len(row)-1)
	for v, d := range row {
		if v == from || math.IsInf(d, 1) {
			continue
		}
		targets = append(targets, Target{To: v, Dist: d})
	}
	sort.Slice(targets, func(a, b int) bool {
		if targets[a].Dist != targets[b].Dist {
			return targets[a].Dist < targets[b].Dist
		}
		return targets[a].To < targets[b].To
	})
	if len(targets) > k {
		targets = targets[:k]
	}
	return targets
}

func pathTol(d float64) float64 { return pathRel * (1 + math.Abs(d)) }

// refPath is the pre-CSR implementation: walk backwards from the
// destination over g.VisitAdj with a map visited-set.
func refPath(g *graph.Graph, row []float64, from, to int) ([]int, error) {
	total := row[to]
	if math.IsInf(total, 1) {
		return nil, ErrNoPath
	}
	if from == to {
		return []int{from}, nil
	}
	hops := []int{to}
	visited := map[int]bool{to: true}
	cur := to
	for cur != from && len(hops) <= g.N {
		best, bestZero := -1, -1
		g.VisitAdj(cur, func(k int, w float64) {
			if row[k]+w > row[cur]+pathTol(row[cur]) || math.IsInf(row[k], 1) {
				return
			}
			if row[k]+w < row[cur]-pathTol(row[cur]) {
				return
			}
			if row[k] < row[cur] {
				if best == -1 || k < best {
					best = k
				}
			} else if !visited[k] {
				if bestZero == -1 || k < bestZero {
					bestZero = k
				}
			}
		})
		next := best
		if next == -1 {
			next = bestZero
		}
		if next == -1 {
			return nil, ErrNoPath
		}
		hops = append(hops, next)
		visited[next] = true
		cur = next
	}
	if cur != from {
		return nil, ErrNoPath
	}
	for a, b := 0, len(hops)-1; a < b; a, b = a+1, b-1 {
		hops[a], hops[b] = hops[b], hops[a]
	}
	return hops, nil
}

// knnCases returns engines over distance rows rich in ties: unit-weight
// graphs (every distance an integer, heavy duplication), the paper
// family, and a hand-built all-equal row.
func knnCases(t *testing.T) []struct {
	name string
	e    *Engine
	dist *matrix.Block
} {
	t.Helper()
	var cases []struct {
		name string
		e    *Engine
		dist *matrix.Block
	}
	add := func(name string, g *graph.Graph) {
		dist := seq.Reference(g)
		cases = append(cases, struct {
			name string
			e    *Engine
			dist *matrix.Block
		}{name, newEngine(t, g, dist), dist})
	}
	// Unit weights: distances are hop counts, ties everywhere.
	ug, err := graph.ErdosRenyiWeighted(60, graph.ErdosRenyiPaperProb(60), graph.UnitWeights(), 5)
	if err != nil {
		t.Fatal(err)
	}
	add("unit-weights", ug)
	pg, err := graph.ErdosRenyiPaper(80, 12)
	if err != nil {
		t.Fatal(err)
	}
	add("paper", pg)
	// Star: every leaf at distance 1 from the hub, all leaf pairs at 2 —
	// the maximal-tie row.
	var edges []graph.Edge
	for v := 1; v < 20; v++ {
		edges = append(edges, graph.Edge{U: 0, V: v, W: 1})
	}
	sg, err := graph.FromEdges(20, edges)
	if err != nil {
		t.Fatal(err)
	}
	add("star", sg)
	return cases
}

func TestKNNHeapMatchesSortReference(t *testing.T) {
	for _, tc := range knnCases(t) {
		n := tc.dist.R
		for from := 0; from < n; from += 3 {
			row := make([]float64, n)
			copy(row, tc.dist.Row(from))
			for _, k := range []int{1, 2, 3, 10, n - 1, n, 2 * n} {
				if k < 1 {
					continue
				}
				want := refKNN(row, from, k)
				got, err := tc.e.KNN(context.Background(), from, k)
				if err != nil {
					t.Fatalf("%s: KNN(%d,%d): %v", tc.name, from, k, err)
				}
				if len(want) == 0 && len(got) == 0 {
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: KNN(%d,%d) diverged from sort reference:\n got %v\nwant %v",
						tc.name, from, k, got, want)
				}
				// Bit-identical distances, not merely equal-looking.
				for i := range got {
					if math.Float64bits(got[i].Dist) != math.Float64bits(want[i].Dist) {
						t.Fatalf("%s: KNN(%d,%d)[%d] dist bits differ", tc.name, from, k, i)
					}
				}
			}
		}
	}
}

func TestKNNIntoReusesBuffer(t *testing.T) {
	tc := knnCases(t)[0]
	buf := make([]Target, 0, 8)
	got, err := tc.e.KNNInto(context.Background(), 1, 5, buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) > 0 && &got[0] != &buf[:1][0] {
		t.Fatal("KNNInto did not reuse the caller buffer")
	}
	row := make([]float64, tc.dist.R)
	copy(row, tc.dist.Row(1))
	if want := refKNN(row, 1, 5); !reflect.DeepEqual(got, want) {
		t.Fatalf("KNNInto = %v, want %v", got, want)
	}
}

func TestPathCSRMatchesReference(t *testing.T) {
	graphs := []*graph.Graph{}
	for _, seed := range []int64{11, 29} {
		g, err := graph.ErdosRenyiPaper(70, seed)
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, g)
	}
	// Zero-weight chain with a branch: exercises the visited-guard
	// fallback both implementations share.
	zg, err := graph.FromEdges(6, []graph.Edge{
		{U: 0, V: 1, W: 0}, {U: 1, V: 2, W: 0}, {U: 2, V: 3, W: 1},
		{U: 3, V: 4, W: 0}, {U: 0, V: 5, W: 1}, {U: 5, V: 3, W: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	graphs = append(graphs, zg)
	// Unit weights: many equally-short paths, so the deterministic
	// smallest-id tie-break is what keeps the outputs comparable.
	ug, err := graph.ErdosRenyiWeighted(50, graph.ErdosRenyiPaperProb(50), graph.UnitWeights(), 7)
	if err != nil {
		t.Fatal(err)
	}
	graphs = append(graphs, ug)
	// A chain weighted 0, 0, 3, ... and a star of 0s and 9s: refPath
	// walks into zero-weight dead ends it cannot back out of (from 100 to
	// 0 it finds "no path" past the one zero-weight edge between them).
	var zes []graph.Edge
	for i := 1; i < 200; i++ {
		zes = append(zes,
			graph.Edge{U: i - 1, V: i, W: []float64{0, 0, 3}[(i-1)%3]},
			graph.Edge{U: 0, V: i, W: []float64{0, 9}[i%2]})
	}
	zs, err := graph.FromEdges(200, zes)
	if err != nil {
		t.Fatal(err)
	}
	graphs = append(graphs, zs)

	for gi, g := range graphs {
		dist := seq.Reference(g)
		e := newEngine(t, g, dist)
		checked := 0
		for from := 0; from < g.N; from += 2 {
			row := make([]float64, g.N)
			copy(row, dist.Row(from))
			for to := 0; to < g.N; to += 3 {
				wantHops, wantErr := refPath(g, row, from, to)
				p, gotErr := e.Path(context.Background(), from, to)
				switch {
				case math.IsInf(row[to], 1):
					if gotErr == nil {
						t.Fatalf("graph %d: Path(%d,%d): no path exists, engine returned %v", gi, from, to, p.Hops)
					}
					continue
				case gotErr != nil:
					t.Fatalf("graph %d: Path(%d,%d): %v", gi, from, to, gotErr)
				case wantErr != nil:
					// The reference gave up at a dead end: its hops are no answer.
					verifyPath(t, g, p, from, to, row[to])
				case !reflect.DeepEqual(p.Hops, wantHops):
					t.Fatalf("graph %d: Path(%d,%d) diverged from reference:\n got %v\nwant %v",
						gi, from, to, p.Hops, wantHops)
				case math.Float64bits(p.Dist) != math.Float64bits(row[to]):
					t.Fatalf("graph %d: Path(%d,%d) dist bits differ", gi, from, to)
				}
				checked++
			}
		}
		if checked == 0 {
			t.Fatalf("graph %d: no reachable pairs exercised", gi)
		}
	}
}

// TestEngineZeroAllocSteadyState: with reused buffers, the queries of a
// warm engine allocate nothing — over an in-memory matrix (RowView is an
// alias), over a rows source whose cache holds every row, and, for Dist
// and RowInto, over a rows source that caches nothing and solves every
// query afresh.
func TestEngineZeroAllocSteadyState(t *testing.T) {
	g, dist := solvedGraph(t, 64, 17)
	ctx := context.Background()
	rows := func(cacheBytes int64) *Engine {
		src, err := NewRowsSource(g, cacheBytes)
		if err != nil {
			t.Fatal(err)
		}
		e, err := New(src, g)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	cached := rows(1 << 20)
	for i := range g.N {
		if _, err := cached.Row(ctx, i); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name string
		e    *Engine
		// views: KNN and Path read shared rows, with nothing to allocate.
		views bool
	}{
		{"matrix", newEngine(t, g, dist), true},
		{"rows, every row cached", cached, true},
		{"rows, no cache", rows(0), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := tc.e
			var i int
			pin := func(what string, op func()) {
				t.Helper()
				if allocs := testing.AllocsPerRun(200, op); allocs != 0 {
					t.Fatalf("%s allocates %v per op, want 0", what, allocs)
				}
			}
			pin("Dist", func() {
				i++
				if _, err := e.Dist(ctx, i%64, (i*7)%64); err != nil {
					t.Fatal(err)
				}
			})
			rowBuf := make([]float64, 0, 64)
			pin("RowInto", func() {
				i++
				var err error
				rowBuf, err = e.RowInto(ctx, i%64, rowBuf)
				if err != nil {
					t.Fatal(err)
				}
			})
			if !tc.views {
				return
			}
			knnBuf := make([]Target, 0, 16)
			pin("KNNInto", func() {
				i++
				var err error
				knnBuf, err = e.KNNInto(ctx, i%64, 10, knnBuf)
				if err != nil {
					t.Fatal(err)
				}
			})
			hops := make([]int, 0, 64)
			// Warm the path scratch pool once so the first-use allocation is
			// out of the measured window.
			if p, err := e.PathInto(ctx, 0, 1, hops); err == nil && p.Hops != nil {
				hops = p.Hops[:0]
			}
			pin("PathInto", func() {
				i++
				p, err := e.PathInto(ctx, i%64, (i*7)%64, hops)
				if err != nil && err != ErrNoPath {
					t.Fatal(err)
				}
				if p.Hops != nil {
					hops = p.Hops[:0]
				}
			})
		})
	}
}
