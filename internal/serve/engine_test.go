package serve

import (
	"context"
	"math"
	"testing"

	"apspark/internal/graph"
	"apspark/internal/matrix"
	"apspark/internal/seq"
)

// solvedGraph returns a deterministic Erdős–Rényi graph and its exact
// distance matrix from the sequential Floyd-Warshall reference.
func solvedGraph(t *testing.T, n int, seed int64) (*graph.Graph, *matrix.Block) {
	t.Helper()
	g, err := graph.ErdosRenyiPaper(n, seed)
	if err != nil {
		t.Fatal(err)
	}
	return g, seq.Reference(g)
}

func newEngine(t *testing.T, g *graph.Graph, dist *matrix.Block) *Engine {
	t.Helper()
	src, err := NewMatrixSource(dist)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(src, g)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// verifyPath walks a reconstructed path edge by edge against the graph:
// every hop must be a real edge, and the weights must sum to the claimed
// distance.
func verifyPath(t *testing.T, g *graph.Graph, p Path, from, to int, want float64) {
	t.Helper()
	if len(p.Hops) == 0 || p.Hops[0] != from || p.Hops[len(p.Hops)-1] != to {
		t.Fatalf("path %d->%d: endpoints wrong: %v", from, to, p.Hops)
	}
	sum := 0.0
	for h := 0; h+1 < len(p.Hops); h++ {
		u, v := p.Hops[h], p.Hops[h+1]
		w := math.Inf(1)
		g.VisitAdj(u, func(nb int, nw float64) {
			if nb == v && nw < w {
				w = nw
			}
		})
		if math.IsInf(w, 1) {
			t.Fatalf("path %d->%d: hop %d->%d is not an edge", from, to, u, v)
		}
		sum += w
	}
	if math.Abs(sum-want) > 1e-9*(1+math.Abs(want)) {
		t.Fatalf("path %d->%d: edge weights sum to %v, distance is %v", from, to, sum, want)
	}
	if p.Dist != want {
		t.Fatalf("path %d->%d: reported dist %v, want %v", from, to, p.Dist, want)
	}
}

func TestEngineBounds(t *testing.T) {
	_, dist := solvedGraph(t, 20, 1)
	e := newEngine(t, nil, dist)
	if _, err := e.Dist(context.Background(), -1, 0); err == nil {
		t.Error("negative vertex accepted")
	}
	if _, err := e.Row(context.Background(), 20); err == nil {
		t.Error("out-of-range row accepted")
	}
	if _, err := e.KNN(context.Background(), 0, 0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := e.Path(context.Background(), 0, 1); err != ErrNoGraph {
		t.Errorf("Path without graph: %v, want ErrNoGraph", err)
	}
	// Row copies must be caller-owned: mutating one must not leak back.
	r1, _ := e.Row(context.Background(), 0)
	r1[5] = -1
	if r2, _ := e.Row(context.Background(), 0); r2[5] == -1 {
		t.Fatal("Row aliases the underlying matrix")
	}
}

func TestKNN(t *testing.T) {
	_, dist := solvedGraph(t, 50, 9)
	e := newEngine(t, nil, dist)
	for _, from := range []int{0, 17, 49} {
		got, err := e.KNN(context.Background(), from, 5)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 5 {
			t.Fatalf("KNN(%d, 5) returned %d targets", from, len(got))
		}
		// Brute-force reference: all finite non-self distances sorted.
		type pair struct {
			to int
			d  float64
		}
		var all []pair
		for j := 0; j < 50; j++ {
			d := dist.At(from, j)
			if j == from || math.IsInf(d, 1) {
				continue
			}
			all = append(all, pair{j, d})
		}
		for idx, tgt := range got {
			if idx > 0 && (got[idx-1].Dist > tgt.Dist ||
				(got[idx-1].Dist == tgt.Dist && got[idx-1].To >= tgt.To)) {
				t.Fatalf("KNN(%d) not ordered at %d: %+v", from, idx, got)
			}
			if tgt.To == from {
				t.Fatalf("KNN(%d) includes the source", from)
			}
			// tgt must be no farther than the (idx+1)-th smallest overall.
			better := 0
			for _, p := range all {
				if p.d < tgt.Dist || (p.d == tgt.Dist && p.to < tgt.To) {
					better++
				}
			}
			if better != idx {
				t.Fatalf("KNN(%d)[%d] = %+v has %d strictly-better targets", from, idx, tgt, better)
			}
		}
	}
	// k larger than the reachable set: everything comes back.
	got, err := e.KNN(context.Background(), 0, 500)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) >= 50 {
		t.Fatalf("KNN(0, 500) returned %d targets for a 50-vertex graph", len(got))
	}
}

func TestPathReconstruction(t *testing.T) {
	g, dist := solvedGraph(t, 80, 11)
	e := newEngine(t, g, dist)
	checked := 0
	for from := 0; from < 80; from += 9 {
		for to := 0; to < 80; to += 7 {
			want := dist.At(from, to)
			p, err := e.Path(context.Background(), from, to)
			if math.IsInf(want, 1) {
				if err != ErrNoPath {
					t.Fatalf("Path(%d,%d) unreachable: err = %v, want ErrNoPath", from, to, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("Path(%d,%d): %v", from, to, err)
			}
			verifyPath(t, g, p, from, to, want)
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no reachable pairs exercised")
	}
}

func TestPathHandBuilt(t *testing.T) {
	// 0 -1- 1 -1- 2 and a slow direct edge 0 -5- 2: the shortest path
	// must go through vertex 1.
	g, err := graph.FromEdges(4, []graph.Edge{
		{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}, {U: 0, V: 2, W: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	e := newEngine(t, g, seq.Reference(g))
	p, err := e.Path(context.Background(), 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Hops) != 3 || p.Hops[0] != 0 || p.Hops[1] != 1 || p.Hops[2] != 2 || p.Dist != 2 {
		t.Fatalf("path = %+v, want hops [0 1 2] dist 2", p)
	}
	// Self path.
	p, err = e.Path(context.Background(), 3, 3)
	if err != nil || len(p.Hops) != 1 || p.Dist != 0 {
		t.Fatalf("self path = %+v, %v", p, err)
	}
	// Vertex 3 is isolated.
	if _, err := e.Path(context.Background(), 0, 3); err != ErrNoPath {
		t.Fatalf("path to isolated vertex: %v", err)
	}
}

func TestPathZeroWeightEdges(t *testing.T) {
	// Zero-weight edges make predecessor distances tie with the current
	// vertex; the visited guard must still terminate and find a path.
	g, err := graph.FromEdges(5, []graph.Edge{
		{U: 0, V: 1, W: 0}, {U: 1, V: 2, W: 0}, {U: 2, V: 3, W: 1}, {U: 3, V: 4, W: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	dist := seq.Reference(g)
	e := newEngine(t, g, dist)
	p, err := e.Path(context.Background(), 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	verifyPath(t, g, p, 0, 4, dist.At(0, 4))
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, nil); err == nil {
		t.Error("nil source accepted")
	}
	g, _ := graph.FromEdges(3, nil)
	src, _ := NewMatrixSource(matrix.NewZero(5, 5))
	if _, err := New(src, g); err == nil {
		t.Error("vertex-count mismatch accepted")
	}
	if _, err := NewMatrixSource(matrix.NewPhantom(3, 3)); err == nil {
		t.Error("phantom matrix accepted")
	}
	if _, err := NewMatrixSource(matrix.NewZero(3, 4)); err == nil {
		t.Error("non-square matrix accepted")
	}
}
