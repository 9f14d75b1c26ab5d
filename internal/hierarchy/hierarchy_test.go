package hierarchy

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"apspark/internal/graph"
	"apspark/internal/matrix"
	"apspark/internal/sparse"
	"apspark/internal/store"
)

func build(t *testing.T, g *graph.Graph, opts BuildOptions) *Oracle {
	t.Helper()
	o, err := Build(context.Background(), g, opts)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// checkOracle differentially pins the oracle against the sparse
// engine's unrestricted rows: full rows from a stride of sources, plus
// Dist probes across the row. exact demands bit-identical values
// (integer-weight graphs, where every path sum is exact in float64);
// otherwise a 1e-9 relative tolerance absorbs summation-order jitter.
func checkOracle(t *testing.T, g *graph.Graph, o *Oracle, exact bool) {
	t.Helper()
	ctx := context.Background()
	eng := sparse.New(g)
	want := make([]float64, g.N)
	close := func(a, b float64) bool {
		if a == b {
			return true
		}
		if exact {
			return false
		}
		if math.IsInf(a, 1) || math.IsInf(b, 1) {
			return false
		}
		return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
	}
	srcStep := g.N/23 + 1
	distStep := g.N/17 + 1
	for src := 0; src < g.N; src += srcStep {
		if err := eng.SolveRowInto(src, want); err != nil {
			t.Fatal(err)
		}
		got, err := o.Row(ctx, src)
		if err != nil {
			t.Fatal(err)
		}
		for v := range got {
			if !close(got[v], want[v]) {
				t.Fatalf("row[%d][%d] = %v, want %v", src, v, got[v], want[v])
			}
		}
		for v := 0; v < g.N; v += distStep {
			d, err := o.Dist(ctx, src, v)
			if err != nil {
				t.Fatal(err)
			}
			if !close(d, want[v]) {
				t.Fatalf("dist(%d,%d) = %v, want %v", src, v, d, want[v])
			}
		}
	}
}

func TestOracleMatchesSparseER(t *testing.T) {
	g, err := graph.ErdosRenyiConnected(500, graph.AvgDegreeProb(500, 6), graph.IntegerWeights(100), 1)
	if err != nil {
		t.Fatal(err)
	}
	o := build(t, g, BuildOptions{PartSize: 50, Seed: 7})
	if o.Stats().Parts < 2 {
		t.Fatalf("expected a real partition, got %d parts", o.Stats().Parts)
	}
	checkOracle(t, g, o, true)
}

func TestOracleMatchesSparsePlanted(t *testing.T) {
	g, err := graph.PlantedPartitionConnected(600, 12, 0.2, 0.003, graph.IntegerWeights(50), 3)
	if err != nil {
		t.Fatal(err)
	}
	o := build(t, g, BuildOptions{PartSize: 60, Seed: 11})
	checkOracle(t, g, o, true)
}

func TestOracleMatchesSparseFloatWeights(t *testing.T) {
	g, err := graph.ErdosRenyiConnected(300, graph.AvgDegreeProb(300, 5), graph.UniformWeights(10), 9)
	if err != nil {
		t.Fatal(err)
	}
	checkOracle(t, g, build(t, g, BuildOptions{PartSize: 40, Seed: 1}), false)
}

func TestOracleDisconnected(t *testing.T) {
	// Two ER islands with an id offset; unreachable pairs must come back
	// +Inf from both engines.
	a, err := graph.ErdosRenyiConnected(150, graph.AvgDegreeProb(150, 5), graph.IntegerWeights(20), 4)
	if err != nil {
		t.Fatal(err)
	}
	edges := a.Edges()
	for _, e := range a.Edges() {
		edges = append(edges, graph.Edge{U: e.U + 150, V: e.V + 150, W: e.W})
	}
	g, err := graph.FromEdges(300, edges)
	if err != nil {
		t.Fatal(err)
	}
	o := build(t, g, BuildOptions{PartSize: 40, Seed: 2})
	checkOracle(t, g, o, true)
	d, err := o.Dist(context.Background(), 0, 200)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(d, 1) {
		t.Fatalf("cross-island dist = %v, want +Inf", d)
	}
}

func TestOracleZeroWeightEdges(t *testing.T) {
	g0, err := graph.ErdosRenyiConnected(250, graph.AvgDegreeProb(250, 6), graph.IntegerWeights(9), 6)
	if err != nil {
		t.Fatal(err)
	}
	edges := g0.Edges()
	for i := range edges {
		if i%3 == 0 {
			edges[i].W = 0
		}
	}
	g, err := graph.FromEdges(250, edges)
	if err != nil {
		t.Fatal(err)
	}
	checkOracle(t, g, build(t, g, BuildOptions{PartSize: 30, Seed: 5}), true)
}

func TestOracleSinglePartitionDegenerate(t *testing.T) {
	g, err := graph.ErdosRenyiConnected(120, graph.AvgDegreeProb(120, 5), graph.IntegerWeights(30), 8)
	if err != nil {
		t.Fatal(err)
	}
	o := build(t, g, BuildOptions{PartSize: 10 * g.N, Seed: 3})
	st := o.Stats()
	if st.Parts != 1 || st.BoundaryVerts != 0 || st.OverlayEdges != 0 {
		t.Fatalf("degenerate build has parts=%d boundary=%d overlay=%d, want 1/0/0",
			st.Parts, st.BoundaryVerts, st.OverlayEdges)
	}
	checkOracle(t, g, o, true)
}

func TestOracleTinyGraphs(t *testing.T) {
	ctx := context.Background()
	g1, err := graph.FromEdges(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	o := build(t, g1, BuildOptions{})
	if d, err := o.Dist(ctx, 0, 0); err != nil || d != 0 {
		t.Fatalf("dist(0,0) = %v, %v", d, err)
	}
	g2, err := graph.FromEdges(2, []graph.Edge{{U: 0, V: 1, W: 3}})
	if err != nil {
		t.Fatal(err)
	}
	o2 := build(t, g2, BuildOptions{PartSize: 1})
	if d, err := o2.Dist(ctx, 0, 1); err != nil || d != 3 {
		t.Fatalf("dist(0,1) = %v, %v, want 3", d, err)
	}
	if _, err := o2.Dist(ctx, 0, 5); err == nil {
		t.Fatal("out-of-range vertex accepted")
	}
}

func TestPartitionerDeterministic(t *testing.T) {
	g, err := graph.ErdosRenyiConnected(400, graph.AvgDegreeProb(400, 6), graph.IntegerWeights(10), 12)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewPartition(g, 48, 99)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewPartition(g, 48, 99)
	if err != nil {
		t.Fatal(err)
	}
	if a.Parts != b.Parts || a.CutEdges != b.CutEdges {
		t.Fatalf("non-deterministic shape: %d/%d parts, %d/%d cut", a.Parts, b.Parts, a.CutEdges, b.CutEdges)
	}
	for v := range a.Part {
		if a.Part[v] != b.Part[v] || a.Verts[v] != b.Verts[v] || a.LocalIdx[v] != b.LocalIdx[v] {
			t.Fatalf("non-deterministic layout at %d", v)
		}
	}
	// Structural invariants: boundary prefix, local index inversion.
	for p := 0; p < a.Parts; p++ {
		lo, hi := a.Off[p], a.Off[p+1]
		for i := lo; i < hi; i++ {
			v := a.Verts[i]
			if a.Part[v] != int32(p) {
				t.Fatalf("vertex %d listed under partition %d but assigned %d", v, p, a.Part[v])
			}
			if a.LocalIdx[v] != i-lo {
				t.Fatalf("LocalIdx[%d] = %d, want %d", v, a.LocalIdx[v], i-lo)
			}
			if isB := i-lo < a.NB[p]; isB != a.Boundary[v] {
				t.Fatalf("vertex %d boundary flag %v at position %d of partition %d", v, a.Boundary[v], i-lo, p)
			}
		}
	}
	c, err := NewPartition(g, 48, 100)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for v := range a.Part {
		if a.Part[v] != c.Part[v] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical partitions")
	}
}

func TestBuildDeterministic(t *testing.T) {
	g, err := graph.ErdosRenyiConnected(300, graph.AvgDegreeProb(300, 5), graph.IntegerWeights(25), 21)
	if err != nil {
		t.Fatal(err)
	}
	a := build(t, g, BuildOptions{PartSize: 40, Seed: 5, Workers: 1})
	b := build(t, g, BuildOptions{PartSize: 40, Seed: 5, Workers: 7})
	sa, sb := a.Stats(), b.Stats()
	sa.BuildSeconds, sb.BuildSeconds = 0, 0
	if sa != sb {
		t.Fatalf("worker count changed the build: %+v vs %+v", sa, sb)
	}
	ra, _, _ := a.ovlG.CSR()
	rb, _, _ := b.ovlG.CSR()
	for i := range ra {
		if ra[i] != rb[i] {
			t.Fatalf("overlay rowPtr differs at %d", i)
		}
	}
}

func TestBuildCancellation(t *testing.T) {
	g, err := graph.ErdosRenyiConnected(800, graph.AvgDegreeProb(800, 8), graph.IntegerWeights(10), 31)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "g.hier")
	// Pre-cancelled context: the build must fail before any solving.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Build(ctx, g, BuildOptions{PartSize: 32}); err == nil {
		t.Fatal("cancelled build succeeded")
	}
	// Cancel partway: the first progress event fires after one
	// partition; the remaining parts must abort.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	_, err = Build(ctx2, g, BuildOptions{
		PartSize: 32,
		Workers:  2,
		Progress: func(done, total int) {
			if done == 1 {
				cancel2()
			}
		},
	})
	if err == nil {
		t.Fatal("mid-build cancellation succeeded")
	}
	// Nothing may exist at (or beside) the save path: persistence only
	// ever happens on a finished oracle, and Save itself is atomic.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("cancelled build left files behind: %v", entries)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("overlay file exists after cancelled build: %v", err)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	g, err := graph.PlantedPartitionConnected(400, 8, 0.15, 0.005, graph.IntegerWeights(40), 17)
	if err != nil {
		t.Fatal(err)
	}
	o := build(t, g, BuildOptions{PartSize: 50, Seed: 13})
	dir := t.TempDir()
	path := filepath.Join(dir, "g.hier")
	if err := o.Save(path); err != nil {
		t.Fatal(err)
	}
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".hier-") {
			t.Fatalf("temp file %s left behind", e.Name())
		}
	}
	// One mode for every published artefact: a server that can read the
	// store can read the hierarchy saved beside it.
	plain, ckpt := filepath.Join(dir, "plain.apsp"), filepath.Join(dir, "ckpt.apsp")
	cell := matrix.New(1, 1)
	if err := store.WriteWithCodec(plain, cell, 1, nil); err != nil {
		t.Fatal(err)
	}
	pw, err := store.NewPanelWriterWithOptions(ckpt, 1, 1, store.PanelWriterOptions{Checkpoint: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := pw.WritePanel(cell); err != nil {
		t.Fatal(err)
	}
	if err := pw.Close(); err != nil {
		t.Fatal(err)
	}
	mode := func(p string) os.FileMode {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		return fi.Mode()
	}
	if h, p, c := mode(path), mode(plain), mode(ckpt); h != c || p != c {
		t.Fatalf("file modes differ: hierarchy %v, store.Write %v, checkpointed store %v", h, p, c)
	}
	l, err := Load(path, g, 0)
	if err != nil {
		t.Fatal(err)
	}
	so, sl := o.Stats(), l.Stats()
	so.BuildSeconds, sl.BuildSeconds = 0, 0
	if so != sl {
		t.Fatalf("loaded stats %+v, want %+v", sl, so)
	}
	checkOracle(t, g, l, true)
	ctx := context.Background()
	for _, pr := range []Pair{{0, 399}, {7, 123}, {200, 200}} {
		a, err := o.Dist(ctx, pr.From, pr.To)
		if err != nil {
			t.Fatal(err)
		}
		b, err := l.Dist(ctx, pr.From, pr.To)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("dist(%d,%d): built %v, loaded %v", pr.From, pr.To, a, b)
		}
	}
}

func TestLoadRejectsCorruption(t *testing.T) {
	g, err := graph.ErdosRenyiConnected(200, graph.AvgDegreeProb(200, 5), graph.IntegerWeights(10), 23)
	if err != nil {
		t.Fatal(err)
	}
	o := build(t, g, BuildOptions{PartSize: 30})
	path := filepath.Join(t.TempDir(), "g.hier")
	if err := o.Save(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Bit flip in the payload.
	flipped := append([]byte(nil), raw...)
	flipped[len(flipped)/2] ^= 0x40
	if err := os.WriteFile(path, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path, g, 0); err == nil {
		t.Fatal("bit-flipped file loaded")
	}
	// Truncation.
	if err := os.WriteFile(path, raw[:len(raw)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path, g, 0); err == nil {
		t.Fatal("truncated file loaded")
	}
	// Not a hierarchy at all.
	if err := os.WriteFile(path, []byte("definitely not"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path, g, 0); err == nil {
		t.Fatal("garbage file loaded")
	}
	// Wrong graph: vertex count mismatch.
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	other, err := graph.ErdosRenyiConnected(201, graph.AvgDegreeProb(201, 5), graph.IntegerWeights(10), 23)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path, other, 0); err == nil {
		t.Fatal("hierarchy loaded over the wrong graph")
	}
}

func TestBatchAndCache(t *testing.T) {
	g, err := graph.ErdosRenyiConnected(300, graph.AvgDegreeProb(300, 6), graph.IntegerWeights(10), 27)
	if err != nil {
		t.Fatal(err)
	}
	o := build(t, g, BuildOptions{PartSize: 40, Seed: 1})
	ctx := context.Background()
	pairs := []Pair{{0, 100}, {0, 200}, {0, 100}, {5, 5}, {299, 0}}
	got, err := o.Batch(ctx, pairs)
	if err != nil {
		t.Fatal(err)
	}
	for i, pr := range pairs {
		want, err := o.Dist(ctx, pr.From, pr.To)
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != want {
			t.Fatalf("batch[%d] = %v, want %v", i, got[i], want)
		}
	}
	st := o.CacheStats()
	if st.Hits == 0 {
		t.Fatalf("repeated endpoints produced no cache hits: %+v", st)
	}
	if st.BytesInUse > st.BytesBudget {
		t.Fatalf("cache over budget: %+v", st)
	}
	// A tiny budget must still serve correctly, just without retention.
	small := build(t, g, BuildOptions{PartSize: 40, Seed: 1, CacheBytes: 1})
	d1, err := small.Dist(ctx, 0, 250)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := o.Dist(ctx, 0, 250)
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Fatalf("tiny-cache oracle disagrees: %v vs %v", d1, d2)
	}
}

func TestOracleConcurrentQueries(t *testing.T) {
	g, err := graph.PlantedPartitionConnected(500, 10, 0.12, 0.004, graph.IntegerWeights(20), 2)
	if err != nil {
		t.Fatal(err)
	}
	o := build(t, g, BuildOptions{PartSize: 50, Seed: 4})
	eng := sparse.New(g)
	want := make([]float64, g.N)
	if err := eng.SolveRowInto(0, want); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				v := (w*53 + i*17) % g.N
				d, err := o.Dist(ctx, 0, v)
				if err != nil {
					errs <- err
					return
				}
				if d != want[v] {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestConcurrentColdDistSolvesOnce: eight queries released at once from
// one cold vertex share one partition-local solve — the rest wait for it
// or hit what it published. One big partition makes that solve the whole
// query and long enough (a 20k-vertex Dijkstra) that uncoalesced misses
// would overlap.
func TestConcurrentColdDistSolvesOnce(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	g, err := graph.ErdosRenyiConnected(20000, graph.AvgDegreeProb(20000, 6), graph.IntegerWeights(100), 23)
	if err != nil {
		t.Fatal(err)
	}
	o := build(t, g, BuildOptions{PartSize: 10 * g.N})
	const queries = 8
	start := make(chan struct{})
	errs := make(chan error, queries)
	for q := 0; q < queries; q++ {
		go func() {
			<-start
			_, err := o.Dist(context.Background(), 7, g.N-1)
			errs <- err
		}()
	}
	close(start)
	for q := 0; q < queries; q++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if st := o.CacheStats(); st.Misses != 1 || st.Hits+st.Coalesced != queries-1 {
		t.Fatalf("%d concurrent cold queries: %+v, want 1 miss (one local solve)", queries, st)
	}
}

func TestRowIntoReusesBuffer(t *testing.T) {
	g, err := graph.ErdosRenyiConnected(200, graph.AvgDegreeProb(200, 5), graph.IntegerWeights(10), 19)
	if err != nil {
		t.Fatal(err)
	}
	o := build(t, g, BuildOptions{PartSize: 30})
	buf := make([]float64, g.N)
	out, err := o.RowInto(context.Background(), 3, buf)
	if err != nil {
		t.Fatal(err)
	}
	if &out[0] != &buf[0] {
		t.Fatal("RowInto did not reuse the caller buffer")
	}
	if out[3] != 0 {
		t.Fatalf("row[3] = %v, want 0", out[3])
	}
	for i, d := range out {
		if d >= matrix.Inf {
			t.Fatalf("row[%d] = +Inf on a connected graph", i)
		}
	}
}
