package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"apspark"
	"apspark/internal/graph"
	"apspark/internal/matrix"
	"apspark/internal/obs"
	"apspark/internal/seq"
	"apspark/internal/serve"
	"apspark/internal/sparse"
	"apspark/internal/store"
)

// The probes time direct calls into each layer's public functions on
// small fixed-size inputs drawn from the seed. They run on every traced
// run whatever the workload, so together they must stay within a few
// seconds; each is sized to be the smallest input on which its layer's
// cost is still the one a full-size run pays per unit of work.
//
//	n     sparse graph, its distance matrix and the stores cut from it
//	b     kernel block and store tile edge
//	coreN cb and im real runs, blocked sequential FW
//	slowN rs and fw2d real runs: same code, far more stages per cell
var fullProbes = probeSizes{n: 2048, b: 256, coreN: 1024, slowN: 512}

// probeRows is how many rows or tiles each cold-read figure samples.
const probeRows = 64

// probeSizes are the input sizes of the probes.
type probeSizes struct{ n, b, coreN, slowN int }

// medianSec runs fn reps times and returns the median wall time in
// seconds.
func medianSec(reps int, fn func() error) (float64, error) {
	times := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return median(times), nil
}

// perOpNs times batches of iters calls and returns the median batch's
// time per call in ns — for calls too short to time one by one.
func perOpNs(iters int, fn func()) float64 {
	s, _ := medianSec(5, func() error {
		for i := 0; i < iters; i++ {
			fn()
		}
		return nil
	})
	return s * 1e9 / float64(iters)
}

// runProbes measures every workload-independent per-layer figure.
func runProbes(ctx context.Context, cfg config) (map[string]float64, error) {
	sz := cfg.sizes.probes
	m := make(map[string]float64)
	g, err := sparseGraph(sz.n, cfg.seed)
	if err != nil {
		return nil, err
	}
	dist, err := probeGraphSparse(ctx, m, g, sz)
	if err != nil {
		return nil, err
	}
	for _, probe := range []func() error{
		func() error { return probeMatrix(m, cfg.seed, sz) },
		func() error { return probeSolvers(ctx, m, cfg.seed, sz) },
		func() error { return probePaper(ctx, m) },
		func() error { return probeStore(ctx, m, dist, cfg, sz) },
		func() error { return probeServe(ctx, m, g, dist, cfg.seed) },
	} {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := probe(); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// probeGraphSparse times the edge-list parser and the CSR Dijkstra, and
// returns the solved matrix the store and serve probes work on.
func probeGraphSparse(ctx context.Context, m map[string]float64, g *graph.Graph, sz probeSizes) (*matrix.Block, error) {
	var text bytes.Buffer
	if err := g.WriteEdgeList(&text); err != nil {
		return nil, err
	}
	s, err := medianSec(5, func() error {
		_, err := graph.ReadEdgeList(bytes.NewReader(text.Bytes()))
		return err
	})
	if err != nil {
		return nil, err
	}
	m["graph.read_edgelist_ms"] = s * 1e3

	eng := sparse.New(g)
	row := make([]float64, g.N)
	src := 0
	s, err = medianSec(probeRows, func() error {
		src = (src + 31) % g.N
		return eng.SolveRowInto(src, row)
	})
	if err != nil {
		return nil, err
	}
	m["sparse.row_us"] = s * 1e6

	t0 := time.Now()
	dist, _, err := eng.Solve(ctx, sz.b, sparse.Options{})
	if err != nil {
		return nil, err
	}
	m["sparse.rows_per_s"] = float64(g.N) / time.Since(t0).Seconds()
	return dist, nil
}

func randomBlock(rng *rand.Rand, n int) *matrix.Block {
	b := matrix.New(n, n)
	for i := range b.Data {
		b.Data[i] = 1 + 99*rng.Float64()
	}
	return b
}

func probeMatrix(m map[string]float64, seed int64, sz probeSizes) error {
	rng := rand.New(rand.NewSource(seed))
	a, b, dst := randomBlock(rng, sz.b), randomBlock(rng, sz.b), randomBlock(rng, sz.b)
	var kerr error
	for name, workers := range map[string]int{"matrix.minplus_b256_ms": 1, "matrix.minplus_b256_par_ms": runtime.GOMAXPROCS(0)} {
		s, err := medianSec(9, func() error { return matrix.MinPlusIntoPar(a, b, dst, workers) })
		if err != nil {
			return err
		}
		m[name] = s * 1e3
	}
	m["matrix.minplus_allocs"] = testing.AllocsPerRun(3, func() { kerr = matrix.MinPlusInto(a, b, dst) })
	if kerr != nil {
		return kerr
	}
	s, err := medianSec(5, func() error { return matrix.FloydWarshall(a.Clone()) })
	if err != nil {
		return err
	}
	m["matrix.fw_b256_ms"] = s * 1e3

	var wire []byte
	m["matrix.marshal_b256_us"] = perOpNs(20, func() { wire = a.AppendMarshal(wire[:0]) }) / 1e3
	m["matrix.unmarshal_b256_us"] = perOpNs(20, func() { _, kerr = matrix.Unmarshal(wire) }) / 1e3
	return kerr
}

// probeSolvers runs the sequential baseline and the four cluster solvers
// for real at p=64 on a paper-density graph, and the cb schedule alone in
// phantom mode (orchestration with no arithmetic).
func probeSolvers(ctx context.Context, m map[string]float64, seed int64, sz probeSizes) error {
	g, err := graph.ErdosRenyiPaper(sz.coreN, seed)
	if err != nil {
		return err
	}
	t0 := time.Now()
	if _, err := seq.BlockedFloydWarshall(g, sz.b); err != nil {
		return err
	}
	m["seq.fw_blocked_n1024_s"] = time.Since(t0).Seconds()

	sess, err := apspark.New(apspark.WithClusterCores(64))
	if err != nil {
		return err
	}
	small, err := graph.ErdosRenyiPaper(sz.slowN, seed)
	if err != nil {
		return err
	}
	solve := func(k apspark.SolverKind, in *graph.Graph) (*apspark.Result, float64, error) {
		t0 := time.Now()
		res, err := sess.Solve(ctx, in, apspark.WithSolver(k), apspark.WithBlockSize(in.N/8))
		return res, time.Since(t0).Seconds(), err
	}
	for _, c := range []struct {
		k  apspark.SolverKind
		in *graph.Graph
	}{{apspark.SolverCB, g}, {apspark.SolverIM, g}, {apspark.SolverRS, small}, {apspark.SolverFW2D, small}} {
		res, wall, err := solve(c.k, c.in)
		if err != nil {
			return err
		}
		m["core."+string(c.k)+"_wall_s"] = wall
		m["cluster.virtual_"+string(c.k)+"_s"] = res.VirtualSeconds
		switch c.k {
		case apspark.SolverCB:
			m["rdd.stages_cb"] = float64(res.Metrics.Stages)
			m["rdd.tasks_cb"] = float64(res.Metrics.Tasks)
			m["rdd.shuffle_bytes_cb"] = float64(res.Metrics.ShuffleBytes)
			m["storage.shared_read_bytes_cb"] = float64(res.Metrics.SharedReadBytes)
			m["storage.shared_write_bytes_cb"] = float64(res.Metrics.SharedWriteBytes)
		case apspark.SolverIM:
			m["rdd.shuffle_bytes_im"] = float64(res.Metrics.ShuffleBytes)
		}
	}
	prev := runtime.GOMAXPROCS(1)
	_, wall, err := solve(apspark.SolverCB, g)
	runtime.GOMAXPROCS(prev)
	if err != nil {
		return err
	}
	m["core.cb_wall_p1_s"] = wall

	s, err := medianSec(5, func() error {
		_, err := sess.Project(ctx, full.denseN, apspark.WithSolver(apspark.SolverCB), apspark.WithBlockSize(full.denseB))
		return err
	})
	m["rdd.phantom_cb_wall_ms"] = s * 1e3
	return err
}

// probePaper projects the paper's own configurations (n=262144 on the
// 1024-core cluster, phantom data, truncated after a few units exactly
// as the paper's Table 2 was) and reports how far each projection is
// from the figure printed in the paper.
func probePaper(ctx context.Context, m map[string]float64) error {
	sess, err := apspark.New()
	if err != nil {
		return err
	}
	const hour = 3600.0
	for _, c := range []struct {
		name       string
		solver     apspark.SolverKind
		b, units   int
		paperHours float64
	}{
		{"costmodel.paper_t2_cb_rel_err", apspark.SolverCB, 1024, 2, 7 + 8.0/60},
		{"costmodel.paper_t2_rs_rel_err", apspark.SolverRS, 1024, 3, 16*24 + 8},
		{"costmodel.paper_t2_fw2d_rel_err", apspark.SolverFW2D, 1024, 2, 51*24 + 22},
		{"costmodel.paper_t3_cb_rel_err", apspark.SolverCB, 2560, 2, 8 + 9.0/60},
	} {
		res, err := sess.Project(ctx, 262144, apspark.WithSolver(c.solver), apspark.WithBlockSize(c.b), apspark.WithMaxUnits(c.units))
		if err != nil {
			return err
		}
		got := res.ProjectedSeconds / hour
		m[c.name] = (got - c.paperHours) / c.paperHours
		if m[c.name] < 0 {
			m[c.name] = -m[c.name]
		}
	}
	return nil
}

// countingReaderAt counts the preads a store issues.
type countingReaderAt struct {
	r            io.ReaderAt
	calls, bytes atomic.Int64
}

func (c *countingReaderAt) ReadAt(p []byte, off int64) (int, error) {
	c.calls.Add(1)
	c.bytes.Add(int64(len(p)))
	return c.r.ReadAt(p, off)
}

func probeStore(ctx context.Context, m map[string]float64, dist *matrix.Block, cfg config, sz probeSizes) error {
	tile := matrix.New(sz.b, sz.b)
	if err := dist.ExtractInto(tile, 0, sz.b); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	for _, name := range []string{"raw", "ivarint", "f32"} {
		if err := probeCodec(ctx, m, name, dist, tile, cfg.workDir, rng); err != nil {
			return err
		}
	}
	if err := probePanelWriter(m, dist, sz.b, cfg.workDir); err != nil {
		return err
	}
	return probeHotReads(ctx, m, filepath.Join(cfg.workDir, "probe-raw.apsp"), dist.R, sz.b)
}

// probeCodec writes dist as one store in the named codec, times the
// codec on one tile, then reads the store back cold: no row cache and
// room for one tile, so every tile and every row is read and decoded
// afresh.
func probeCodec(ctx context.Context, m map[string]float64, name string, dist, tile *matrix.Block, dir string, rng *rand.Rand) error {
	n, b := dist.R, tile.R
	codec, err := store.CodecByName(name)
	if err != nil {
		return err
	}
	path := filepath.Join(dir, "probe-"+name+".apsp")
	t0 := time.Now()
	if err := store.WriteWithCodec(path, dist, b, codec); err != nil {
		return err
	}
	m["store.write_"+name+"_s"] = time.Since(t0).Seconds()

	var enc []byte
	m["store.encode_tile_us."+name] = perOpNs(10, func() { enc, _ = codec.EncodeTile(enc[:0], tile) }) / 1e3
	var derr error
	m["store.decode_tile_us."+name] = perOpNs(10, func() { _, derr = codec.DecodeTile(enc, b, b) }) / 1e3
	if derr != nil {
		return derr
	}

	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return err
	}
	m["store.bytes_per_cell."+name] = float64(fi.Size()) / float64(n) / float64(n)
	counter := &countingReaderAt{r: f}
	st, err := store.OpenReader(counter, fi.Size(), store.Options{TileCacheBytes: tile.SizeBytes()})
	if err != nil {
		return err
	}
	defer st.Close()
	q, k := st.TilesPerSide(), 0
	s, err := medianSec(probeRows, func() error {
		k++
		_, err := st.Tile(ctx, k/q%q, k%q)
		return err
	})
	if err != nil {
		return err
	}
	m["store.tile_cold_us."+name] = s * 1e6
	row := make([]float64, n)
	calls0, bytes0 := counter.calls.Load(), counter.bytes.Load()
	s, err = medianSec(probeRows, func() error {
		_, err := st.RowInto(ctx, rng.Intn(n), row)
		return err
	})
	m["store.row_cold_us."+name] = s * 1e6
	if name != "f32" {
		m["store.pread_calls_per_cold_row."+name] = float64(counter.calls.Load()-calls0) / probeRows
		m["store.pread_bytes_per_cold_row."+name] = float64(counter.bytes.Load()-bytes0) / probeRows
	}
	return err
}

// probePanelWriter times the second writer, the streamed path
// SolveToStore uses.
func probePanelWriter(m map[string]float64, dist *matrix.Block, b int, dir string) error {
	n := dist.R
	ivarint, err := store.CodecByName("ivarint")
	if err != nil {
		return err
	}
	t0 := time.Now()
	pw, err := store.NewPanelWriterWithOptions(filepath.Join(dir, "probe-panel.apsp"), n, b, store.PanelWriterOptions{Codec: ivarint})
	if err != nil {
		return err
	}
	defer pw.Abort()
	for r := 0; r < n; r += b {
		h := min(b, n-r)
		if err := pw.WritePanel(&matrix.Block{R: h, C: n, Data: dist.Data[r*n : (r+h)*n]}); err != nil {
			return err
		}
	}
	if err := pw.Close(); err != nil {
		return err
	}
	m["store.panelwriter_ivarint_s"] = time.Since(t0).Seconds()
	return nil
}

// probeHotReads times opening the raw store and reading it with every
// row cached.
func probeHotReads(ctx context.Context, m map[string]float64, rawPath string, n, b int) error {
	var hot *store.Store
	s, err := medianSec(9, func() (err error) {
		if hot != nil {
			hot.Close()
		}
		hot, err = store.OpenWithOptions(rawPath, store.Options{TileCacheBytes: 8 * int64(b) * int64(b) * 8, RowCacheBytes: 2 * int64(n) * int64(n) * 8})
		return err
	})
	if err != nil {
		return err
	}
	defer hot.Close()
	m["store.open_us"] = s * 1e6
	row := make([]float64, n)
	var herr error
	read := func() { row, herr = hot.RowInto(ctx, 7, row) }
	read()
	m["store.row_hot_ns"] = perOpNs(2000, read)
	m["store.row_hot_allocs"] = testing.AllocsPerRun(100, read)
	m["store.dist_hot_ns"] = perOpNs(20000, func() { _, herr = hot.Dist(ctx, 7, 11) })
	return herr
}

// probeServe times the query engine over an in-memory matrix (no store)
// and the HTTP handler stack over a recorder (no socket), then the obs
// primitives both sit on.
func probeServe(ctx context.Context, m map[string]float64, g *graph.Graph, dist *matrix.Block, seed int64) error {
	src, err := serve.NewMatrixSource(dist)
	if err != nil {
		return err
	}
	eng, err := serve.New(src, g)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	pick := func() int { return rng.Intn(g.N) }
	var qerr error
	keep := func(err error) {
		if err != nil && qerr == nil {
			qerr = err
		}
	}
	m["serve.engine_dist_ns"] = perOpNs(20000, func() { _, err := eng.Dist(ctx, pick(), pick()); keep(err) })
	targets := make([]serve.Target, 0, knnK)
	m["serve.engine_knn10_us"] = perOpNs(200, func() { _, err := eng.KNNInto(ctx, pick(), knnK, targets); keep(err) }) / 1e3
	var hops []int
	m["serve.engine_path_us"] = perOpNs(200, func() { p, err := eng.PathInto(ctx, pick(), pick(), hops); hops = p.Hops; keep(err) }) / 1e3

	reg := obs.NewRegistry()
	obs.RegisterProcessMetrics(reg)
	h := serve.Harden(serve.Handler(eng), serve.HardenOptions{MaxInFlight: 256, Timeout: 30 * time.Second, Metrics: reg})
	var bodyBytes int
	call := func(method, url string, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, url, bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			keep(fmt.Errorf("%s %s: status %d", method, url, rec.Code))
		}
		bodyBytes = rec.Body.Len()
	}
	gen := newGenerator(g.N, mix{kindBatch: 100}, 0, nil, seed, 0)
	batch := gen.next()
	m["serve.http_dist_us"] = perOpNs(2000, func() { call("GET", fmt.Sprintf("/dist?from=%d&to=%d", pick(), pick()), nil) }) / 1e3
	m["serve.http_knn_us"] = perOpNs(200, func() { call("GET", fmt.Sprintf("/knn?from=%d&k=%d", pick(), knnK), nil) }) / 1e3
	m["serve.http_batch64_us"] = perOpNs(200, func() { call("POST", "/batch", batch.body) }) / 1e3
	m["serve.http_row_us"] = perOpNs(50, func() { call("GET", fmt.Sprintf("/row?from=%d", pick()), nil) }) / 1e3
	m["serve.row_json_bytes"] = float64(bodyBytes)

	hist := obs.NewHistogram()
	v := int64(0)
	m["obs.histogram_record_ns"] = perOpNs(100000, func() { v += 997; hist.Record(v) })
	s, err := medianSec(9, func() error { return reg.WritePrometheus(io.Discard) })
	if err != nil {
		return err
	}
	m["obs.metrics_scrape_ms"] = s * 1e3
	return qerr
}
