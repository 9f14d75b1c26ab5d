package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"apspark"
	"apspark/internal/graph"
)

// config is one invocation: which workload, from which seed, for how
// long, traced or not, and where files may go.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	sizes    sizes
	serveBin string     // apsp-serve binary (serving workloads)
	workDir  string     // scratch directory of this run; removed on exit
	outDir   string     // where trace.json is written
	conns    int        // HTTP connections = closed-loop clients = nproc
	speed    *hostSpeed // the run's reference samples (calib.go); runOne sets it
}

// sizes are the problem sizes and rates of the four workloads. full is
// what BENCHMARK.json measures; smoke is the seconds-long scale the
// harness's own test runs end to end.
type sizes struct {
	denseN, denseB    int
	sparseN           int
	hotN, coldN       int
	hotRate, coldRate float64 // open-loop arrivals per second
	warm              time.Duration
	// The serving workloads alternate open-loop and closed-loop windows
	// of these lengths; a run reports its best window of each kind.
	hotOpen, hotClosed   time.Duration
	coldOpen, coldClosed time.Duration
	setups               int // set-up repetitions; setup_s is the shortest
	minReps              int // timed solves per run, at least
	probes               probeSizes
}

var (
	full = sizes{denseN: 2048, denseB: 256, sparseN: 4096, hotN: 4096, coldN: 2048, hotRate: 1000, coldRate: 60, warm: 1500 * time.Millisecond,
		hotOpen: 500 * time.Millisecond, hotClosed: 500 * time.Millisecond, coldOpen: time.Second, coldClosed: 500 * time.Millisecond, setups: 3, minReps: 3, probes: fullProbes}
	smoke = sizes{denseN: 256, denseB: 64, sparseN: 256, hotN: 256, coldN: 512, hotRate: 200, coldRate: 100, warm: 200 * time.Millisecond,
		hotOpen: 200 * time.Millisecond, hotClosed: 100 * time.Millisecond, coldOpen: 200 * time.Millisecond, coldClosed: 100 * time.Millisecond, setups: 1, minReps: 1,
		probes: probeSizes{n: 256, b: 64, coreN: 128, slowN: 128}}
)

const (
	avgDegree  = 16  // sparse graphs: average degree
	maxWeight  = 100 // sparse graphs: integer weights 1..maxWeight
	refSources = 64  // sources with an independent reference row
)

// workload is one named set of inputs.
type workload struct {
	name string
	why  string
	run  func(ctx context.Context, cfg config, tr *tracer) (result, error)
}

var workloads = []workload{
	{"solve_dense_cb", "paper's best solver (cb, p=64, b=256) on a paper-density graph: matrix kernels do the work; sparse, store and serve do nothing", solveDenseCB},
	{"solve_sparse_store", "edge list to answering ivarint store via dij: sparse does ~90%, store write path ~10%; matrix kernels and serve do nothing", solveSparseStore},
	{"serve_hot", "apsp-serve over a raw store with every row cached, zipf sources, all five endpoints: HTTP/JSON/engine/obs load, store read path bypassed", serveHot},
	{"serve_cold", "apsp-serve over an ivarint store with tiny caches, uniform sources: every request decodes a cold row, store read path does the work", serveCold},
}

// result is what one run reports.
type result struct {
	attempted, failed int
	e2e               map[string]float64
	layer             map[string]float64 // traced runs: the workload-derived per-layer figures
	notes             []string           // sample counts and validity remarks, for the reader
}

// bestSetup runs setup cfg.sizes.setups times, discarding all but the last
// product with discard and sampling the host's speed before each, and
// returns the shortest set-up time as measured.
func bestSetup(cfg config, setup func() error, discard func()) (float64, error) {
	best := math.Inf(1)
	for i := 0; i < cfg.sizes.setups; i++ {
		if i > 0 {
			discard()
		}
		cfg.speed.sample()
		t0 := time.Now()
		if err := setup(); err != nil {
			return 0, err
		}
		best = min(best, time.Since(t0).Seconds())
	}
	return best, nil
}

// repTimes is what the timed reps of a solve workload measured.
type repTimes struct {
	ms     []float64 // wall time of each rep, as measured
	rssMiB []float64 // peak resident set during each rep
	cpuMs  float64   // this process's CPU time per rep, as measured
}

// timeReps runs timed reps until cfg.seconds have passed (at least
// minReps), sampling the host's speed before each and after the last.
func timeReps(ctx context.Context, cfg config, rep func(timed bool) (time.Duration, error)) (repTimes, error) {
	var t repTimes
	var cpu float64
	for start := time.Now(); len(t.ms) < cfg.sizes.minReps || time.Since(start).Seconds() < cfg.seconds; {
		if err := ctx.Err(); err != nil {
			return t, err
		}
		cfg.speed.sample()
		cpu0, err := cpuSeconds(os.Getpid())
		if err != nil {
			return t, err
		}
		rss := watchRSS()
		d, err := rep(true)
		peak := rss.peak()
		if err != nil {
			return t, err
		}
		cpu1, err := cpuSeconds(os.Getpid())
		if err != nil {
			return t, err
		}
		cpu += cpu1 - cpu0
		t.ms = append(t.ms, float64(d)/float64(time.Millisecond))
		t.rssMiB = append(t.rssMiB, peak)
	}
	cfg.speed.sample()
	t.cpuMs = 1e3 * cpu / float64(len(t.ms))
	return t, nil
}

// rssWatch polls this process's resident set every 2 ms while a rep
// runs. VmHWM would be the exact peak, but of the whole process so far:
// one solve in ten hits a late collection and stands 40 % above the
// rest, and the high-water mark then reports that one. The median over
// the reps of each rep's own peak is what a typical solve needs (0.3 %
// spread on the dense solve, against 17 % for VmHWM).
type rssWatch struct {
	stop chan struct{}
	done chan float64
}

func watchRSS() *rssWatch {
	w := &rssWatch{stop: make(chan struct{}), done: make(chan float64)}
	go func() {
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		peak := 0.0
		for {
			if v, err := residentMiB(os.Getpid()); err == nil && v > peak {
				peak = v
			}
			select {
			case <-w.stop:
				w.done <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return w
}

// peak stops the polling and returns the largest resident set seen.
func (w *rssWatch) peak() float64 {
	close(w.stop)
	return <-w.done
}

// solveMetrics fills the end-to-end figures of a solve workload: a closed
// loop of one client whose windows are single solves, so p50_ms is the
// fastest solve and closed_qps the solves per second it allows. The solve
// runs in this process, so the resident set is this process's (the answer
// checks of a rep ride along; they are a fraction of a percent of a solve).
func solveMetrics(cfg config, res *result, setupS float64, t repTimes, bytesPerCell float64) {
	f := cfg.speed.factor()
	sort.Float64s(t.ms)
	best := t.ms[0]
	res.e2e = map[string]float64{
		"setup_s":              setupS * f,
		"p50_ms":               best * f,
		"closed_qps":           1e3 / (best * f),
		"peak_rss_mb":          median(t.rssMiB),
		"store_bytes_per_cell": bytesPerCell,
	}
	res.layer = map[string]float64{
		"run.host_speed_factor": f,
		"run.p50_raw_ms":        best,
		"run.p90_ms":            percentile(t.ms, 0.90) * f,
		"run.cpu_ms_per_op":     t.cpuMs * f,
	}
	res.notes = append(res.notes,
		fmt.Sprintf("%d timed solves (ms as measured, ascending): %.0f", len(t.ms), t.ms),
		speedNote(cfg.speed)+fmt.Sprintf("; as measured: set-up %.3f s, fastest solve %.1f ms, CPU %.1f ms per solve", setupS, best, t.cpuMs),
		fmt.Sprintf("at reference speed: median solve %.1f ms, p90 %.1f ms (between the two slowest), CPU %.1f ms per solve",
			percentile(t.ms, 0.50)*f, res.layer["run.p90_ms"], res.layer["run.cpu_ms_per_op"]))
}

// speedNote says how fast the host ran during this run.
func speedNote(h *hostSpeed) string {
	return fmt.Sprintf("host speed factor %.4f (reference pass %.2f ms over %d samples, nominal %.0f ms)",
		h.factor(), h.referenceMs(), len(h.sampleMs), calNominalMs)
}

func solveDenseCB(ctx context.Context, cfg config, tr *tracer) (result, error) {
	var res result
	var g *graph.Graph
	var sess *apspark.Session
	var ref *reference
	n := cfg.sizes.denseN
	sources := sourcePerm(n, cfg.seed)[:min(refSources, n)]

	group := 0
	rep := func(timed bool) (time.Duration, error) {
		t0 := time.Now()
		out, err := sess.Solve(ctx, g)
		t1 := time.Now()
		if err != nil {
			return 0, err
		}
		if timed {
			for _, s := range sources {
				res.attempted++
				if !ref.rowOK(s, out.Dist.Row(s)) {
					res.failed++
				}
			}
			group++
			root := tr.add("rep", -1, group, t0, t1)
			tr.add("apspark.solve", root, group, t0, t1)
		}
		return t1.Sub(t0), nil
	}
	// Set-up is everything before the first timed solve: the graph, its
	// reference rows, the session and one untimed solve that fills the
	// block pools.
	setupS, err := bestSetup(cfg, func() (err error) {
		if g, err = graph.ErdosRenyiPaper(n, cfg.seed); err != nil {
			return err
		}
		// Uniform float weights: the solvers add the same hops in another
		// order than the reference, so rows agree to rounding, not bitwise.
		ref = newReference(g, sources, 1e-9)
		if sess, err = apspark.New(apspark.WithClusterCores(64), apspark.WithSolver(apspark.SolverCB), apspark.WithBlockSize(cfg.sizes.denseB)); err != nil {
			return err
		}
		_, err = rep(false)
		return err
	}, func() {})
	if err != nil {
		return res, err
	}
	times, err := timeReps(ctx, cfg, rep)
	if err != nil {
		return res, err
	}
	// The product is the dense float64 matrix itself: 8 bytes a cell.
	solveMetrics(cfg, &res, setupS, times, 8)
	return res, nil
}

// sparseGraph is the input family of the three sparse workloads: G(n, p)
// at average degree 16 plus a ring so it is connected, integer weights.
func sparseGraph(n int, seed int64) (*graph.Graph, error) {
	return graph.ErdosRenyiConnected(n, graph.AvgDegreeProb(n, avgDegree), graph.IntegerWeights(maxWeight), seed)
}

func writeEdgeList(g *graph.Graph, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = g.WriteEdgeList(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func readEdgeList(path string) (*graph.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return graph.ReadEdgeList(f)
}

func solveSparseStore(ctx context.Context, cfg config, tr *tracer) (result, error) {
	var res result
	var sess *apspark.Session
	var ref *reference
	n := cfg.sizes.sparseN
	graphPath, storePath := filepath.Join(cfg.workDir, "graph.txt"), filepath.Join(cfg.workDir, "dist.apsp")
	sources := sourcePerm(n, cfg.seed)[:min(refSources, n)]
	firstFrom, firstTo := sources[0], sources[len(sources)-1]

	group := 0
	rep := func(timed bool) (time.Duration, error) {
		t0 := time.Now()
		in, err := readEdgeList(graphPath)
		if err != nil {
			return 0, err
		}
		t1 := time.Now()
		if _, err := sess.SolveToStore(ctx, in, storePath, apspark.WithSolver(apspark.SolverDijkstra), apspark.WithCodec("ivarint")); err != nil {
			return 0, err
		}
		t2 := time.Now()
		st, err := apspark.OpenStore(storePath, 8<<20)
		if err != nil {
			return 0, err
		}
		defer st.Close()
		t3 := time.Now()
		d, err := st.Dist(ctx, firstFrom, firstTo)
		t4 := time.Now()
		if err != nil || !timed {
			return t4.Sub(t0), err
		}
		res.attempted++
		if !ref.distOK(firstFrom, firstTo, d) {
			res.failed++
		}
		group++
		root := tr.add("rep", -1, group, t0, t4)
		tr.add("graph.read_edgelist", root, group, t0, t1)
		tr.add("apspark.solve_to_store", root, group, t1, t2)
		tr.add("store.open", root, group, t2, t3)
		tr.add("store.first_query", root, group, t3, t4)
		return t4.Sub(t0), nil
	}
	// Set-up is everything before the first timed rep: the graph, its
	// edge-list file and reference rows, the session and one untimed rep.
	setupS, err := bestSetup(cfg, func() error {
		g, err := sparseGraph(n, cfg.seed)
		if err != nil {
			return err
		}
		if err = writeEdgeList(g, graphPath); err != nil {
			return err
		}
		ref = newReference(g, sources, 0)
		if sess, err = apspark.New(); err != nil {
			return err
		}
		_, err = rep(false)
		return err
	}, func() {})
	if err != nil {
		return res, err
	}
	times, err := timeReps(ctx, cfg, rep)
	if err != nil {
		return res, err
	}
	// Every rep checked its first query; the last rep's store also has
	// all its reference rows checked (a cold ivarint row costs
	// milliseconds, so not after every rep).
	st, err := apspark.OpenStore(storePath, 8<<20)
	if err != nil {
		return res, err
	}
	defer st.Close()
	row := make([]float64, n)
	for _, s := range sources {
		res.attempted++
		if row, err = st.RowInto(ctx, s, row); err != nil || !ref.rowOK(s, row) {
			res.failed++
		}
	}
	solveMetrics(cfg, &res, setupS, times, float64(st.FileBytes())/float64(n)/float64(n))
	return res, nil
}

// serveSpec is what distinguishes the two serving workloads.
type serveSpec struct {
	n          int
	codec      string
	cacheMB    int
	rowCacheMB int
	zipfS      float64 // 0: uniform sources
	mix        mix
	rate       float64
	// Lengths of one open-loop and one closed-loop window.
	openWin, closedWin time.Duration
}

func serveHot(ctx context.Context, cfg config, tr *tracer) (result, error) {
	// 128 MiB of rows for a 128 MiB store: after warm-up every row the
	// zipf stream asks for is cached, so the store read path idles.
	return runServe(ctx, cfg, tr, serveSpec{n: cfg.sizes.hotN, codec: "raw", cacheMB: 64, rowCacheMB: 128,
		zipfS: 1.1, mix: mix{kindDist: 60, kindKNN: 20, kindPath: 10, kindRow: 5, kindBatch: 5}, rate: cfg.sizes.hotRate,
		openWin: cfg.sizes.hotOpen, closedWin: cfg.sizes.hotClosed})
}

func serveCold(ctx context.Context, cfg config, tr *tracer) (result, error) {
	// 1 MiB of rows (64 of 2048) and 1 MiB of tiles (2 of 64) against
	// uniform sources: next to nothing is ever cached, so each request
	// assembles a row from freshly decoded ivarint tiles. No /row, so
	// JSON stays small.
	return runServe(ctx, cfg, tr, serveSpec{n: cfg.sizes.coldN, codec: "ivarint", cacheMB: 1, rowCacheMB: 1,
		mix: mix{kindDist: 40, kindKNN: 40, kindPath: 20}, rate: cfg.sizes.coldRate,
		openWin: cfg.sizes.coldOpen, closedWin: cfg.sizes.coldClosed})
}

// serveEnv is a built store with a healthy server in front of it.
type serveEnv struct {
	ref        *reference
	storeBytes int64
	srv        *server
}

// setupServe is everything a serving workload needs before its first
// request: generate the graph, write it as an edge list, compute the
// reference rows of sources, solve the graph into a store with dij, spawn
// apsp-serve and wait until /healthz says ok.
func setupServe(ctx context.Context, cfg config, spec serveSpec, sources []int) (*serveEnv, error) {
	graphPath, storePath := filepath.Join(cfg.workDir, "graph.txt"), filepath.Join(cfg.workDir, "dist.apsp")
	g, err := sparseGraph(spec.n, cfg.seed)
	if err != nil {
		return nil, err
	}
	if err := writeEdgeList(g, graphPath); err != nil {
		return nil, err
	}
	ref := newReference(g, sources, 0)
	sess, err := apspark.New()
	if err != nil {
		return nil, err
	}
	if _, err := sess.SolveToStore(ctx, g, storePath, apspark.WithSolver(apspark.SolverDijkstra), apspark.WithCodec(spec.codec)); err != nil {
		return nil, err
	}
	fi, err := os.Stat(storePath)
	if err != nil {
		return nil, err
	}
	srv, err := startServer(ctx, cfg.serveBin, storePath, graphPath, spec.cacheMB, spec.rowCacheMB)
	if err != nil {
		return nil, err
	}
	return &serveEnv{ref: ref, storeBytes: fi.Size(), srv: srv}, nil
}

func runServe(ctx context.Context, cfg config, tr *tracer, spec serveSpec) (result, error) {
	var res result
	if cfg.serveBin == "" {
		return res, fmt.Errorf("serving workloads need -serve-bin (benchmark/run.sh builds and passes it)")
	}
	var env *serveEnv
	stop := func() {
		if env != nil {
			env.srv.stop()
			env = nil
		}
	}
	defer stop()
	// The verified sources are the most popular ranks, so on the zipf
	// workload the hottest sources are always among them.
	perm := sourcePerm(spec.n, cfg.seed)
	setupS, err := bestSetup(cfg, func() (err error) {
		env, err = setupServe(ctx, cfg, spec, perm[:min(refSources, spec.n)])
		return err
	}, stop)
	if err != nil {
		return res, err
	}
	cl := newClient(env.srv.base, cfg.conns, env.ref, nil)
	defer cl.close()
	stream := 0
	gens := func() []*generator {
		out := make([]*generator, cfg.conns)
		for i := range out {
			stream++
			out[i] = newGenerator(spec.n, spec.mix, spec.zipfS, perm, cfg.seed, stream)
		}
		return out
	}

	// Untimed warm-up: connections open, the server's lazy set-up ends
	// and — on the hot workload — the row cache fills.
	if warm := closedLoop(ctx, cl, gens(), cfg.sizes.warm); warm.failed > 0 {
		return res, fmt.Errorf("warm-up: %d of %d requests failed", warm.failed, warm.attempted)
	}
	cl.tr = tr

	var before map[string]float64
	var floorUs float64
	if cfg.trace {
		if floorUs, err = socketFloorUs(env.srv); err != nil {
			return res, err
		}
		if before, err = env.srv.metrics(); err != nil {
			return res, err
		}
	}

	// The measured phase alternates open-loop and closed-loop windows
	// with a sample of the host's speed before each, so a stall or a slow
	// stretch of the host spoils a window, not the run: the reported
	// latency and capacity are those of the best window of each kind.
	pid := env.srv.cmd.Process.Pid
	cpu0, err := cpuSeconds(pid)
	if err != nil {
		return res, err
	}
	var open, closed, bestOpen loadResult
	var p50s, qps []float64
	openGen := newGenerator(spec.n, spec.mix, spec.zipfS, perm, cfg.seed, 0)
	for start, round := time.Now(), 0; round == 0 || time.Since(start).Seconds() < cfg.seconds; round++ {
		cfg.speed.sample()
		sched := poissonSchedule(cfg.seed*1000+int64(round), spec.rate, spec.openWin)
		reqs := make([]request, len(sched))
		for i := range reqs {
			reqs[i] = openGen.next()
		}
		o := openLoop(ctx, cl, reqs, sched, cfg.conns)
		cfg.speed.sample()
		c := closedLoop(ctx, cl, gens(), spec.closedWin)
		if err := ctx.Err(); err != nil {
			return res, err
		}
		p50s = append(p50s, percentile(o.latencyMs, 0.50))
		qps = append(qps, c.qps())
		if round == 0 || p50s[round] < percentile(bestOpen.latencyMs, 0.50) {
			bestOpen = o
		}
		open.merge(&o)
		closed.merge(&c)
	}
	cfg.speed.sample()
	open.sort()
	closed.sort()
	cpu1, err := cpuSeconds(pid)
	if err != nil {
		return res, err
	}

	if cfg.trace {
		after, err := env.srv.metrics()
		if err != nil {
			return res, err
		}
		if res.layer, err = serveLayerMetrics(before, after, &open, &closed, &bestOpen, floorUs); err != nil {
			return res, err
		}
	} else {
		res.layer = make(map[string]float64)
	}
	rss, err := peakRSSMiB(pid)
	if err != nil {
		return res, err
	}
	f := cfg.speed.factor()
	sort.Float64s(p50s)
	sort.Float64s(qps)
	bestP50, bestQPS := p50s[0], qps[len(qps)-1]
	cpuMs := 1e3 * (cpu1 - cpu0) / float64(open.attempted+closed.attempted)
	res.attempted, res.failed = open.attempted+closed.attempted, open.failed+closed.failed
	res.e2e = map[string]float64{
		"setup_s":              setupS * f,
		"p50_ms":               bestP50 * f,
		"closed_qps":           bestQPS / f,
		"peak_rss_mb":          rss,
		"store_bytes_per_cell": float64(env.storeBytes) / float64(spec.n) / float64(spec.n),
	}
	res.layer["run.host_speed_factor"] = f
	res.layer["run.p50_raw_ms"] = bestP50
	res.layer["run.p90_ms"] = percentile(bestOpen.latencyMs, 0.90) * f
	res.layer["run.cpu_ms_per_op"] = cpuMs * f
	res.notes = append(res.notes,
		fmt.Sprintf("%d rounds of %v open loop at %.0f/s (%d samples, %d in the best window, %d of those beyond p90) and %v closed loop on %d connections (%d requests)",
			len(qps), spec.openWin, spec.rate, open.attempted, bestOpen.attempted, samplesBeyond(bestOpen.attempted, 0.90), spec.closedWin, cfg.conns, closed.attempted),
		fmt.Sprintf("open-loop p50 per window, ms as measured, ascending: %.3f", p50s),
		fmt.Sprintf("closed-loop requests per second per window, as measured, ascending: %.0f", qps),
		speedNote(cfg.speed)+fmt.Sprintf("; as measured: set-up %.3f s, best p50 %.3f ms, best closed loop %.1f/s, server CPU %.4f ms per request", setupS, bestP50, bestQPS, cpuMs),
		fmt.Sprintf("at reference speed: median window p50 %.3f ms and %.1f/s, best window p90 %.3f ms, server CPU %.4f ms per request",
			percentile(p50s, 0.50)*f, percentile(qps, 0.50)/f, res.layer["run.p90_ms"], res.layer["run.cpu_ms_per_op"]),
		fmt.Sprintf("open loop latency ms, all windows pooled, as measured: p50 %.3f p90 %.3f p95 %.3f p99 %.3f max %.3f (%d samples beyond p99)",
			percentile(open.latencyMs, 0.50), percentile(open.latencyMs, 0.90), percentile(open.latencyMs, 0.95), percentile(open.latencyMs, 0.99), percentile(open.latencyMs, 1), samplesBeyond(open.attempted, 0.99)),
		fmt.Sprintf("generator in the best window: late p50 %.0f us, p99 %.0f us, achieved %.1f%% of the target rate (all windows: %.0f us, %.0f us, %.1f%%)",
			percentile(bestOpen.lateUs, 0.50), percentile(bestOpen.lateUs, 0.99), 100*bestOpen.rateRatio(),
			percentile(open.lateUs, 0.50), percentile(open.lateUs, 0.99), 100*open.rateRatio()))
	if percentile(bestOpen.lateUs, 0.99) > 2000 || bestOpen.rateRatio() < 0.99 {
		res.notes = append(res.notes, "INVALID: the load generator ran late in the best window (late p99 > 2 ms or rate < 99% of target); do not use this run's open-loop figures")
	}
	return res, nil
}
