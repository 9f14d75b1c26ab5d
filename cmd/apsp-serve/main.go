// Command apsp-serve answers shortest-path queries over HTTP from a
// persisted tiled distance store — the serving end of the pipeline: solve
// once, write the store, then query forever without re-solving (or even
// holding the matrix in memory; both caches are byte-budgeted) — or,
// with no store at all, from the graph alone.
//
// Usage:
//
//	apsp -n 2048 -b 256 -solver cb -store dist.apsp   # solve + persist
//	apsp-serve -store dist.apsp -graph graph.txt -addr :8080
//	apsp-serve -graph graph.txt -addr :8080           # no store
//
//	curl 'localhost:8080/dist?from=0&to=100'
//	curl 'localhost:8080/row?from=0'
//	curl 'localhost:8080/knn?from=0&k=5'
//	curl 'localhost:8080/path?from=0&to=100'   # needs -graph
//	curl 'localhost:8080/healthz'
//	curl 'localhost:8080/metrics'              # Prometheus text format
//	curl -d '{"dist":[{"from":0,"to":100}],"knn":[{"from":0,"k":5}]}' \
//	     'localhost:8080/batch'                # many queries, one round-trip
//
// -graph enables /path: hops are reconstructed from the distance matrix
// and the adjacency lists via d[i][k] + w(k,j) == d[i][j], so no
// successor matrix is ever stored. It also arms the corrupt-tile
// fallback: a store tile that fails its checksum is quarantined and
// the affected rows are re-solved from the graph on demand, so a
// bit-flipped file degrades to compute-speed answers instead of errors.
//
// -graph with no -store and no -gens serves a graph whose n x n matrix
// was never solved: each row asked for is solved on demand by the
// sparse engine (the one that also re-solves corrupt store tiles) and
// kept in the -row-cache-mb row cache, and a /dist whose row is not
// cached solves only until its target settles. The answers are the ones
// a store solved from the same graph holds. /healthz reports which
// source kind is live: store or rows.
//
// -gens serves a live-updatable generation directory (see
// internal/generation) instead of one frozen store file: the directory
// holds versioned generations plus a durable CURRENT pointer, and the
// server follows promotions, rollbacks and reloads under live traffic
// with zero downtime — every in-flight request keeps answering from the
// generation it started on, new requests see the new one, and the old
// generation's store closes when its last reader drains. Seed an empty
// directory by passing -store and -graph alongside -gens (the store is
// imported as gen-0001); afterwards both flags are unnecessary — each
// generation carries its own graph.
//
//	apsp-serve -gens ./gens -store dist.apsp -graph g.txt \
//	           -addr :8080 -admin localhost:8081
//
//	curl -d '{"deltas":[{"u":0,"v":9,"w":2.5}]}' localhost:8081/update
//	curl -X POST localhost:8081/rollback
//	curl localhost:8081/generations
//
// -admin exposes the update surface on its own listener (never the query
// port): POST /update ingests an edge-delta batch, recomputes only the
// affected row panels into a new generation, validates it (tile CRC
// spot-checks plus sampled differential rows against a fresh solve) and
// promotes it — a candidate that fails validation is quarantined on disk
// and the old generation keeps serving. SIGHUP re-reads CURRENT and
// swaps to it, so an external actor (or another process) re-pointing the
// directory is picked up without a restart.
//
// The serving read path is two-level: -row-cache-mb budgets the
// assembled-row cache (whole distance rows; Row/KNN/Path/Dist all consume
// rows, so this is the cache that matters for query throughput) and
// -cache-mb budgets the decoded-tile cache beneath it, which only fills
// with -row-cache-mb 0. Cold rows are assembled with direct row-span
// reads (q small preads), so even a miss never decodes full tiles.
// Serving a -store alone (no -gens) with a -max-inflight bound, the
// server keeps the runtime's soft memory limit at the bytes its cache
// can hold, plus a row of 8·n bytes per admitted request, plus
// twice what it holds besides the cache (at least 32 MiB), measured at
// the end of every GC cycle. So the GC does not double the cache as it
// doubles the rest of the heap; GOMEMLIMIT, when set, wins.
//
// The server is hardened for unattended operation: the listener is up
// (and /healthz answers "loading") before the store is opened, handler
// panics become 500s, -max-inflight bounds concurrent requests (the
// excess is shed with 429 + Retry-After), -req-timeout deadlines each
// request (blown deadlines answer 504), -max-body caps request bodies,
// and -read-retries/-retry-backoff absorb transient disk faults under
// the store. /healthz reports ok or degraded (quarantined tiles exist)
// plus the retry/quarantine/recompute counters and, under -gens, the
// serving generation id.
//
// Observability is on by default: /metrics (same listener; disable with
// -metrics=false) exposes per-endpoint request counts, latency
// summaries (p50/p99/p999), response bytes, in-flight, admission sheds,
// store cache hit/miss/eviction counters, recompute fallbacks, process
// gauges and — under -gens — the generation lifecycle counters
// (promotions, quarantines, rollbacks, swaps, reloads). Logs are
// structured (log/slog); -log-format picks text or json and -access-log
// adds one line per request with status, bytes and latency — recorded
// for every outcome, including 429/504 sheds and recovered panics.
// /healthz and /metrics bypass admission control, so probes and scrapes
// see past the overload they detect.
//
// -pprof exposes net/http/pprof on a separate listener (opt-in), so
// serving hot spots are profilable in production without exposing the
// profiler on the query port. A pprof listener that cannot bind is a
// startup error, not a background warning: the process exits non-zero
// rather than running silently unprofilable. While -pprof is active,
// each request's goroutine carries pprof labels (endpoint, shard) so
// profiles attribute samples to the endpoint that burned them.
//
// SIGINT/SIGTERM shut the server down gracefully: the listener closes,
// in-flight requests get -drain-timeout to finish (their reads are
// bounded by each request's context), and the store is closed cleanly.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on DefaultServeMux, served only via -pprof
	"os"
	"os/signal"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"apspark/internal/generation"
	"apspark/internal/graph"
	"apspark/internal/matrix"
	"apspark/internal/obs"
	"apspark/internal/serve"
	"apspark/internal/store"
)

func main() {
	var (
		storePath = flag.String("store", "", "tiled distance store written by apsp -store (with -gens: the seed store imported into an empty generation directory)")
		graphPath = flag.String("graph", "", "edge-list file of the solved graph; enables /path and corrupt-tile recompute (alone: serves rows solved on demand, no store; required for -gens seeding)")
		gensDir   = flag.String("gens", "", "generation directory for live-updatable serving; promotions/rollbacks swap in with zero downtime")
		adminAddr = flag.String("admin", "", "admin listener for live updates (POST /update, POST /rollback, GET /generations); requires -gens")
		keepLast  = flag.Int("keep-last", 3, "generations kept on disk after promotion; older ones are GC'd (the serving generation always survives)")
		addr      = flag.String("addr", ":8080", "listen address")
		cacheMB   = flag.Int64("cache-mb", 64, "decoded-tile cache budget in MiB; only used with -row-cache-mb 0 (0 disables tile caching)")
		rowMB     = flag.Int64("row-cache-mb", 16, "row cache budget in MiB, of assembled store rows or, with -graph alone, of solved rows (0 disables row caching); serving -store alone, the GC is sized to hold it once, not twice (GOMEMLIMIT overrides)")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060); empty disables")
		drain     = flag.Duration("drain-timeout", 10*time.Second, "grace period for in-flight requests on shutdown")

		maxInFlight = flag.Int("max-inflight", 256, "max concurrent requests; the excess gets 429 + Retry-After (0 = unlimited)")
		reqTimeout  = flag.Duration("req-timeout", 30*time.Second, "per-request deadline; blown deadlines answer 504 (0 = none)")
		maxBody     = flag.Int64("max-body", 1<<20, "max request body bytes")
		readRetries = flag.Int("read-retries", 2, "retry budget for transient store read faults (0 = fail on first error)")
		retryWait   = flag.Duration("retry-backoff", 2*time.Millisecond, "initial backoff between store read retries, doubling each attempt")

		metricsOn = flag.Bool("metrics", true, "expose Prometheus metrics at /metrics on the query listener")
		logFormat = flag.String("log-format", "text", "log output format: text or json")
		logLevel  = flag.String("log-level", "info", "log level: debug, info, warn or error")
		accessLog = flag.Bool("access-log", false, "log one structured line per request (method, path, status, bytes, latency)")
		shard     = flag.String("shard", "", "shard identity for logs and pprof labels (default: store file basename)")
	)
	flag.Parse()

	if err := obs.SetupLogging(*logFormat, *logLevel, os.Stderr); err != nil {
		fatal(err)
	}
	budget := func(name string, v int64) int64 {
		b, err := mibFlag(name, v)
		if err != nil {
			slog.Error(err.Error())
			os.Exit(2)
		}
		return b
	}
	tileBytes, rowBytes := budget("cache-mb", *cacheMB), budget("row-cache-mb", *rowMB)
	if *storePath == "" && *graphPath == "" && *gensDir == "" {
		fatal(fmt.Errorf("missing -store, -graph or -gens (write a store with: apsp -n ... -store dist.apsp)"))
	}
	if *adminAddr != "" && *gensDir == "" {
		fatal(fmt.Errorf("-admin needs -gens: live updates operate on a generation directory"))
	}
	if *shard == "" {
		switch {
		case *gensDir != "":
			*shard = filepath.Base(*gensDir)
		case *storePath != "":
			*shard = filepath.Base(*storePath)
		default:
			*shard = filepath.Base(*graphPath)
		}
	}

	storeOpts := store.Options{
		TileCacheBytes: tileBytes,
		RowCacheBytes:  rowBytes,
		ReadRetries:    *readRetries,
		RetryBackoff:   *retryWait,
	}

	// A pprof listener that cannot bind must fail the start, not log a
	// line into the void from a goroutine: bind synchronously, serve
	// asynchronously.
	var pprofLn net.Listener
	if *pprofAddr != "" {
		ln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			fatal(fmt.Errorf("pprof listener failed to bind %s: %w", *pprofAddr, err))
		}
		pprofLn = ln
		slog.Info("pprof listening", "url", fmt.Sprintf("http://%s/debug/pprof/", ln.Addr()))
		go func() {
			if err := http.Serve(ln, nil); err != nil && !errors.Is(err, net.ErrClosed) {
				slog.Error("pprof server failed", "addr", *pprofAddr, "err", err)
			}
		}()
		defer pprofLn.Close()
	}

	hopts := serve.HardenOptions{
		MaxInFlight: *maxInFlight,
		Timeout:     *reqTimeout,
		PprofLabels: *pprofAddr != "",
		Shard:       *shard,
	}
	if *metricsOn {
		hopts.Metrics = obs.Default
		obs.RegisterProcessMetrics(obs.Default)
		obs.Default.Gauge("apsp_matrix_kernel_info", "Min-plus row primitive in use (avx2 or generic); always 1.",
			obs.Label{Key: "impl", Value: matrix.KernelImpl()}).Set(1)
	}
	if *accessLog {
		hopts.AccessLog = slog.Default()
	}

	// Listener first, store second: the Gate answers "loading" on /healthz
	// (503 elsewhere) until the store is open, so orchestrator probes see
	// a live process during a slow cold start instead of refused
	// connections. /metrics shares the listener (and the Gate's
	// early-availability property) but sits outside the body-size cap and
	// the admission/timeout stack — scrapes must work under overload.
	gate := serve.NewGate()
	root := http.NewServeMux()
	if *metricsOn {
		root.Handle("GET /metrics", obs.Handler(obs.Default))
	}
	root.Handle("/", http.MaxBytesHandler(serve.Harden(gate, hopts), *maxBody))
	srv := &http.Server{
		Addr:              *addr,
		Handler:           root,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	slog.Info("listening, loading sources", "addr", *addr, "store", *storePath, "graph", *graphPath, "gens", *gensDir)

	var g *graph.Graph
	if *graphPath != "" {
		f, err := os.Open(*graphPath)
		if err != nil {
			fatal(err)
		}
		g, err = graph.ReadEdgeList(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
	}

	// Build the first serving epoch. Every mode — frozen store, rows from
	// the graph, generation directory — serves through the swapper, so the
	// query path is identical; only -gens ever swaps.
	var (
		swapper *serve.Swapper
		mgr     *generation.Manager
		swapMu  sync.Mutex // serializes openEpoch+Swap across admin and SIGHUP
	)

	// swapCurrent opens the manager's current generation and swaps serving
	// onto it; a no-op when the serving epoch already is that generation.
	swapCurrent := func(reason string) error {
		swapMu.Lock()
		defer swapMu.Unlock()
		st, gg, id, err := mgr.OpenCurrent()
		if err != nil {
			return err
		}
		if cur := swapper.Current(); cur != nil && cur.Generation == id {
			st.Close()
			return nil
		}
		eng, err := serve.NewWithOptions(st, gg, serve.EngineOptions{Generation: id})
		if err != nil {
			st.Close()
			return err
		}
		if *metricsOn {
			// Function-backed metrics replace on re-registration, so the
			// store and engine gauges rebind to the new generation.
			st.RegisterMetrics(obs.Default)
			eng.RegisterMetrics(obs.Default)
		}
		from := ""
		if cur := swapper.Current(); cur != nil {
			from = cur.Generation
		}
		swapper.Swap(serve.NewEpoch(id, eng, st))
		slog.Info("serving generation swapped", "reason", reason, "from", from, "to", id, "n", eng.N())
		return nil
	}

	var st *store.Store // static -store mode handle (for the ready log)
	if *gensDir != "" {
		mopts := generation.Options{Store: storeOpts, KeepLast: *keepLast}
		m, err := generation.Open(*gensDir, mopts)
		if (errors.Is(err, generation.ErrEmpty) || os.IsNotExist(err)) && *storePath != "" {
			// Seed an empty directory from -store/-graph: the store becomes
			// gen-0001 and the flags are unnecessary from then on.
			if g == nil {
				fatal(fmt.Errorf("-gens seeding needs -graph: every generation carries the graph it solves"))
			}
			id, ierr := generation.Import(*gensDir, *storePath, g)
			if ierr != nil {
				fatal(ierr)
			}
			slog.Info("generation directory seeded", "dir", *gensDir, "id", id, "from", *storePath)
			m, err = generation.Open(*gensDir, mopts)
		}
		if err != nil {
			fatal(err)
		}
		mgr = m
		swapper = serve.NewSwapper(nil)
		if err := swapCurrent("start"); err != nil {
			fatal(err)
		}
		if *metricsOn {
			mgr.RegisterMetrics(obs.Default)
		}
	} else {
		// The store answers when there is one; with the graph alone, rows
		// are solved on demand.
		var src serve.Source
		if *storePath != "" {
			s, err := store.OpenWithOptions(*storePath, storeOpts)
			if err != nil {
				fatal(err)
			}
			st, src = s, s
		} else {
			rs, err := serve.NewRowsSource(g, rowBytes)
			if err != nil {
				fatal(err)
			}
			src = rs
		}
		eng, err := serve.New(src, g)
		if err != nil {
			fatal(err)
		}
		if *metricsOn {
			if st != nil {
				st.RegisterMetrics(obs.Default)
			}
			eng.RegisterMetrics(obs.Default)
		}
		var closers []io.Closer
		if st != nil {
			closers = append(closers, st)
		}
		ep := serve.NewEpoch("", eng, closers...)
		swapper = serve.NewSwapper(ep)
	}
	var reloads *obs.Counter
	if *metricsOn {
		swapper.RegisterMetrics(obs.Default)
		reloads = obs.Default.Counter("apsp_serve_reloads_total",
			"CURRENT reloads picked up (SIGHUP or admin-triggered) that re-resolved the serving generation.")
	}

	// Size the GC to the cache before the first request: a cache never
	// outgrows its budget, so only the rest of the process needs the
	// headroom GOGC gives it. Only a -store server alone with bounded
	// admission gets the limit; -gens and -graph alone keep GOGC's pacing.
	var cacheBudget, memBase int64
	if st != nil && *maxInFlight > 0 {
		cacheBudget = cacheBytes(servingCache(st.Snapshot()), st.N())
		_, memBase, _ = limitMemory(cacheBudget, int64(*maxInFlight)*8*int64(st.N()),
			func() int64 { return servingCache(st.Snapshot()).BytesInUse })
	}
	gate.Ready(swapper.Handler())

	// The admin listener, like pprof, binds synchronously so a bad -admin
	// fails the start, and stays off the query port so update traffic can
	// never contend with (or be confused for) query traffic.
	var adminSrv *http.Server
	if *adminAddr != "" {
		adm := &generation.AdminServer{M: mgr, OnSwap: func(id string) error {
			return swapCurrent("admin")
		}}
		ln, err := net.Listen("tcp", *adminAddr)
		if err != nil {
			fatal(fmt.Errorf("admin listener failed to bind %s: %w", *adminAddr, err))
		}
		adminSrv = &http.Server{Handler: adm.Handler(), ReadHeaderTimeout: 5 * time.Second}
		slog.Info("admin listening", "addr", ln.Addr().String())
		go func() {
			if err := adminSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				slog.Error("admin server failed", "addr", *adminAddr, "err", err)
			}
		}()
	}

	// SIGHUP: re-read CURRENT and follow it. Lets an operator (or a
	// sidecar that writes generations out-of-process) re-point the
	// directory and have the server pick it up with zero downtime.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			if mgr == nil {
				slog.Warn("SIGHUP ignored: reload needs -gens mode")
				continue
			}
			id, err := mgr.Reload()
			if err != nil {
				slog.Error("SIGHUP reload failed", "err", err)
				continue
			}
			if err := swapCurrent("sighup"); err != nil {
				slog.Error("SIGHUP swap failed", "generation", id, "err", err)
				continue
			}
			if reloads != nil {
				reloads.Inc()
			}
			slog.Info("reloaded CURRENT", "generation", id)
		}
	}()

	eng := swapper.Current().Engine()
	ready := []any{
		"source", eng.SourceKind(), "n", eng.N(),
		"path_enabled", eng.HasGraph(), "max_inflight", *maxInFlight, "req_timeout", *reqTimeout,
		"metrics", *metricsOn, "shard", *shard, "addr", *addr,
		"memory_limit_mib", memLimitMiB(),
	}
	if memBase > 0 {
		ready = append(ready, "cache_budget_mib", mib(cacheBudget), "memory_base_mib", mib(memBase))
	}
	if mgr != nil {
		ready = append(ready, "generation", mgr.Current(), "admin", *adminAddr, "keep_last", *keepLast)
	}
	if st != nil {
		ready = append(ready,
			"block", st.BlockSize(), "tiles_per_side", st.TilesPerSide(),
			"file_mib", mib(st.FileBytes()),
			"tile_cache_mib", *cacheMB, "row_cache_mib", *rowMB)
	} else if mgr == nil {
		ready = append(ready, "row_cache_mib", *rowMB)
	}
	slog.Info("ready", ready...)

	// Serve until the listener fails or a shutdown signal arrives.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	select {
	case err := <-errCh:
		swapper.Close()
		fatal(err)
	case <-ctx.Done():
		stop() // restore default signal behavior: a second ^C kills immediately
		slog.Info("shutting down", "drain_timeout", *drain)
		sctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if adminSrv != nil {
			adminSrv.Shutdown(sctx)
		}
		if err := srv.Shutdown(sctx); err != nil {
			slog.Warn("drain expired, closing", "err", err)
			srv.Close()
		}
		if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
			slog.Error("listener failed", "err", err)
		}
		// Retire the serving epoch: its store closes once the drained
		// requests release it (immediately, after Shutdown returned).
		swapper.Close()
		slog.Info("bye")
	}
}

// mib formats a byte count in MiB for the logs.
func mib(bytes int64) string { return fmt.Sprintf("%.1f", float64(bytes)/(1<<20)) }

func fatal(err error) {
	slog.Error(err.Error())
	os.Exit(1)
}
