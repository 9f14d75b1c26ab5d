// Command apsp runs one APSP solver on one graph, either for real (small
// n, verified result) or as a paper-scale virtual projection. It drives
// the Session API end to end: Ctrl-C (or SIGTERM) cancels the solve at
// the next stage boundary and the partial accounting is still printed,
// and -progress streams per-unit progress while the job runs.
//
// Usage:
//
//	apsp -n 512 -solver cb -verify                # real solve, b = n/8
//	apsp -n 262144 -b 2560 -solver cb -phantom    # paper-scale projection
//	apsp -n 131072 -b 512 -solver im -phantom     # reproduces the storage failure
//	apsp -n 8192 -phantom -progress               # watch units stream by
//	apsp -solver dij -input sparse.txt -store d.apsp  # host-native sparse solve,
//	                                                  # rows streamed to the store
//	apsp -solver hier -input g.txt -hier g.hier   # build the partition+shortcut
//	                                              # hierarchy; serve it with
//	                                              # apsp-serve -hier g.hier -graph g.txt
//	apsp -solver help                             # list host-native vs cluster solvers
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"apspark"
	"apspark/internal/bench"
	"apspark/internal/core"
	"apspark/internal/costmodel"
	"apspark/internal/graph"
	"apspark/internal/matrix"
	"apspark/internal/obs"
)

func main() {
	var (
		n         = flag.Int("n", 512, "number of vertices")
		b         = flag.Int("b", 0, "block size (0 = auto: n/8; host-native store solves tile at 256)")
		solver    = flag.String("solver", "cb", "solver: "+solverFlagNames()+" (help lists them)")
		partition = flag.String("partitioner", "MD", "partitioner: MD | PH")
		bpc       = flag.Int("B", 2, "RDD partitions per core")
		seed      = flag.Int64("seed", 42, "graph seed")
		phantom   = flag.Bool("phantom", false, "virtual (shape-only) paper-scale run")
		maxUnits  = flag.Int("max-units", 0, "truncate after this many iteration units (0 = full run)")
		verify    = flag.Bool("verify", false, "cross-check against sequential Floyd-Warshall (real runs)")
		cores     = flag.Int("p", 1024, "virtual cluster cores (multiple of 32)")
		calibrate = flag.Bool("calibrate", false, "calibrate the kernel model on this machine")
		input     = flag.String("input", "", "read the graph from an edge-list file instead of generating one")
		trace     = flag.Bool("trace", false, "print the slowest virtual stages afterwards")
		progress  = flag.Bool("progress", false, "stream per-unit progress to stderr while solving")
		storeOut  = flag.String("store", "", "persist the solved distances as a tiled store file (real runs only; serve it with apsp-serve)")
		codec     = flag.String("codec", "", "-store tile codec: raw (default), ivarint (exact delta+varint, integer weights) or f32 (lossy float32, error-bounded)")
		resume    = flag.Bool("resume", false, "resume a killed/cancelled -store solve from its checkpoint (host-native solvers only)")

		hierOut  = flag.String("hier", "", "-solver hier: persist the built hierarchy to this file (serve it with apsp-serve -hier)")
		partSize = flag.Int("part-size", 0, "-solver hier: target partition size (0 = auto: max(64, 2*sqrt(n)))")
		partSeed = flag.Int64("part-seed", 0, "-solver hier: partitioner ordering seed (answers are exact under every seed)")

		logFormat   = flag.String("log-format", "text", "log output format: text or json")
		logLevel    = flag.String("log-level", "warn", "log level: debug, info, warn or error (debug shows solve/stage/panel spans)")
		dumpMetrics = flag.Bool("dump-metrics", false, "print the process metric registry (Prometheus text format) to stderr after the run")
	)
	flag.Parse()

	if err := obs.SetupLogging(*logFormat, *logLevel, os.Stderr); err != nil {
		fatal(err)
	}

	if *solver == "help" {
		printSolverHelp()
		return
	}
	hier := *solver == "hier"
	host := apspark.SolverKind(*solver) == apspark.SolverDijkstra

	// Every job option the user set is passed to the job, which refuses
	// the ones it does not take; only the flags that exist just in this
	// command are checked here.
	var jobOpts []apspark.SolveOption
	if !hier {
		jobOpts = append(jobOpts, apspark.WithSolver(apspark.SolverKind(*solver)))
	}
	cliOnly := func(name string, ok bool, why string) {
		if !ok {
			fatal(fmt.Errorf("-solver %s does not take -%s: %s", *solver, name, why))
		}
	}
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "b":
			jobOpts = append(jobOpts, apspark.WithBlockSize(*b))
		case "partitioner":
			jobOpts = append(jobOpts, apspark.WithPartitioner(apspark.PartitionerKind(*partition)))
		case "B":
			jobOpts = append(jobOpts, apspark.WithPartsPerCore(*bpc))
		case "max-units":
			jobOpts = append(jobOpts, apspark.WithMaxUnits(*maxUnits))
		case "verify":
			jobOpts = append(jobOpts, apspark.WithVerify(*verify))
		case "trace":
			jobOpts = append(jobOpts, apspark.WithTrace(*trace))
		case "resume":
			jobOpts = append(jobOpts, apspark.WithResume(*resume))
		case "codec":
			jobOpts = append(jobOpts, apspark.WithCodec(*codec))
		case "part-size":
			jobOpts = append(jobOpts, apspark.WithPartSize(*partSize))
		case "part-seed":
			jobOpts = append(jobOpts, apspark.WithPartSeed(*partSeed))
		case "hier":
			cliOnly(f.Name, hier, "only -solver hier builds a hierarchy")
		case "store":
			cliOnly(f.Name, !hier, "a hierarchy is not a tiled store; persist it with -hier")
		case "phantom", "p", "calibrate":
			cliOnly(f.Name, !hier && !host, "only "+strings.Join(core.RegisteredSolvers(), "|")+" run on the virtual cluster")
		}
	})
	if *storeOut != "" && *phantom {
		fatal(fmt.Errorf("-store needs a real solve; phantom runs carry no distances"))
	}
	if *progress {
		jobOpts = append(jobOpts, apspark.WithProgress(progressPrinter(hier, host)))
	}

	// Ctrl-C / SIGTERM cancel the solve at the next stage boundary; the
	// partial result is reported below instead of being thrown away.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	sessOpts := []apspark.Option{apspark.WithClusterCores(*cores)}
	if *calibrate {
		m := costmodel.Calibrate(256)
		sessOpts = append(sessOpts, apspark.WithModel(m))
		fmt.Printf("calibrated: FW %.2f Gops, min-plus %.2f Gops\n", m.FWRateIn/1e9, m.MPRateIn/1e9)
	}
	sess, err := apspark.New(sessOpts...)
	if err != nil {
		fatal(err)
	}

	var res *apspark.Result
	var start time.Time
	if *phantom {
		res, err = sess.Project(ctx, *n, jobOpts...)
	} else {
		var g *apspark.Graph
		g, err = loadGraph(*input, *n, *seed)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("graph: n=%d edges=%d\n", g.N, g.NumEdges())
		if hier {
			runHier(ctx, sess, g, *hierOut, *verify, *dumpMetrics, jobOpts)
			return
		}
		if !host {
			fmt.Printf("matrix kernel: %s\n", matrix.KernelImpl())
		}
		// The reported wall time covers the solve only, not graph
		// generation or edge-list parsing.
		start = time.Now()
		if *storeOut != "" {
			// Host solvers stream completed row panels straight into the
			// store file, so even n far beyond RAM persists without ever
			// materializing the matrix; cluster solvers solve in memory
			// and write the store afterwards.
			res, err = sess.SolveToStore(ctx, g, *storeOut, jobOpts...)
		} else {
			res, err = sess.Solve(ctx, g, jobOpts...)
		}
	}
	wall := time.Since(start)
	// A partial result still prints its accounting: a cancelled run, and a
	// -max-units run, which SolveToStore ran and then refused to store.
	cancelled := res != nil && errors.Is(err, context.Canceled)
	truncated := res != nil && *storeOut != "" && *maxUnits > 0 && res.UnitsRun == *maxUnits && res.UnitsRun < res.UnitsTotal
	if err != nil && !cancelled && !truncated {
		fatal(err)
	}
	if cancelled {
		fmt.Fprintf(os.Stderr, "apsp: cancelled after %d of %d units; partial accounting follows\n",
			res.UnitsRun, res.UnitsTotal)
	}

	if host {
		fmt.Printf("solver:            %s (host-native, store tile b=%d)\n", res.Solver, res.BlockSize)
		fmt.Printf("source rows:       %d of %d\n", res.UnitsRun, res.UnitsTotal)
		if res.UnitsSkipped > 0 {
			fmt.Printf("resumed:           %d rows restored from checkpoint, %d re-solved\n", res.UnitsSkipped, res.UnitsRun)
		}
		fmt.Printf("host wall time:    %s\n", wall.Round(time.Millisecond))
		printSparseEngine()
	} else {
		fmt.Printf("solver:            %s (partitioner %s, b=%d, B=%d, p=%d)\n", res.Solver, *partition, res.BlockSize, *bpc, *cores)
		fmt.Printf("iteration units:   %d of %d\n", res.UnitsRun, res.UnitsTotal)
		fmt.Printf("virtual time:      %s\n", bench.FormatDuration(res.VirtualSeconds))
		if res.UnitsRun < res.UnitsTotal {
			fmt.Printf("projected total:   %s\n", bench.FormatDuration(res.ProjectedSeconds))
		}
		m := res.Metrics
		fmt.Printf("stages/tasks:      %d / %d (%d retries)\n", m.Stages, m.Tasks, m.TaskRetries)
		fmt.Printf("shuffle bytes:     %s\n", fmtBytes(m.ShuffleBytes))
		fmt.Printf("shared FS r/w:     %s / %s\n", fmtBytes(m.SharedReadBytes), fmtBytes(m.SharedWriteBytes))
		fmt.Printf("collect/broadcast: %s / %s\n", fmtBytes(m.CollectBytes), fmtBytes(m.BroadcastBytes))
		fmt.Printf("peak local SSD:    %s per node\n", fmtBytes(m.LocalPeakBytes))
	}
	if res.Dist != nil && *verify {
		fmt.Println("verification:      OK (matches sequential Floyd-Warshall)")
	}
	switch {
	case *storeOut == "":
	case err == nil:
		st, err := os.Stat(*storeOut)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("store:             %s (%s, b=%d; serve with apsp-serve -store %s)\n",
			*storeOut, fmtBytes(st.Size()), res.BlockSize, *storeOut)
	case host:
		// A cancelled streamed solve leaves no store at the target path,
		// only the durable checkpoint (.partial + .manifest).
		fmt.Fprintf(os.Stderr, "apsp: checkpoint kept; rerun with -resume to continue from the last durable panel\n")
	default:
		// Truncated or cancelled runs carry no distances; the missing
		// artifact must be loud, not discovered when serving fails.
		fmt.Fprintf(os.Stderr, "apsp: store %s not written: run has no distance matrix (%d of %d units)\n",
			*storeOut, res.UnitsRun, res.UnitsTotal)
	}
	if *trace && len(res.Timeline) > 0 {
		tl := res.Timeline
		sort.Slice(tl, func(i, j int) bool { return tl[i].Makespan > tl[j].Makespan })
		k := 10
		if len(tl) < k {
			k = len(tl)
		}
		fmt.Printf("slowest %d of %d stages:\n", k, len(tl))
		for _, s := range tl[:k] {
			fmt.Printf("  %-28s %5d tasks  %8.3fs makespan  (work %8.3fs)\n",
				s.Name, s.Tasks, s.Makespan, s.ComputeSum)
		}
	}
	if *dumpMetrics {
		writeMetrics()
	}
	if cancelled {
		os.Exit(130) // conventional SIGINT exit status
	}
	if err != nil {
		os.Exit(1)
	}
}

// printSparseEngine reports the panel kernel the host solve's sparse
// engine ended on, with the reason if it narrowed on the way, as the
// engine itself tells it: the solve registers its engine with the process
// registry, and these are the apsp_sparse_panel_kernel_info and
// apsp_sparse_batch_fallbacks_total series a served process exposes on
// /metrics.
func printSparseEngine() {
	var buf bytes.Buffer
	if err := obs.Default.WritePrometheus(&buf); err != nil {
		fatal(err)
	}
	text := buf.String()
	is1 := func(series string) bool { return strings.Contains(text, series+" 1\n") }
	for _, k := range []string{"batch32", "batch16", "row"} {
		if !is1(`apsp_sparse_panel_kernel_info{impl="` + k + `"}`) {
			continue
		}
		var why []string
		if is1(`apsp_sparse_batch_fallbacks_total{reason="range"}`) {
			why = append(why, "left batch32: a distance of 65280 or more needs 32-bit lanes")
		}
		if is1(`apsp_sparse_batch_fallbacks_total{reason="budget"}`) {
			why = append(why, "stopped batching: a batch overran its work budget")
		}
		if len(why) > 0 {
			k += " (" + strings.Join(why, "; ") + ")"
		}
		fmt.Printf("sparse panel kernel: %s\n", k)
	}
	var kept, discarded string
	for _, line := range strings.Split(text, "\n") {
		if visits, ok := strings.CutPrefix(line, "apsp_sparse_sweep_visits_total "); ok {
			kept = visits
		}
		if visits, ok := strings.CutPrefix(line, "apsp_sparse_discarded_sweep_visits_total "); ok && visits != "0" {
			discarded = " (" + visits + " more in batches thrown away)"
		}
	}
	if kept != "" {
		fmt.Printf("sparse sweep visits: %s%s\n", kept, discarded)
	}
}

// loadGraph reads an edge-list file when input is set, otherwise samples
// the paper's G(n, p) family.
func loadGraph(input string, n int, seed int64) (*apspark.Graph, error) {
	if input == "" {
		return apspark.NewErdosRenyiGraph(n, apspark.PaperEdgeProb(n), seed)
	}
	f, err := os.Open(input)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return graph.ReadEdgeList(f)
}

// runHier is the -solver hier mode: partition the graph, solve
// boundary-to-boundary shortcuts, and report (optionally persist) the
// resulting compute-on-demand hierarchy instead of a distance matrix.
func runHier(ctx context.Context, sess *apspark.Session, g *apspark.Graph, out string, verify, dumpMetrics bool, jobOpts []apspark.SolveOption) {
	start := time.Now()
	o, err := sess.BuildHierarchy(ctx, g, jobOpts...)
	if err != nil {
		if errors.Is(err, context.Canceled) {
			// A cancelled build keeps no partial state; there is nothing to
			// report beyond the fact.
			fmt.Fprintln(os.Stderr, "apsp: hierarchy build cancelled; nothing persisted")
			os.Exit(130)
		}
		fatal(err)
	}
	wall := time.Since(start)
	st := o.Stats()
	fmt.Printf("solver:            partition+shortcut hierarchy (host-native)\n")
	fmt.Printf("partitions:        %d (target size %d, max %d)\n", st.Parts, st.TargetSize, st.MaxPartSize)
	fmt.Printf("boundary vertices: %d of %d\n", st.BoundaryVerts, g.N)
	fmt.Printf("cut edges:         %d of %d\n", st.CutEdges, g.NumEdges())
	fmt.Printf("overlay edges:     %d (%d shortcut + %d cut)\n", st.OverlayEdges, st.ShortcutEdges, st.OverlayEdges-st.ShortcutEdges)
	fmt.Printf("build wall time:   %s\n", wall.Round(time.Millisecond))
	if verify {
		fmt.Println("verification:      OK (matches sequential Floyd-Warshall)")
	}
	if out != "" {
		if err := o.Save(out); err != nil {
			fatal(err)
		}
		fi, err := os.Stat(out)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("hierarchy:         %s (%s; serve with apsp-serve -hier %s -graph <edge list>)\n",
			out, fmtBytes(fi.Size()), out)
	}
	if dumpMetrics {
		writeMetrics()
	}
}

// writeMetrics dumps the process metric registry to stderr. The span
// histograms (and, for host solves and hierarchy builds, the engine's
// telemetry) land in it during the run, so a one-shot run gets the same
// numbers a served process would expose on /metrics.
func writeMetrics() {
	obs.RegisterProcessMetrics(obs.Default)
	fmt.Fprintln(os.Stderr, "# apsp: end-of-run metrics")
	if err := obs.Default.WritePrometheus(os.Stderr); err != nil {
		fatal(err)
	}
}

// progressPrinter renders the -progress stream: virtual time and shuffle
// traffic per iteration unit for cluster solvers, solved rows for dij
// (each unit is one row panel; the final done event repeats the last
// panel's count, so it is skipped) and solved partitions for hier.
func progressPrinter(hier, host bool) func(apspark.StageEvent) {
	switch {
	case hier:
		return func(ev apspark.StageEvent) {
			if ev.Name == "unit" {
				fmt.Fprintf(os.Stderr, "apsp: partitions %5d/%d solved\n", ev.UnitsDone, ev.UnitsTotal)
			}
		}
	case host:
		return func(ev apspark.StageEvent) {
			if ev.Name == "unit" {
				fmt.Fprintf(os.Stderr, "apsp: rows %6d/%d solved\n", ev.UnitsDone, ev.UnitsTotal)
			}
		}
	}
	return func(ev apspark.StageEvent) {
		if ev.Name == "unit" || ev.Done {
			fmt.Fprintf(os.Stderr, "apsp: unit %5d/%d  virtual %-12s shuffle %s\n",
				ev.UnitsDone, ev.UnitsTotal, bench.FormatDuration(ev.VirtualSeconds), fmtBytes(ev.ShuffleBytes))
		}
	}
}

func fmtBytes(b int64) string {
	const unit = 1024
	if b < unit {
		return fmt.Sprintf("%d B", b)
	}
	div, exp := int64(unit), 0
	for n := b / unit; n >= unit; n /= unit {
		div *= unit
		exp++
	}
	return fmt.Sprintf("%.1f %ciB", float64(b)/float64(div), "KMGTPE"[exp])
}

// solverFlagNames lists every accepted -solver value, host-native first.
func solverFlagNames() string {
	return strings.Join(append([]string{string(apspark.SolverDijkstra), "hier"}, core.RegisteredSolvers()...), " | ")
}

// printSolverHelp renders the -solver help listing, separating solvers
// that run natively on this host from those that run on the simulated
// Spark cluster.
func printSolverHelp() {
	fmt.Println("host-native solvers (run on this machine, real solves only; no -phantom/-p/-partitioner/-B):")
	fmt.Printf("  %-5s %s\n", apspark.SolverDijkstra,
		"Dijkstra from every source over the CSR graph; O(n·(m + n log n)), the sparse-graph fast path")
	fmt.Printf("  %-5s %s\n", "hier",
		"partition+shortcut hierarchy: no matrix is solved; queries are answered on demand (persist with -hier, serve with apsp-serve -hier)")
	fmt.Println("virtual-cluster solvers (paper §4; real solves and -phantom projections):")
	for _, name := range core.RegisteredSolvers() {
		s, err := core.SolverByName(name)
		if err != nil {
			continue
		}
		kind := "impure"
		if s.Pure() {
			kind = "pure"
		}
		fmt.Printf("  %-5s %s (%s)\n", name, s.Name(), kind)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "apsp:", err)
	os.Exit(1)
}
