// Command benchmark is the repository's benchmark: four named workloads
// (two solves, two serving mixes against a real apsp-serve child), each
// checked against an independent reference, reporting five end-to-end
// figures untraced and the per-layer figures traced. See README.md.
//
// One run is one workload:
//
//	bash benchmark/run.sh --workload serve_hot --seed 1 --seconds 24 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// run returns instead of exiting, so deferred clean-up (scratch
// directory, child server) runs on every path including SIGINT.
func run() error {
	var (
		name     = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), " | "))
		seed     = flag.Int64("seed", 1, "seed of the generated inputs and request streams")
		seconds  = flag.Float64("seconds", 24, "length of the measured phase in seconds")
		trace    = flag.Int("trace", 0, "1: record spans, scrape the server, run the layer probes and report the per-layer figures; 0: report the end-to-end figures")
		serveBin = flag.String("serve-bin", "", "path of a built cmd/apsp-serve (run.sh builds and passes it)")
		outDir   = flag.String("out", filepath.Join(".bench_build", "out"), "directory trace-<workload>.json is written to")
		smokeRun = flag.Bool("smoke", false, "tiny sizes: exercises the harness, measures nothing")
		aa       = flag.Bool("aa", false, "A/A mode: run every workload untraced in two back-to-back sets and judge the sets against the bounds")
		runs     = flag.Int("runs", 1, "with -aa: runs per workload and set, each with its own seed (10 repeats the acceptance check)")
	)
	flag.Parse()

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	fmt.Fprintln(os.Stderr, hostStamp())

	if *aa {
		return runAA(ctx, *seed, *seconds, *runs, *serveBin, *smokeRun)
	}

	cfg := config{workload: *name, seed: *seed, seconds: *seconds, trace: *trace != 0, sizes: full,
		serveBin: *serveBin, outDir: *outDir, conns: runtime.NumCPU()}
	if *smokeRun {
		cfg.sizes = smoke
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cfg.workDir = dir

	rep, err := runOne(ctx, cfg)
	if err != nil {
		return err
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !rep.Correct {
		return fmt.Errorf("%d of %d operations failed", rep.Failed, rep.Attempted)
	}
	return nil
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// report is the result line.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOne runs cfg.workload once and returns its report: the end-to-end
// figures of an untraced run, the per-layer figures of a traced one. The
// figures are also printed by name with their units, for a reader.
func runOne(ctx context.Context, cfg config) (report, error) {
	var w *workload
	for i := range workloads {
		if workloads[i].name == cfg.workload {
			w = &workloads[i]
		}
	}
	if w == nil {
		return report{}, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	cfg.speed = &hostSpeed{}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	res, err := w.run(ctx, cfg, tr)
	if err != nil {
		return report{}, fmt.Errorf("%s: %w", w.name, err)
	}

	defs, values := endToEnd, res.e2e
	if cfg.trace {
		sum := summarize(tr.spans)
		if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
			return report{}, err
		}
		path := filepath.Join(cfg.outDir, "trace-"+w.name+".json")
		if err := writeTrace(path, w.name, cfg.seed, tr.spans, sum); err != nil {
			return report{}, err
		}
		res.notes = append(res.notes, fmt.Sprintf("%d spans in %s; self times sum to %.3f s of %.3f s end to end",
			len(tr.spans), path, float64(sum.SelfSumNs)/1e9, float64(sum.RootNs)/1e9))
		probes, err := runProbes(ctx, cfg)
		if err != nil {
			return report{}, fmt.Errorf("layer probes: %w", err)
		}
		defs, values = perLayer, probes
		for _, part := range []map[string]float64{spanLayerMetrics(sum), res.layer} {
			for k, v := range part {
				values[k] = v
			}
		}
	}

	rep := report{Correct: res.failed == 0 && res.attempted > 0, Attempted: res.attempted, Failed: res.failed,
		Metrics: make(map[string]metricValue, len(defs))}
	fmt.Printf("workload %s seed %d: %d operations checked, %d failed\n", w.name, cfg.seed, res.attempted, res.failed)
	for _, d := range defs {
		// A figure missing from values is one the workload never enters
		// (a serving counter on a solve): it reads 0.
		rep.Metrics[d.name] = metricValue{values[d.name], d.unit}
		fmt.Printf("  %-40s %16.6g %s\n", d.name, values[d.name], d.unit)
	}
	for _, n := range res.notes {
		fmt.Println("  note:", n)
	}
	return rep, nil
}

// hostStamp says where a result was measured.
func hostStamp() string {
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease")
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return fmt.Sprintf("host: nproc=%d GOMAXPROCS=%d %s kernel=%s commit=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), strings.TrimSpace(string(kernel)), commit)
}
