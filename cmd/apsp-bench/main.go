// Command apsp-bench prints the paper's tables and figures, regenerated on
// the virtual cluster.
//
// Usage:
//
//	apsp-bench fig2              # Figure 2: kernel time vs block size
//	apsp-bench fig3              # Figure 3: IM/CB sweep + partition census
//	apsp-bench table2            # Table 2: block size / partitioner sweep
//	apsp-bench table3            # Table 3 + Figure 5: weak scaling
//	apsp-bench all               # everything (the default)
//
// Flags scale the experiments down for quick runs (-quick) or swap in a
// live-calibrated kernel model (-calibrate). Host performance is not
// measured here: benchmark/run.sh is the benchmark of record and
// `go test -bench` the micro-benchmark entry point.
package main

import (
	"flag"
	"fmt"
	"os"

	"apspark/internal/bench"
	"apspark/internal/costmodel"
	"apspark/internal/matrix"
)

const targetNames = "fig2|fig3|table2|table3|all"

var targets = []struct {
	name string
	run  func(model costmodel.KernelModel, quick bool) error
}{
	{"fig2", fig2},
	{"fig3", fig3},
	{"table2", table2},
	{"table3", table3},
}

func main() {
	quick := flag.Bool("quick", false, "scaled-down configurations (seconds instead of minutes)")
	calibrate := flag.Bool("calibrate", false, "calibrate the kernel model on this machine first")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: apsp-bench [-quick] [-calibrate] [%s]\n", targetNames)
		flag.PrintDefaults()
	}
	flag.Parse()

	what := "all"
	if flag.NArg() > 0 {
		what = flag.Arg(0)
	}
	known := what == "all"
	for _, t := range targets {
		known = known || t.name == what
	}
	if !known {
		fmt.Fprintf(os.Stderr, "apsp-bench: unknown target %q\n", what)
		flag.Usage()
		os.Exit(2)
	}

	// On stderr: the tables on stdout stay diffable across hosts.
	fmt.Fprintf(os.Stderr, "apsp-bench: matrix kernel %s\n", matrix.KernelImpl())
	model := costmodel.PaperKernels()
	if *calibrate {
		model = costmodel.Calibrate(256)
		fmt.Printf("calibrated kernel model: FW %.2f Gops, min-plus %.2f Gops\n\n",
			model.FWRateIn/1e9, model.MPRateIn/1e9)
	}
	for _, t := range targets {
		if what != "all" && what != t.name {
			continue
		}
		if err := t.run(model, *quick); err != nil {
			fmt.Fprintf(os.Stderr, "apsp-bench %s: %v\n", t.name, err)
			os.Exit(1)
		}
	}
}

func fig2(model costmodel.KernelModel, quick bool) error {
	cfg := bench.Fig2Config{Model: model, Measure: true}
	if quick {
		cfg.Sizes = []int{256, 512, 1024, 2048, 4096}
		cfg.MeasureCap = 256
	}
	fmt.Println(bench.Figure2Table(bench.Figure2(cfg)))
	return nil
}

func fig3(model costmodel.KernelModel, quick bool) error {
	cfg := bench.Fig3Config{Model: model}
	n, sizes := 131072, []int(nil)
	if quick {
		n, sizes = 32768, []int{512, 1024, 2048}
		cfg.N, cfg.BlockSizes, cfg.MaxUnits = n, sizes, 4
	}
	pts, err := bench.Figure3(cfg)
	if err != nil {
		return err
	}
	fmt.Println(bench.Figure3Table(pts))

	census, err := bench.Figure3Partitions(n, 1024, 2, sizes)
	if err != nil {
		return err
	}
	fmt.Println(bench.Figure3PartitionsTable(census))
	return nil
}

func table2(model costmodel.KernelModel, quick bool) error {
	cfg := bench.Table2Config{Model: model}
	if quick {
		cfg.N = 32768
		cfg.BlockSizes = []int{256, 512, 1024}
		cfg.UnitsToRun = 2
	}
	rows, err := bench.Table2(cfg)
	if err != nil {
		return err
	}
	fmt.Println(bench.Table2Table(rows))
	return nil
}

func table3(model costmodel.KernelModel, quick bool) error {
	cfg := bench.Table3Config{Model: model}
	if quick {
		cfg.Ps = []int{64, 256}
		cfg.MPIPs = []int{64, 256}
		cfg.MaxUnits = 4
	}
	rows, err := bench.Table3(cfg)
	if err != nil {
		return err
	}
	fmt.Println(bench.Table3Table(rows, model, cfg.VerticesPerCore))
	return nil
}
