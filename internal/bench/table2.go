package bench

import (
	"fmt"

	"apspark/internal/cluster"
	"apspark/internal/core"
	"apspark/internal/costmodel"
)

// Table2Row is one line of paper Table 2: the effect of block size and
// partitioner on per-iteration time and the projected full-run time, for
// one solver at n = 262,144 on 1,024 cores.
type Table2Row struct {
	Solver       string
	Partitioner  core.PartitionerKind
	BlockSize    int
	Iterations   int
	SingleSec    float64 // average per iteration unit
	ProjectedSec float64
	Err          string
}

// Table2Config configures the sweep; zero values mean the paper's setup.
type Table2Config struct {
	N            int // default 262144
	Cluster      cluster.Config
	Model        costmodel.KernelModel
	BlockSizes   []int // default 256..4096
	Partitioners []core.PartitionerKind
	Solvers      []core.Solver
	// UnitsToRun is how many iteration units each configuration executes
	// before projecting (the paper also projects from measured single
	// iterations for RS and FW2D).
	UnitsToRun   int
	PartsPerCore int
}

func (c Table2Config) withDefaults() Table2Config {
	if c.N == 0 {
		c.N = 262144
	}
	if c.Cluster.Nodes == 0 {
		c.Cluster = cluster.Paper()
	}
	if c.Model.FWRateIn == 0 {
		c.Model = costmodel.PaperKernels()
	}
	if c.BlockSizes == nil {
		c.BlockSizes = []int{256, 512, 1024, 2048, 4096}
	}
	if c.Partitioners == nil {
		c.Partitioners = []core.PartitionerKind{core.PartitionerMD, core.PartitionerPH}
	}
	if c.Solvers == nil {
		c.Solvers = core.Solvers()
	}
	if c.UnitsToRun == 0 {
		c.UnitsToRun = 3
	}
	if c.PartsPerCore == 0 {
		c.PartsPerCore = 2
	}
	return c
}

// Table2 runs the sweep. Every configuration is a fresh virtual cluster;
// failures (e.g. local storage exhaustion) are recorded, not fatal.
func Table2(cfg Table2Config) ([]Table2Row, error) {
	cfg = cfg.withDefaults()
	var rows []Table2Row
	for _, solver := range cfg.Solvers {
		for _, pk := range cfg.Partitioners {
			for _, b := range cfg.BlockSizes {
				row := Table2Row{Solver: solver.Name(), Partitioner: pk, BlockSize: b}
				res, exhausted, err := phantomRun(cfg.Cluster, cfg.Model, solver, cfg.N, b, core.Options{
					Partitioner:  pk,
					PartsPerCore: cfg.PartsPerCore,
					MaxUnits:     cfg.UnitsToRun,
				})
				if err != nil {
					return nil, fmt.Errorf("%s/%s/b=%d: %w", solver.Name(), pk, b, err)
				}
				row.Iterations = res.UnitsTotal
				if exhausted {
					row.Err = "local storage exhausted"
					rows = append(rows, row)
					continue
				}
				if res.UnitsRun > 0 {
					row.SingleSec = res.VirtualSeconds / float64(res.UnitsRun)
				}
				row.ProjectedSec = res.ProjectedSeconds
				rows = append(rows, row)
			}
		}
	}
	return rows, nil
}

// Table2Table renders the sweep in the paper's layout.
func Table2Table(rows []Table2Row) *Table {
	t := &Table{
		Title:   "Table 2: effect of block size on execution time (single iteration, projected total)",
		Headers: []string{"Method", "Partitioner", "b", "Iterations", "Single", "Projected"},
	}
	for _, r := range rows {
		single, proj := FormatDuration(r.SingleSec), FormatDuration(r.ProjectedSec)
		if r.Err != "" {
			single, proj = "-", r.Err
		}
		t.Add(r.Solver, string(r.Partitioner), fmt.Sprint(r.BlockSize),
			fmt.Sprint(r.Iterations), single, proj)
	}
	return t
}
