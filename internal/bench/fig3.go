package bench

import (
	"fmt"

	"apspark/internal/cluster"
	"apspark/internal/core"
	"apspark/internal/costmodel"
	"apspark/internal/graph"
	"apspark/internal/rdd"
)

// Fig3Point is one configuration of Figure 3 (top/middle): total solve
// time of a blocked solver at one block size, partitioner and B.
type Fig3Point struct {
	Solver       string
	Partitioner  core.PartitionerKind
	PartsPerCore int
	BlockSize    int
	Seconds      float64
	Failed       bool
	FailReason   string
	FailedAtIter int
}

// Fig3Config configures the sweep; zero values mean the paper's setup
// (n = 131072 on p = 1024).
type Fig3Config struct {
	N          int
	Cluster    cluster.Config
	Model      costmodel.KernelModel
	BlockSizes []int
	// MaxUnits truncates each run and projects (0 = full runs, as in the
	// paper). Full paper-scale runs take minutes of host time.
	MaxUnits int
}

func (c Fig3Config) withDefaults() Fig3Config {
	if c.N == 0 {
		c.N = 131072
	}
	if c.Cluster.Nodes == 0 {
		c.Cluster = cluster.Paper()
	}
	if c.Model.FWRateIn == 0 {
		c.Model = costmodel.PaperKernels()
	}
	if c.BlockSizes == nil {
		c.BlockSizes = []int{512, 768, 1024, 1280, 1536, 1792, 2048}
	}
	return c
}

// Figure3 sweeps Blocked-IM and Blocked-CB over block sizes, partitioners
// and B in {1, 2}, reproducing the top and middle panels (including the
// IM local-storage failures at small b).
func Figure3(cfg Fig3Config) ([]Fig3Point, error) {
	cfg = cfg.withDefaults()
	solvers := []core.Solver{core.BlockedInMemory{}, core.BlockedCollectBroadcast{}}
	var out []Fig3Point
	for _, solver := range solvers {
		for _, pk := range []core.PartitionerKind{core.PartitionerPH, core.PartitionerMD} {
			for _, bpc := range []int{1, 2} {
				for _, b := range cfg.BlockSizes {
					pt := Fig3Point{
						Solver:       solver.Name(),
						Partitioner:  pk,
						PartsPerCore: bpc,
						BlockSize:    b,
					}
					res, exhausted, err := phantomRun(cfg.Cluster, cfg.Model, solver, cfg.N, b, core.Options{
						Partitioner:  pk,
						PartsPerCore: bpc,
						MaxUnits:     cfg.MaxUnits,
					})
					if err != nil {
						return nil, fmt.Errorf("%s/%s/B=%d/b=%d: %w", solver.Name(), pk, bpc, b, err)
					}
					if exhausted {
						pt.Failed = true
						pt.FailReason = "local storage exhausted"
						pt.FailedAtIter = res.UnitsRun
						out = append(out, pt)
						continue
					}
					pt.Seconds = res.ProjectedSeconds
					out = append(out, pt)
				}
			}
		}
	}
	return out, nil
}

// Figure3Table renders the sweep.
func Figure3Table(points []Fig3Point) *Table {
	t := &Table{
		Title:   "Figure 3 (top/middle): IM and CB total time vs block size, partitioner, B",
		Headers: []string{"Method", "Partitioner", "B", "b", "Time"},
	}
	for _, p := range points {
		val := FormatDuration(p.Seconds)
		if p.Failed {
			val = fmt.Sprintf("FAILED (%s, iter %d)", p.FailReason, p.FailedAtIter)
		}
		t.Add(p.Solver, string(p.Partitioner), fmt.Sprint(p.PartsPerCore), fmt.Sprint(p.BlockSize), val)
	}
	return t
}

// Fig3Census is the bottom panel of Figure 3: the distribution of RDD
// partition sizes (blocks per partition) under each partitioner.
type Fig3Census struct {
	Partitioner core.PartitionerKind
	BlockSize   int
	Sizes       []int
	Min, Max    int
	Mean        float64
}

// Figure3Partitions computes the exact partition census for the paper's
// configuration (no simulation involved: this is a property of the
// partitioners alone).
func Figure3Partitions(n, p, partsPerCore int, blockSizes []int) ([]Fig3Census, error) {
	if n == 0 {
		n = 131072
	}
	if p == 0 {
		p = 1024
	}
	if partsPerCore == 0 {
		partsPerCore = 2
	}
	if blockSizes == nil {
		blockSizes = []int{512, 768, 1024, 1280, 1536, 1792, 2048}
	}
	parts := p * partsPerCore
	var out []Fig3Census
	for _, b := range blockSizes {
		dec, err := graph.NewDecomposition(n, b)
		if err != nil {
			return nil, err
		}
		for _, pk := range []core.PartitionerKind{core.PartitionerMD, core.PartitionerPH} {
			var part rdd.Partitioner
			if pk == core.PartitionerMD {
				part = rdd.NewMultiDiagonal(parts, dec.Q)
			} else {
				part = rdd.NewPortableHash(parts)
			}
			sizes := make([]int, parts)
			for _, k := range dec.UpperKeys() {
				sizes[part.Partition(k)]++
			}
			c := Fig3Census{Partitioner: pk, BlockSize: b, Sizes: sizes}
			c.Min, c.Max, c.Mean = histogram(sizes)
			out = append(out, c)
		}
	}
	return out, nil
}

// Figure3PartitionsTable renders the census summary.
func Figure3PartitionsTable(census []Fig3Census) *Table {
	t := &Table{
		Title:   "Figure 3 (bottom): RDD partition sizes (blocks per partition) by partitioner",
		Headers: []string{"b", "Partitioner", "min", "max", "mean"},
	}
	for _, c := range census {
		t.Add(fmt.Sprint(c.BlockSize), string(c.Partitioner),
			fmt.Sprint(c.Min), fmt.Sprint(c.Max), fmt.Sprintf("%.2f", c.Mean))
	}
	return t
}
