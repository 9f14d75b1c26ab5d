package bench

import (
	"fmt"

	"apspark/internal/cluster"
	"apspark/internal/core"
	"apspark/internal/costmodel"
	"apspark/internal/mpi"
	"apspark/internal/mpibench"
)

// Table3Row is one cell of paper Table 3 / one point of Figure 5: a weak
// scaling measurement (n/p = 256) for one method at one core count.
type Table3Row struct {
	Method    string
	P         int
	N         int
	BlockSize int
	Seconds   float64
	// GopsPerCore is n^3 / (T * p) / 1e9 — the paper's §5.4 measure.
	GopsPerCore float64
	Failed      bool
	FailReason  string
}

// Table3Config configures the study; zero values mean the paper's setup.
type Table3Config struct {
	Cluster cluster.Config // template; scaled per p
	Model   costmodel.KernelModel
	// Ps defaults to {64, 128, 256, 512, 1024}; VerticesPerCore to 256.
	Ps              []int
	VerticesPerCore int
	// BlockSizeIM/CB map p to the paper's tuned block size; missing
	// entries fall back to n/64.
	BlockSizeIM map[int]int
	BlockSizeCB map[int]int
	// MPIPs defaults to {64, 256, 1024} (the baselines need square grids).
	MPIPs []int
	// MaxUnits truncates the Spark solvers and projects (0 = full runs).
	MaxUnits int
}

func (c Table3Config) withDefaults() Table3Config {
	if c.Cluster.Nodes == 0 {
		c.Cluster = cluster.Paper()
	}
	if c.Model.FWRateIn == 0 {
		c.Model = costmodel.PaperKernels()
	}
	if c.Ps == nil {
		c.Ps = []int{64, 128, 256, 512, 1024}
	}
	if c.VerticesPerCore == 0 {
		c.VerticesPerCore = 256
	}
	if c.BlockSizeIM == nil {
		c.BlockSizeIM = map[int]int{64: 1024, 128: 1024, 256: 1536, 512: 2048, 1024: 2048}
	}
	if c.BlockSizeCB == nil {
		c.BlockSizeCB = map[int]int{64: 1024, 128: 1280, 256: 1536, 512: 2048, 1024: 2560}
	}
	if c.MPIPs == nil {
		c.MPIPs = []int{64, 256, 1024}
	}
	return c
}

// SequentialGops is the T1 reference point of §5.4: 0.022 s for n = 256
// on one core, i.e. 0.762 Gops.
func SequentialGops(model costmodel.KernelModel, n int) float64 {
	t1 := model.FloydWarshall(n)
	return float64(n) * float64(n) * float64(n) / t1 / 1e9
}

func gopsPerCore(n, p int, sec float64) float64 {
	if sec <= 0 {
		return 0
	}
	fn := float64(n)
	return fn * fn * fn / sec / float64(p) / 1e9
}

// Table3 runs the weak-scaling study for Blocked-IM, Blocked-CB,
// FW-2D-GbE and DC-GbE.
func Table3(cfg Table3Config) ([]Table3Row, error) {
	cfg = cfg.withDefaults()
	var rows []Table3Row

	scaledCluster := func(p int) (cluster.Config, error) {
		cc := cfg.Cluster
		if cc.CoresPerNode == 0 {
			return cc, fmt.Errorf("bench: cluster config missing cores per node")
		}
		nodes := p / cc.CoresPerNode
		if nodes < 1 {
			nodes = 1
		}
		frac := float64(nodes) / float64(cc.Nodes)
		cc.Nodes = nodes
		cc.SharedReadBW *= frac
		cc.SharedWriteBW *= frac
		return cc, nil
	}

	for _, solver := range []core.Solver{core.BlockedInMemory{}, core.BlockedCollectBroadcast{}} {
		bmap := cfg.BlockSizeIM
		if solver.Name() == "Blocked-CB" {
			bmap = cfg.BlockSizeCB
		}
		for _, p := range cfg.Ps {
			n := p * cfg.VerticesPerCore
			b, ok := bmap[p]
			if !ok {
				b = n / 64
			}
			row := Table3Row{Method: solver.Name(), P: p, N: n, BlockSize: b}
			cc, err := scaledCluster(p)
			if err != nil {
				return nil, err
			}
			res, exhausted, err := phantomRun(cc, cfg.Model, solver, n, b, core.Options{MaxUnits: cfg.MaxUnits})
			if err != nil {
				return nil, fmt.Errorf("%s/p=%d: %w", solver.Name(), p, err)
			}
			if exhausted {
				row.Failed = true
				row.FailReason = "local storage exhausted"
				rows = append(rows, row)
				continue
			}
			row.Seconds = res.ProjectedSeconds
			row.GopsPerCore = gopsPerCore(n, p, row.Seconds)
			rows = append(rows, row)
		}
	}

	rates := mpibench.PaperRates()
	gbe := mpi.GbE()
	for _, p := range cfg.MPIPs {
		n := p * cfg.VerticesPerCore
		fw, err := mpibench.FW2D(n, p, nil, gbe, rates)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table3Row{
			Method: "FW-2D-GbE", P: p, N: n,
			Seconds: fw.Seconds, GopsPerCore: gopsPerCore(n, p, fw.Seconds),
		})
		dc, err := mpibench.DC(n, p, nil, gbe, rates)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table3Row{
			Method: "DC-GbE", P: p, N: n,
			Seconds: dc.Seconds, GopsPerCore: gopsPerCore(n, p, dc.Seconds),
		})
	}
	return rows, nil
}

// Table3Table renders the study in the paper's layout (methods x p).
func Table3Table(rows []Table3Row, model costmodel.KernelModel, verticesPerCore int) *Table {
	t := &Table{
		Title:   "Table 3 / Figure 5: weak scaling (n/p = 256), time and Gops/core",
		Headers: []string{"Method", "p", "n", "b", "Time", "Gops/core"},
	}
	for _, r := range rows {
		tv, gv := FormatDuration(r.Seconds), fmt.Sprintf("%.3f", r.GopsPerCore)
		if r.Failed {
			tv, gv = "-", "("+r.FailReason+")"
		}
		bval := "-"
		if r.BlockSize > 0 {
			bval = fmt.Sprint(r.BlockSize)
		}
		t.Add(r.Method, fmt.Sprint(r.P), fmt.Sprint(r.N), bval, tv, gv)
	}
	if verticesPerCore == 0 {
		verticesPerCore = 256
	}
	t.Add("Sequential (T1)", "1", fmt.Sprint(verticesPerCore), "-",
		FormatDuration(model.FloydWarshall(verticesPerCore)),
		fmt.Sprintf("%.3f", SequentialGops(model, verticesPerCore)))
	return t
}
