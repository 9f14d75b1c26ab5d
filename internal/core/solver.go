// Package core implements the paper's contribution: the functional APSP
// building blocks of Table 1 and the four Spark solvers assembled from
// them — Repeated Squaring (§4.2), 2D Floyd-Warshall (§4.3), Blocked
// In-Memory (§4.4) and Blocked Collect/Broadcast (§4.5) — expressed
// against the RDD engine in internal/rdd exactly the way the paper's
// pySpark code is expressed against Spark.
//
// # A solver is a step; Run drives it
//
// What the paper prints of a solver (Algorithms 1-4) is the body of its
// loop, and that is all a Solver here is: besides its name, its purity and
// its unit count, one step — a function from the distance matrix after
// units 0..u-1 to the distance matrix after unit u (a column product of a
// squaring, a pivot, a block iteration), closed over whatever the run
// keeps between units. Everything the paper does not print is Run, once for
// all four: binding the caller's context, the partitioner, marking an
// impure run, loading the Input, MaxUnits truncation, the cancellation
// check at every unit boundary, timing and reporting each unit, the final
// collect, and the one place a Result is built — complete, truncated,
// cancelled or failed, always with the accounting of the units that ran.
// A virtual-cluster job is NewContext (a fresh cluster and driver) and
// then Run.
//
// # Who owns a block
//
// Every dense block a building block produces comes from the matrix arena
// (matrix.Get) and becomes the value of an RDD record; from then on it
// belongs to the solve, not to the task that made it. The blocked solvers
// (Blocked-CB, Blocked-IM) give such blocks back. Each iteration replaces
// the whole distance matrix: its RDD is a new generation of blocks, and the
// per-iteration Checkpoint that severs the lineage is the one point where
// the previous generation, the iteration's intermediate copies and the
// second orientations staged for it stop being reachable through the engine
// or read by any task. There — in the release hook of
// rdd.CheckpointAndRelease, see recycler — every block the severed lineage
// retained goes back to the arena (matrix.Put), once, with two exceptions:
//
//   - blocks the new generation still holds (a value that passed through an
//     iteration unchanged, and the second orientation riding on a panel
//     value, which is released one iteration later with its panel);
//   - the Input's blocks, which are the caller's: a solver reads them,
//     never writes or releases them, so one Input can be solved again.
//
// Nothing is released after the last Checkpoint, so the final generation —
// what Result.Blocks holds — is never recycled, nor is anything a cancelled
// or failed run leaves behind; those are collected like any other memory.
// The result of the rule is that a warm solve allocates about two
// generations of blocks, however many iterations it runs. Repeated
// Squaring and 2D Floyd-Warshall release nothing. Tests run the rule under
// matrix.SetPoolCheck, where a released block is poisoned with NaN.
//
// # Where a dense solve's time goes
//
// The solve_dense_cb benchmark shape (paper-density ER graph, n=2048,
// b=256, q=8, Blocked-CB on 64 virtual cores, warm session) on a 2-vCPU
// AVX2 host, mean stage wall per solve over ten warm solves:
//
//	per solve, ms                                      1 host worker  2 host workers
//	whole solve, best of ten                                     412             240
//	partitionBy.map (phase 3: 28 products/iteration)             297             173
//	minPlusPanel.persist (phase 2: 7 panels/iteration)            87              55
//	floydWarshall.persist (phase 1: one diagonal block)           21              21
//	outside every stage (input, assembly, staging)                23              18
//
// A second worker buys 1.7 times, not 2: phase 1 is one task, so its 21 ms
// are serial; phase 2's seven panels split 4/3; about 20 ms of driver work
// (input blocks, collecting and staging, assembling the result) is serial
// or memory-bound; and the two vCPUs are hyperthreads sharing one core's
// floating-point units, which caps the kernel-bound phase 3 at 1.7 times.
// The CPU profile is 76 % row kernel (at its issue limit, see
// internal/matrix), 10 % memmove (the base copy every product starts from,
// tile packing, result assembly), 3 % allInf, 2 % transposes and 1.5 %
// memclr. None of it touches the virtual clock: kernel charges are
// calibrated model values, and host parallelism is wall-clock speed only.
package core

import (
	"fmt"
	"math"
	"strings"

	"apspark/internal/cluster"
	"apspark/internal/graph"
	"apspark/internal/matrix"
	"apspark/internal/rdd"
)

// PartitionerKind selects between the paper's two RDD partitioners.
type PartitionerKind string

const (
	// PartitionerMD is the paper's multi-diagonal partitioner (§5.3).
	PartitionerMD PartitionerKind = "MD"
	// PartitionerPH is Spark's default portable-hash partitioner.
	PartitionerPH PartitionerKind = "PH"
)

// Options configures one solver run; the block size is the Input's.
type Options struct {
	// Partitioner chooses MD or PH (default MD).
	Partitioner PartitionerKind
	// PartsPerCore is the paper's over-decomposition factor B; the RDD
	// holding A uses B x p partitions (default 2, the paper's usual value).
	PartsPerCore int
	// MaxUnits truncates the run after this many iteration units
	// (solver-specific: columns for RS, pivots k for FW2D, block
	// iterations for the blocked solvers). Zero means run to completion.
	// Truncated runs report a projection, mirroring the paper's Table 2.
	MaxUnits int
}

func (o Options) withDefaults() Options {
	if o.Partitioner == "" {
		o.Partitioner = PartitionerMD
	}
	if o.PartsPerCore == 0 {
		o.PartsPerCore = 2
	}
	return o
}

// Input is a 2D block-decomposed adjacency matrix ready for a solver.
type Input struct {
	Dec    graph.Decomposition
	Blocks map[graph.BlockKey]*matrix.Block // upper triangle, I <= J
}

// NewInput decomposes a dense symmetric adjacency matrix (real mode).
func NewInput(a *matrix.Block, b int) (Input, error) {
	dec, err := graph.NewDecomposition(a.R, b)
	if err != nil {
		return Input{}, err
	}
	blocks, err := graph.Blocks(a, dec)
	if err != nil {
		return Input{}, err
	}
	return Input{Dec: dec, Blocks: blocks}, nil
}

// NewGraphInput decomposes a graph's adjacency matrix (real mode) straight
// from its CSR arrays: NewInput(g.Dense(), b) without the n x n
// intermediate.
func NewGraphInput(g *graph.Graph, b int) (Input, error) {
	dec, err := graph.NewDecomposition(g.N, b)
	if err != nil {
		return Input{}, err
	}
	blocks, err := g.Blocks(dec)
	if err != nil {
		return Input{}, err
	}
	return Input{Dec: dec, Blocks: blocks}, nil
}

// NewPhantomInput builds a shape-only input for paper-scale virtual runs.
func NewPhantomInput(n, b int) (Input, error) {
	dec, err := graph.NewDecomposition(n, b)
	if err != nil {
		return Input{}, err
	}
	return Input{Dec: dec, Blocks: graph.PhantomBlocks(dec)}, nil
}

// Phantom reports whether the input carries shape-only blocks.
func (in Input) Phantom() bool {
	for _, b := range in.Blocks {
		return b.Phantom()
	}
	return false
}

// Result is the outcome of a solver run.
type Result struct {
	Solver     string
	N          int
	BlockSize  int
	UnitsRun   int
	UnitsTotal int
	// VirtualSeconds is the simulated cluster time of the units actually
	// run; ProjectedSeconds extrapolates to a full run (they are equal
	// when UnitsRun == UnitsTotal).
	VirtualSeconds   float64
	ProjectedSeconds float64
	Metrics          cluster.Metrics
	// Blocks holds the final distance blocks for complete runs (nil for
	// truncated runs); Dist is the assembled matrix for complete real runs.
	Blocks map[graph.BlockKey]*matrix.Block
	Dist   *matrix.Block
}

// Solver is one of the paper's four APSP strategies: what the paper
// prints of it. Run drives it.
type Solver interface {
	// Name returns the paper's name for the method.
	Name() string
	// Pure reports whether the implementation stays inside fault-tolerant
	// Spark functionality (paper §3: pure vs impure).
	Pure() bool
	// Units returns the number of iteration units a full run needs.
	Units(dec graph.Decomposition) int
	// step returns the solver's iteration unit for one run over in on rc,
	// with the distance matrix partitioned by part.
	step(rc *rdd.Context, in Input, part rdd.Partitioner) step
}

// solvers is the solver table, in the paper's order; key is the name
// callers and the -solver flag use.
var solvers = []struct {
	key string
	Solver
}{
	{"rs", RepeatedSquaring{}},
	{"fw2d", FW2D{}},
	{"im", BlockedInMemory{}},
	{"cb", BlockedCollectBroadcast{}},
}

// RegisteredSolvers returns the lookup names, in the paper's order.
func RegisteredSolvers() []string {
	names := make([]string, len(solvers))
	for i, e := range solvers {
		names[i] = e.key
	}
	return names
}

// Solvers returns the paper's four methods, in the paper's order.
func Solvers() []Solver {
	out := make([]Solver, len(solvers))
	for i, e := range solvers {
		out[i] = e.Solver
	}
	return out
}

// SolverByName finds a solver by its lookup name, falling back to the
// full paper name (Solver.Name) for convenience.
func SolverByName(name string) (Solver, error) {
	for _, e := range solvers {
		if e.key == name || e.Name() == name {
			return e.Solver, nil
		}
	}
	return nil, fmt.Errorf("core: unknown solver %q (registered: %s)", name, strings.Join(RegisteredSolvers(), "|"))
}

// NewPartitioner builds the requested partitioner for a q x q grid with
// B x p partitions.
func NewPartitioner(kind PartitionerKind, clu *cluster.Cluster, partsPerCore, q int) (rdd.Partitioner, error) {
	parts := partsPerCore * clu.Cores()
	switch kind {
	case PartitionerMD:
		return rdd.NewMultiDiagonal(parts, q), nil
	case PartitionerPH:
		return rdd.NewPortableHash(parts), nil
	default:
		return nil, fmt.Errorf("core: unknown partitioner %q", kind)
	}
}

// log2Ceil returns ceil(log2(n)) with a floor of 1.
func log2Ceil(n int) int {
	if n <= 2 {
		return 1
	}
	return int(math.Ceil(math.Log2(float64(n))))
}
