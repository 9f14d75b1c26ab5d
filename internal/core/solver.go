// Package core implements the paper's contribution: the functional APSP
// building blocks of Table 1 and the four Spark solvers assembled from
// them — Repeated Squaring (§4.2), 2D Floyd-Warshall (§4.3), Blocked
// In-Memory (§4.4) and Blocked Collect/Broadcast (§4.5) — expressed
// against the RDD engine in internal/rdd exactly the way the paper's
// pySpark code is expressed against Spark.
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
package core

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"

	"apspark/internal/cluster"
	"apspark/internal/costmodel"
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

// Options configures one solver run.
type Options struct {
	// BlockSize is the decomposition parameter b.
	BlockSize int
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

// Solver is one APSP strategy: the paper's four built-ins, or anything
// registered through Register.
type Solver interface {
	// Name returns the paper's name for the method.
	Name() string
	// Pure reports whether the implementation stays inside fault-tolerant
	// Spark functionality (paper §3: pure vs impure).
	Pure() bool
	// Units returns the number of iteration units a full run needs.
	Units(dec graph.Decomposition) int
	// Solve runs the method on the driver rc. Implementations must bind
	// ctx to rc and check it at every iteration-unit boundary, returning a
	// partial Result (UnitsRun and projection filled) alongside ctx.Err()
	// when cancelled; they should also call rc.ReportUnit after each unit
	// so progress streams to the caller.
	Solve(ctx context.Context, rc *rdd.Context, in Input, opts Options) (*Result, error)
}

// Factory constructs a fresh Solver instance.
type Factory func() Solver

var (
	regMu    sync.RWMutex
	registry = map[string]Factory{}
	regNames []string // registration order
)

// Register adds a solver factory under a lookup name (the key callers and
// the -solver flag use). It fails on an empty name, a nil factory, or a
// duplicate registration. The four paper solvers self-register as
// "rs", "fw2d", "im" and "cb"; external solvers plug in alongside them.
func Register(name string, f Factory) error {
	if name == "" {
		return fmt.Errorf("core: Register with empty solver name")
	}
	if f == nil {
		return fmt.Errorf("core: Register(%q) with nil factory", name)
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		return fmt.Errorf("core: solver %q already registered", name)
	}
	registry[name] = f
	regNames = append(regNames, name)
	return nil
}

// MustRegister is Register, panicking on error — for init-time wiring.
func MustRegister(name string, f Factory) {
	if err := Register(name, f); err != nil {
		panic(err)
	}
}

// RegisteredSolvers returns the registered lookup names in registration
// order (the four paper solvers first).
func RegisteredSolvers() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	return append([]string(nil), regNames...)
}

func init() {
	MustRegister("rs", func() Solver { return RepeatedSquaring{} })
	MustRegister("fw2d", func() Solver { return FW2D{} })
	MustRegister("im", func() Solver { return BlockedInMemory{} })
	MustRegister("cb", func() Solver { return BlockedCollectBroadcast{} })
}

// Solvers returns the paper's four methods, in the paper's order.
func Solvers() []Solver {
	return []Solver{RepeatedSquaring{}, FW2D{}, BlockedInMemory{}, BlockedCollectBroadcast{}}
}

// SolverByName finds a registered solver by its lookup name, falling back
// to the full paper name (Solver.Name) for convenience.
func SolverByName(name string) (Solver, error) {
	regMu.RLock()
	defer regMu.RUnlock()
	if f, ok := registry[name]; ok {
		return f(), nil
	}
	for _, key := range regNames {
		if s := registry[key](); s.Name() == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("core: unknown solver %q (registered: %s)", name, strings.Join(regNames, "|"))
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

// NewContext builds an RDD driver context with the solver value sizer.
func NewContext(clu *cluster.Cluster, model costmodel.KernelModel) *rdd.Context {
	ctx := rdd.NewContext(clu, model)
	ctx.SizeOf = SizeOf
	return ctx
}

// SizeOf extends the engine's default sizer with the core value types.
func SizeOf(v any) int64 {
	switch x := v.(type) {
	case *TaggedBlock:
		if x == nil || x.B == nil {
			return 0
		}
		return x.B.SizeBytes()
	case []*TaggedBlock:
		var t int64
		for _, e := range x {
			t += SizeOf(e)
		}
		return t
	case map[int]*matrix.Block:
		var t int64
		for _, e := range x {
			t += e.SizeBytes()
		}
		return t
	default:
		return rdd.DefaultSize(v)
	}
}

// parallelizeInput loads the input blocks into the engine.
func parallelizeInput(ctx *rdd.Context, in Input, part rdd.Partitioner) *rdd.RDD {
	pairs := make([]rdd.Pair, 0, len(in.Blocks))
	for _, k := range in.Dec.UpperKeys() {
		pairs = append(pairs, rdd.Pair{Key: k, Value: &TaggedBlock{Tag: TagBase, B: in.Blocks[k]}})
	}
	return ctx.Parallelize("A", pairs, part)
}

// collectBlocks gathers a solver's final RDD back into a block map,
// validating that exactly the upper triangle is present.
func collectBlocks(a *rdd.RDD, dec graph.Decomposition) (map[graph.BlockKey]*matrix.Block, error) {
	pairs, err := a.Collect()
	if err != nil {
		return nil, err
	}
	out := make(map[graph.BlockKey]*matrix.Block, len(pairs))
	for _, p := range pairs {
		k, ok := p.Key.(graph.BlockKey)
		if !ok {
			return nil, fmt.Errorf("core: unexpected key type %T", p.Key)
		}
		tb, ok := p.Value.(*TaggedBlock)
		if !ok {
			return nil, fmt.Errorf("core: unexpected value type %T", p.Value)
		}
		if _, dup := out[k]; dup {
			return nil, fmt.Errorf("core: duplicate block %v in result", k)
		}
		out[k] = tb.B
	}
	if len(out) != dec.NumUpperBlocks() {
		return nil, fmt.Errorf("core: result has %d blocks, want %d", len(out), dec.NumUpperBlocks())
	}
	return out, nil
}

// finishResult fills the common Result fields, assembling the distance
// matrix for complete real-mode runs.
func finishResult(ctx *rdd.Context, res *Result, in Input, a *rdd.RDD) error {
	res.Metrics = ctx.Cluster.Metrics()
	res.VirtualSeconds = ctx.Cluster.Now()
	if res.UnitsRun >= res.UnitsTotal {
		res.ProjectedSeconds = res.VirtualSeconds
		blocks, err := collectBlocks(a, in.Dec)
		if err != nil {
			return err
		}
		res.Blocks = blocks
		if !in.Phantom() {
			dist, err := graph.Assemble(blocks, in.Dec)
			if err != nil {
				return err
			}
			res.Dist = dist
		}
		// Refresh accounting: collectBlocks ran one more stage.
		res.Metrics = ctx.Cluster.Metrics()
		res.VirtualSeconds = ctx.Cluster.Now()
		res.ProjectedSeconds = res.VirtualSeconds
		return nil
	}
	if res.UnitsRun > 0 {
		res.ProjectedSeconds = res.VirtualSeconds / float64(res.UnitsRun) * float64(res.UnitsTotal)
	}
	return nil
}

// log2Ceil returns ceil(log2(n)) with a floor of 1.
func log2Ceil(n int) int {
	if n <= 2 {
		return 1
	}
	return int(math.Ceil(math.Log2(float64(n))))
}
