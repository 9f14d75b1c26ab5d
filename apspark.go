// Package apspark is a from-scratch Go reproduction of "Solving All-Pairs
// Shortest-Paths Problem in Large Graphs Using Apache Spark" (Schoeneman &
// Zola, ICPP 2019). It provides:
//
//   - the paper's four distributed APSP solvers (Repeated Squaring, 2D
//     Floyd-Warshall, Blocked In-Memory, Blocked Collect/Broadcast) built
//     from the Table-1 functional building blocks;
//   - the Spark substrate they run on — an RDD engine with lineage,
//     shuffles, custom partitioners (multi-diagonal and pySpark's
//     portable_hash) and collect/broadcast — plus a virtual 32-node,
//     1,024-core GbE cluster with calibrated cost accounting;
//   - sequential references (Floyd-Warshall, blocked FW, Johnson,
//     repeated squaring) and two MPI baselines (FW-2D-GbE, DC-GbE) on a
//     message-passing simulator;
//   - a benchmark harness regenerating every table and figure of the
//     paper's evaluation.
//
// # Quick start
//
// The context-first Session API is the entry point: a Session owns the
// virtual cluster configuration and solve defaults, jobs run against it
// with cancellation and progress streaming.
//
//	s, _ := apspark.New()                     // the paper's 1,024-core cluster
//	g, _ := apspark.NewErdosRenyiGraph(512, apspark.PaperEdgeProb(512), 42)
//	res, _ := s.Solve(ctx, g, apspark.WithBlockSize(64))
//	fmt.Println(res.Dist.At(0, 100))          // shortest-path length 0 -> 100
//	fmt.Println(res.VirtualSeconds)           // simulated cluster time
//
// Paper-scale projections run on phantom (shape-only) data:
//
//	res, _ := s.Project(ctx, 262144, apspark.WithBlockSize(2560))
//	fmt.Println(res.ProjectedSeconds / 3600)  // hours on 1,024 cores
//
// Long jobs stream progress and honor deadlines: WithProgress delivers a
// StageEvent per stage and per iteration unit, and cancelling ctx stops
// the solve at the next stage boundary with the partial Result intact.
package apspark

import (
	"fmt"

	"apspark/internal/cluster"
	"apspark/internal/core"
	"apspark/internal/graph"
	"apspark/internal/matrix"
	"apspark/internal/seq"
	"apspark/internal/store"
)

// SolverKind selects one of the paper's four APSP strategies.
type SolverKind string

const (
	// SolverRS is Repeated Squaring (paper §4.2, impure).
	SolverRS SolverKind = "rs"
	// SolverFW2D is 2D Floyd-Warshall (paper §4.3, pure).
	SolverFW2D SolverKind = "fw2d"
	// SolverIM is Blocked In-Memory (paper §4.4, pure).
	SolverIM SolverKind = "im"
	// SolverCB is Blocked Collect/Broadcast (paper §4.5, impure, fastest).
	SolverCB SolverKind = "cb"
	// SolverDijkstra is the host-native sparse fast path: Dijkstra from
	// every source over the CSR graph, no virtual cluster involved, and no
	// phantom mode. See Session.SolveToStore.
	SolverDijkstra SolverKind = "dij"
)

// Partitioner re-exports the paper's two RDD partitioners.
const (
	PartitionerMD = core.PartitionerMD
	PartitionerPH = core.PartitionerPH
)

// Graph is a weighted undirected input graph.
type Graph = graph.Graph

// Edge is one weighted undirected edge.
type Edge = graph.Edge

// Matrix is a dense distance/adjacency matrix.
type Matrix = matrix.Block

// Inf is the distance value meaning "no path".
var Inf = matrix.Inf

// NewGraph builds a graph from an edge list.
func NewGraph(n int, edges []Edge) (*Graph, error) { return graph.FromEdges(n, edges) }

// NewErdosRenyiGraph samples G(n, p) with weights uniform in [1, 10) —
// the paper's §5.1 test-data family.
func NewErdosRenyiGraph(n int, p float64, seed int64) (*Graph, error) {
	return graph.ErdosRenyi(n, p, 10, seed)
}

// PaperEdgeProb is the paper's edge probability (1+0.1)·ln(n)/n.
func PaperEdgeProb(n int) float64 { return graph.ErdosRenyiPaperProb(n) }

// Result is a solve outcome. Cancelled or failed runs surface as a
// partial Result (Dist nil, UnitsRun < UnitsTotal) returned alongside
// the error by Session.Solve / Session.Project.
type Result struct {
	// Dist is the n x n distance matrix (nil for phantom or truncated
	// runs).
	Dist *Matrix
	// VirtualSeconds is the simulated cluster time; ProjectedSeconds
	// extrapolates truncated runs to completion.
	VirtualSeconds   float64
	ProjectedSeconds float64
	// UnitsRun / UnitsTotal report iteration progress.
	UnitsRun, UnitsTotal int
	// UnitsSkipped counts source rows a resumed streamed solve restored
	// from a checkpoint instead of re-solving (WithResume); zero
	// everywhere else. UnitsRun + UnitsSkipped == UnitsTotal for a
	// completed resumed solve.
	UnitsSkipped int
	// Metrics exposes the cluster accounting (shuffle bytes, stage
	// counts, storage traffic, ...).
	Metrics cluster.Metrics
	// Solver is the paper name of the strategy used.
	Solver string
	// BlockSize is the effective decomposition parameter b of the run
	// (after defaulting), the value to reuse for WriteStore tiles.
	BlockSize int
	// Timeline is the per-stage trace (only with WithTrace;
	// the WithProgress stream is the O(1)-memory alternative).
	Timeline []cluster.StageRecord
}

func wrap(res *core.Result) *Result {
	return &Result{
		Dist:             res.Dist,
		VirtualSeconds:   res.VirtualSeconds,
		ProjectedSeconds: res.ProjectedSeconds,
		UnitsRun:         res.UnitsRun,
		UnitsTotal:       res.UnitsTotal,
		Metrics:          res.Metrics,
		Solver:           res.Solver,
		BlockSize:        res.BlockSize,
	}
}

// Store is a read handle on a persisted tiled distance store: the solved
// matrix cut into b x b tiles on disk, queried back through a sharded,
// byte-budgeted cache hierarchy (assembled rows above decoded tiles). See
// Result.WriteStore, OpenStore and OpenStoreWithOptions. Besides Dist and
// Row it exposes the throughput primitives RowView (shared row, no copy)
// and RowInto (allocation-free reads into a reused buffer).
type Store = store.Store

// StoreOptions configures a store read handle opened with
// OpenStoreWithOptions: the tile- and row-cache byte budgets and the
// read-retry policy.
type StoreOptions = store.Options

// WriteStore persists the solve's distance matrix as a tiled store file
// at path. blockSize is the tile edge (<= 0 picks 256, capped to n);
// queries later touch only the tiles they need, so a store can be served
// from far less memory than the dense matrix. Phantom and truncated runs
// carry no distances and return an error.
func (r *Result) WriteStore(path string, blockSize int) error {
	return r.WriteStoreWithCodec(path, blockSize, "")
}

// WriteStoreWithCodec is WriteStore with a tile codec name ("", "raw",
// "ivarint" or "f32" — see WithCodec). Tiles the codec declines or fails
// to shrink are stored raw, so any codec is safe on any matrix.
func (r *Result) WriteStoreWithCodec(path string, blockSize int, codec string) error {
	if r.Dist == nil {
		return fmt.Errorf("apspark: result has no distance matrix (phantom or truncated run)")
	}
	c, err := store.CodecByName(codec)
	if err != nil {
		return err
	}
	return store.WriteWithCodec(path, r.Dist, graph.DefaultBlockSize(blockSize, r.Dist.R, 256), c)
}

// OpenStore opens a tiled distance store for querying with a tile cache
// of cacheBytes and no row cache; it may be far smaller than the full
// matrix. Serving workloads should prefer OpenStoreWithOptions with a
// row-cache budget.
func OpenStore(path string, cacheBytes int64) (*Store, error) {
	return OpenStoreWithOptions(path, StoreOptions{TileCacheBytes: cacheBytes})
}

// OpenStoreWithOptions opens a tiled distance store for querying with
// explicit cache budgets (see StoreOptions).
func OpenStoreWithOptions(path string, opts StoreOptions) (*Store, error) {
	return store.OpenWithOptions(path, opts)
}

// SequentialAPSP computes the distance matrix with the sequential
// Floyd-Warshall reference — the paper's T1 baseline.
func SequentialAPSP(g *Graph) (*Matrix, error) { return seq.FloydWarshall(g) }

// Johnson computes the distance matrix with Johnson's algorithm.
func Johnson(g *Graph) (*Matrix, error) { return seq.Johnson(g) }
