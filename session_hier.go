package apspark

import (
	"context"
	"fmt"

	"apspark/internal/hierarchy"
	"apspark/internal/obs"
)

// Oracle is a compute-on-demand distance oracle built by
// Session.BuildHierarchy: instead of materializing (or storing) the n x n
// matrix, it keeps a graph partition plus a boundary-to-boundary shortcut
// overlay and answers Dist/Row/Batch queries exactly by stitching
// partition-local Dijkstra rows through the overlay. It implements the
// serving Source contract, so apsp-serve can put it directly behind
// /dist, /row and /batch.
type Oracle = hierarchy.Oracle

// HierarchyStats summarizes a hierarchy build: partition shape, overlay
// size and build time.
type HierarchyStats = hierarchy.BuildStats

// OraclePair is one (from, to) query of an Oracle.Batch call.
type OraclePair = hierarchy.Pair

// BuildHierarchy partitions g, solves boundary-to-boundary shortcuts per
// partition in parallel, and returns the distance oracle over the
// resulting overlay. Unlike Solve, nothing n x n is ever materialized:
// build cost scales with partitions and boundary vertices, and queries
// are answered on demand (see Oracle). The oracle is exact — equal to
// the flat solvers bit for bit on integer weights.
//
// WithPartSize / WithPartSeed shape the partition, WithProgress streams
// one "unit" event per completed partition plus a final "done" event, and
// cancelling ctx stops the build between partition solves (no partial
// state survives; re-build from scratch). WithVerify cross-checks every
// oracle row against sequential Floyd-Warshall — O(n²) memory, so verify
// only small graphs. WithSolver is ignored; every other job option is
// refused.
func (s *Session) BuildHierarchy(ctx context.Context, g *Graph, opts ...SolveOption) (*Oracle, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	j, err := s.accept(hierarchyEntry, g, opts)
	if err != nil {
		return nil, err
	}
	p := &progress{fn: j.progress}
	defer j.span().End()
	o, err := hierarchy.Build(ctx, g, hierarchy.BuildOptions{PartSize: j.partSize, Seed: j.partSeed, Progress: p.unit})
	if err != nil {
		return nil, err
	}
	o.RegisterMetrics(obs.Default)
	parts := o.Stats().Parts
	p.done(parts, parts)
	if j.verify {
		var row []float64
		err := verifyRows(g, "hierarchy oracle", func(u int) ([]float64, error) {
			var err error
			row, err = o.RowInto(ctx, u, row)
			return row, err
		})
		if err != nil {
			return nil, err
		}
	}
	return o, nil
}

// OpenHierarchy reopens a hierarchy saved with Oracle.Save over the same
// graph it was built from, skipping every boundary solve — the piece
// that lets a serving restart come back without re-building. cacheBytes
// budgets the oracle's partition-local row cache (<= 0 picks the 64 MiB
// default). Loading over a different graph fails checksum or structural
// validation.
func OpenHierarchy(path string, g *Graph, cacheBytes int64) (*Oracle, error) {
	if g == nil {
		return nil, fmt.Errorf("apspark: OpenHierarchy with nil graph")
	}
	o, err := hierarchy.Load(path, g, cacheBytes)
	if err != nil {
		return nil, err
	}
	o.RegisterMetrics(obs.Default)
	return o, nil
}
