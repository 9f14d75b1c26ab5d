package serve

import (
	"context"
	"fmt"

	"apspark/internal/cache"
	"apspark/internal/graph"
	"apspark/internal/sparse"
)

// rowsSource serves a graph with no store and no matrix: it solves the
// rows asked for on demand and keeps them in a byte-budgeted row cache.
// A Dist whose row is not cached runs a solve that stops at its target
// rather than solving and caching the whole row.
type rowsSource struct {
	sp    *sparse.Engine
	n     int
	cache *cache.Sharded[int, []float64]
}

// NewRowsSource returns a Source that answers from g itself: distances
// are solved on demand by the sparse engine, bit for bit what a store
// solved from g would hold. cacheBytes budgets its row cache (<= 0
// caches nothing). An Engine built over it with g shares its sparse
// engine for the corrupt-read recompute a rows source never needs.
func NewRowsSource(g *graph.Graph, cacheBytes int64) (Source, error) {
	if g == nil {
		return nil, fmt.Errorf("serve: a rows source needs a graph")
	}
	rowBytes := func(row []float64) int64 { return 8 * int64(len(row)) }
	return &rowsSource{sp: sparse.New(g), n: g.N, cache: cache.New[int](cacheBytes, 8*int64(g.N), rowBytes)}, nil
}

func (s *rowsSource) N() int { return s.n }

func (s *rowsSource) SourceKind() string { return "rows" }

func (s *rowsSource) checkVertex(i int) error {
	if i < 0 || i >= s.n {
		return fmt.Errorf("serve: vertex %d outside [0,%d)", i, s.n)
	}
	return nil
}

// Dist reads d(i, j) from i's cached row when there is one, and
// otherwise solves from i until j settles.
func (s *rowsSource) Dist(ctx context.Context, i, j int) (float64, error) {
	if i < 0 || i >= s.n || j < 0 || j >= s.n {
		return 0, fmt.Errorf("serve: vertex pair (%d,%d) outside [0,%d)", i, j, s.n)
	}
	if row, ok := s.cache.Peek(i); ok {
		return row[j], nil
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return s.sp.SolveDist(i, j)
}

// RowView returns row i from the cache, solving and caching it on a miss;
// concurrent misses of one row share one solve. The row is shared and
// read-only.
func (s *rowsSource) RowView(ctx context.Context, i int) ([]float64, error) {
	if err := s.checkVertex(i); err != nil {
		return nil, err
	}
	return s.cache.Get(ctx, i, func() ([]float64, error) {
		row := make([]float64, s.n)
		if err := s.sp.SolveRowInto(i, row); err != nil {
			return nil, err
		}
		return row, nil
	})
}

// RowInto copies row i into dst, reusing its backing array when large
// enough: from the cache, or with caching off solved straight into dst.
func (s *rowsSource) RowInto(ctx context.Context, i int, dst []float64) ([]float64, error) {
	if err := s.checkVertex(i); err != nil {
		return nil, err
	}
	if cap(dst) >= s.n {
		dst = dst[:s.n]
	} else {
		dst = make([]float64, s.n)
	}
	if s.cache.Budget() <= 0 {
		if err := s.sp.SolveRowInto(i, dst); err != nil {
			return nil, err
		}
		return dst, nil
	}
	row, err := s.RowView(ctx, i)
	if err != nil {
		return nil, err
	}
	copy(dst, row)
	return dst, nil
}
