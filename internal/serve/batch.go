package serve

import (
	"context"
	"fmt"
)

// Batch queries: many lookups per call, one boundary crossing. The HTTP
// /batch endpoint maps its dist and knn sections straight onto these (its
// rows it serves as the single-row endpoint does), but they are equally
// the Go API for workloads like Isomap neighbourhood graphs or
// shortest-path kernels that consume thousands of distances/KNNs per
// analysis step.
//
// Batches are all-or-nothing for malformed input (an out-of-range vertex
// fails the whole call, with the offending index in the error), because a
// partially-validated batch is harder to consume than a rejected one.
// Per-pair "no path exists" is NOT an error at this level: Dist reports
// it as matrix.Inf, exactly like the single-query API.

// PairQuery names one (from, to) vertex pair of a batch.
type PairQuery struct {
	From int `json:"from"`
	To   int `json:"to"`
}

// KNNQuery names one k-nearest-neighbours lookup of a batch. K <= 0
// selects the server default (DefaultK).
type KNNQuery struct {
	From int `json:"from"`
	K    int `json:"k"`
}

// DefaultK is the k used by KNN queries that do not specify one.
const DefaultK = 10

// DistBatch answers len(pairs) point-to-point distance queries in one
// call. Unreachable pairs come back as matrix.Inf. Queries sharing a
// source vertex are served from the same cached row when the source
// caches rows.
func (e *Engine) DistBatch(ctx context.Context, pairs []PairQuery) ([]float64, error) {
	out := make([]float64, len(pairs))
	for i, p := range pairs {
		d, err := e.Dist(ctx, p.From, p.To)
		if err != nil {
			return nil, fmt.Errorf("dist[%d]: %w", i, err)
		}
		out[i] = d
	}
	return out, nil
}

// KNNBatch answers len(queries) k-nearest-neighbour queries in one call.
// A query with K <= 0 uses DefaultK.
func (e *Engine) KNNBatch(ctx context.Context, queries []KNNQuery) ([][]Target, error) {
	out := make([][]Target, len(queries))
	for i, q := range queries {
		k := q.K
		if k <= 0 {
			k = DefaultK
		}
		ts, err := e.KNN(ctx, q.From, k)
		if err != nil {
			return nil, fmt.Errorf("knn[%d]: %w", i, err)
		}
		out[i] = ts
	}
	return out, nil
}
