package hierarchy

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"apspark/internal/cache"
	"apspark/internal/graph"
	"apspark/internal/matrix"
	"apspark/internal/obs"
	"apspark/internal/sparse"
)

// DefaultCacheBytes is the local-row cache budget when the caller does
// not pick one.
const DefaultCacheBytes = 64 << 20

// Oracle answers exact distance queries from the hierarchy: a
// partition-local row at each endpoint plus a multi-seed search over
// the boundary overlay in between. It is exact by construction (the
// overlay preserves all boundary-to-boundary distances) and safe for
// concurrent use; partition-local rows are cached in a byte-budgeted
// sharded LRU so query locality pays off, and concurrent queries from
// one cold vertex share one local solve. It implements the serving
// layer's Source contract, which is what lets apsp-serve run
// compute-on-demand with no precomputed store at all.
type Oracle struct {
	g   *graph.Graph
	eng *sparse.Engine // main-graph engine (shared with the build)
	pt  *Partition

	v2b  []int32 // vertex -> overlay id, -1 for interior vertices
	bOff []int32 // partition -> first overlay id (len Parts+1)

	ovlG *graph.Graph
	ovl  *sparse.Engine // nil when the overlay is empty (single partition)

	cache *cache.Sharded[int32, []float64] // partition-local rows by vertex

	targetsMu sync.Mutex
	targets   [][]int32 // memoized per-partition overlay target lists

	scratch sync.Pool // *queryScratch

	distQ   atomic.Int64
	rowQ    atomic.Int64
	batchQ  atomic.Int64
	distLat *obs.Histogram
	rowLat  *obs.Histogram

	stats BuildStats
}

type queryScratch struct {
	seeds  []sparse.Seed
	ovlRow []float64
}

// Pair is one Batch query.
type Pair struct{ From, To int }

func newOracle(g *graph.Graph, eng *sparse.Engine, pt *Partition, ovlG *graph.Graph, shortcutEdges int, cacheBytes int64) (*Oracle, error) {
	o := &Oracle{
		g:       g,
		eng:     eng,
		pt:      pt,
		v2b:     overlayIDs(pt),
		ovlG:    ovlG,
		distLat: obs.NewHistogram(),
		rowLat:  obs.NewHistogram(),
	}
	o.bOff = make([]int32, pt.Parts+1)
	for p := 0; p < pt.Parts; p++ {
		o.bOff[p+1] = o.bOff[p] + pt.NB[p]
	}
	if ovlG.N > 0 {
		o.ovl = sparse.New(ovlG)
	}
	if cacheBytes <= 0 {
		cacheBytes = DefaultCacheBytes
	}
	o.cache = cache.New[int32](cacheBytes, 8*int64(pt.MaxPartSize()), func(row []float64) int64 { return 8 * int64(len(row)) })
	o.scratch.New = func() any { return &queryScratch{} }
	o.stats = BuildStats{
		Parts:         pt.Parts,
		TargetSize:    pt.TargetSize,
		MaxPartSize:   pt.MaxPartSize(),
		BoundaryVerts: pt.BoundaryVerts(),
		CutEdges:      pt.CutEdges,
		ShortcutEdges: shortcutEdges,
		OverlayEdges:  ovlG.NumEdges(),
	}
	return o, nil
}

// N returns the number of vertices.
func (o *Oracle) N() int { return o.g.N }

// Stats returns the build summary.
func (o *Oracle) Stats() BuildStats { return o.stats }

// CacheStats snapshots the local-row cache.
func (o *Oracle) CacheStats() cache.Stats { return o.cache.Stats() }

// Partition exposes the partition table (read-only).
func (o *Oracle) Partition() *Partition { return o.pt }

// SourceKind labels the oracle for serving-mode reporting.
func (o *Oracle) SourceKind() string { return "oracle" }

func (o *Oracle) checkVertex(i int) error {
	if i < 0 || i >= o.g.N {
		return fmt.Errorf("hierarchy: vertex %d outside [0,%d)", i, o.g.N)
	}
	return nil
}

// localRow returns u's partition-local compact row: distances within
// u's partition (paths confined to the partition), laid out in the
// partition's Verts order so the first NB entries are the boundary
// distances. The returned slice is shared and read-only.
func (o *Oracle) localRow(ctx context.Context, u int32) ([]float64, error) {
	return o.cache.Get(ctx, u, func() ([]float64, error) {
		p := o.pt.Part[u]
		row := make([]float64, o.pt.Size(int(p)))
		for i := range row {
			row[i] = matrix.Inf
		}
		bd := sparse.Bound{
			Expand: func(v int32) bool { return o.pt.Part[v] == p },
			OnSettle: func(v int32, d float64) {
				if o.pt.Part[v] == p {
					row[o.pt.LocalIdx[v]] = d
				}
			},
		}
		if _, err := o.eng.SolveRowBoundedInto(int(u), nil, bd); err != nil {
			return nil, err
		}
		return row, nil
	})
}

func (o *Oracle) getScratch() *queryScratch { return o.scratch.Get().(*queryScratch) }
func (o *Oracle) putScratch(s *queryScratch) {
	s.seeds = s.seeds[:0]
	o.scratch.Put(s)
}

// seedBoundary appends one seed per finite boundary distance in the
// prefix of lu, mapped to overlay ids starting at base.
func seedBoundary(seeds []sparse.Seed, lu []float64, nb int32, base int32) []sparse.Seed {
	for i := int32(0); i < nb; i++ {
		if d := lu[i]; d < matrix.Inf {
			seeds = append(seeds, sparse.Seed{V: base + i, Dist: d})
		}
	}
	return seeds
}

// Dist returns d(u, v): the minimum of the partition-local distance
// (when u and v share a partition) and, over all boundary vertices b'
// of v's partition, (u → b' through the overlay) + (b' → v inside v's
// partition). The overlay search seeds every boundary of u's partition
// with its local distance, early-exits once v's boundaries settle, and
// prunes at the best candidate so far.
func (o *Oracle) Dist(ctx context.Context, u, v int) (float64, error) {
	start := time.Now()
	defer func() { o.distLat.RecordSince(start); o.distQ.Add(1) }()
	if err := o.checkVertex(u); err != nil {
		return 0, err
	}
	if err := o.checkVertex(v); err != nil {
		return 0, err
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if u == v {
		return 0, nil
	}
	pu, pv := o.pt.Part[u], o.pt.Part[v]
	lu, err := o.localRow(ctx, int32(u))
	if err != nil {
		return 0, err
	}
	best := matrix.Inf
	if pu == pv {
		best = lu[o.pt.LocalIdx[v]]
	}
	if o.ovl == nil || o.pt.NB[pu] == 0 || o.pt.NB[pv] == 0 {
		return best, nil
	}
	lv, err := o.localRow(ctx, int32(v))
	if err != nil {
		return 0, err
	}
	sc := o.getScratch()
	defer o.putScratch(sc)
	sc.seeds = seedBoundary(sc.seeds[:0], lu, o.pt.NB[pu], o.bOff[pu])
	if len(sc.seeds) == 0 {
		return best, nil
	}
	tlo, thi := o.bOff[pv], o.bOff[pv+1]
	bd := sparse.Bound{
		Targets: o.partTargets(pv),
		OnSettle: func(b int32, d float64) {
			if b >= tlo && b < thi {
				if c := d + lv[b-tlo]; c < best {
					best = c
				}
			}
		},
	}
	if best < matrix.Inf {
		bd.MaxDist = best
	}
	if _, err := o.ovl.SolveBoundedInto(sc.seeds, nil, bd); err != nil {
		return 0, err
	}
	return best, nil
}

// partTargets returns partition p's overlay ids — a contiguous range,
// materialized once and memoized so queries pass it without allocating.
func (o *Oracle) partTargets(p int32) []int32 {
	o.targetsMu.Lock()
	defer o.targetsMu.Unlock()
	if o.targets == nil {
		o.targets = make([][]int32, o.pt.Parts)
	}
	t := o.targets[p]
	if t == nil {
		lo, hi := o.bOff[p], o.bOff[p+1]
		t = make([]int32, hi-lo)
		for i := range t {
			t[i] = lo + int32(i)
		}
		o.targets[p] = t
	}
	return t
}

// Row returns a fresh copy of vertex u's full distance row.
func (o *Oracle) Row(ctx context.Context, u int) ([]float64, error) {
	return o.RowInto(ctx, u, nil)
}

// RowInto fills dst (reusing its backing array when it fits) with
// vertex u's full distance row: u's partition-local row, then one full
// overlay row seeded from u's boundary distances, pushed back down into
// every partition by a multi-seed partition-restricted solve.
func (o *Oracle) RowInto(ctx context.Context, u int, dst []float64) ([]float64, error) {
	start := time.Now()
	defer func() { o.rowLat.RecordSince(start); o.rowQ.Add(1) }()
	if err := o.checkVertex(u); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	n := o.g.N
	if cap(dst) >= n {
		dst = dst[:n]
	} else {
		dst = make([]float64, n)
	}
	for i := range dst {
		dst[i] = matrix.Inf
	}
	p := o.pt.Part[u]
	lu, err := o.localRow(ctx, int32(u))
	if err != nil {
		return nil, err
	}
	for i, d := range lu {
		dst[o.pt.Verts[int(o.pt.Off[p])+i]] = d
	}
	if o.ovl == nil || o.pt.NB[p] == 0 {
		return dst, nil
	}
	sc := o.getScratch()
	defer o.putScratch(sc)
	sc.seeds = seedBoundary(sc.seeds[:0], lu, o.pt.NB[p], o.bOff[p])
	if len(sc.seeds) == 0 {
		return dst, nil
	}
	b := o.ovlG.N
	if cap(sc.ovlRow) >= b {
		sc.ovlRow = sc.ovlRow[:b]
	} else {
		sc.ovlRow = make([]float64, b)
	}
	if _, err := o.ovl.SolveBoundedInto(sc.seeds, sc.ovlRow, sparse.Bound{}); err != nil {
		return nil, err
	}
	for q := int32(0); q < int32(o.pt.Parts); q++ {
		if q%64 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		nbq := o.pt.NB[q]
		if nbq == 0 {
			continue
		}
		sc.seeds = sc.seeds[:0]
		lo := o.pt.Off[q]
		for i := int32(0); i < nbq; i++ {
			if d := sc.ovlRow[o.bOff[q]+i]; d < matrix.Inf {
				sc.seeds = append(sc.seeds, sparse.Seed{V: o.pt.Verts[lo+i], Dist: d})
			}
		}
		if len(sc.seeds) == 0 {
			continue
		}
		bd := sparse.Bound{
			Expand: func(v int32) bool { return o.pt.Part[v] == q },
			OnSettle: func(v int32, d float64) {
				if o.pt.Part[v] == q && d < dst[v] {
					dst[v] = d
				}
			},
		}
		if _, err := o.eng.SolveBoundedInto(sc.seeds, nil, bd); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// Batch answers pairs in order, sharing the local-row cache across
// queries. A cancelled ctx stops with the error; the partial result is
// discarded.
func (o *Oracle) Batch(ctx context.Context, pairs []Pair) ([]float64, error) {
	o.batchQ.Add(1)
	out := make([]float64, len(pairs))
	for i, pr := range pairs {
		d, err := o.Dist(ctx, pr.From, pr.To)
		if err != nil {
			return nil, err
		}
		out[i] = d
	}
	return out, nil
}

// RegisterMetrics exposes the hierarchy's structure and query
// telemetry on r:
//
//	apsp_hier_parts / _boundary_vertices / _overlay_edges /
//	_cut_edges / _shortcut_edges   partition and overlay structure
//	apsp_hier_build_seconds        wall time of the build
//	apsp_hier_localrow_cache_*     local-row LRU traffic and bytes
//	apsp_hier_*_queries_total      dist/row/batch query counts
//	apsp_hier_dist_seconds / apsp_hier_row_seconds  query latency
func (o *Oracle) RegisterMetrics(r *obs.Registry) {
	r.GaugeFunc("apsp_hier_parts", "Partitions in the hierarchy.",
		func() float64 { return float64(o.stats.Parts) })
	r.GaugeFunc("apsp_hier_boundary_vertices", "Boundary vertices (overlay graph size).",
		func() float64 { return float64(o.stats.BoundaryVerts) })
	r.GaugeFunc("apsp_hier_overlay_edges", "Undirected overlay edges (shortcuts plus cut edges).",
		func() float64 { return float64(o.stats.OverlayEdges) })
	r.GaugeFunc("apsp_hier_cut_edges", "Undirected edges crossing partitions.",
		func() float64 { return float64(o.stats.CutEdges) })
	r.GaugeFunc("apsp_hier_shortcut_edges", "Undirected boundary-to-boundary shortcut edges.",
		func() float64 { return float64(o.stats.ShortcutEdges) })
	r.GaugeFunc("apsp_hier_build_seconds", "Wall time of the hierarchy build (0 when loaded from disk).",
		func() float64 { return o.stats.BuildSeconds })
	r.CounterFunc("apsp_hier_localrow_cache_hits_total", "Local-row cache hits.",
		func() int64 { return o.cache.Stats().Hits })
	r.CounterFunc("apsp_hier_localrow_cache_misses_total", "Local-row cache misses.",
		func() int64 { return o.cache.Stats().Misses })
	r.CounterFunc("apsp_hier_localrow_cache_evictions_total", "Local-row cache evictions.",
		func() int64 { return o.cache.Stats().Evictions })
	r.GaugeFunc("apsp_hier_localrow_cache_bytes", "Bytes of cached local rows.",
		func() float64 { return float64(o.cache.Stats().BytesInUse) })
	r.CounterFunc("apsp_hier_dist_queries_total", "Oracle Dist queries.",
		func() int64 { return o.distQ.Load() })
	r.CounterFunc("apsp_hier_row_queries_total", "Oracle Row queries.",
		func() int64 { return o.rowQ.Load() })
	r.CounterFunc("apsp_hier_batch_queries_total", "Oracle Batch queries.",
		func() int64 { return o.batchQ.Load() })
	r.RegisterHistogram("apsp_hier_dist_seconds", "Latency of oracle Dist queries.", o.distLat)
	r.RegisterHistogram("apsp_hier_row_seconds", "Latency of oracle Row queries.", o.rowLat)
}
