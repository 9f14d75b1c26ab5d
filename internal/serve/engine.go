// Package serve answers shortest-path queries over a solved distance
// matrix: point-to-point distance, single-source rows, k-nearest targets,
// and explicit path reconstruction. It is the user-facing half of the
// pipeline — the solvers (or a persisted tile store) provide the
// distances, this package turns them into answers.
//
// Paths are recovered without a successor matrix, using only one distance
// row and the input graph: on a shortest i->j path every hop (k, j)
// satisfies d[i][k] + w(k, j) == d[i][j], so walking backwards from j and
// greedily following any neighbour that satisfies the identity peels off
// one optimal hop at a time. This is what lets a store hold n^2 distances
// instead of 2·n^2 values.
//
// The engine is built for query throughput: every read-heavy operation
// has an Into variant that reuses caller buffers, KNN selects with a
// bounded max-heap (O(n log k), not a full sort), Path walks a CSR
// adjacency copied out of the graph once at construction, and sources
// that can share row storage (RowViewer) are consumed zero-copy. On a
// warm row cache, Dist/RowInto/KNNInto/PathInto run allocation-free.
package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"apspark/internal/graph"
	"apspark/internal/matrix"
	"apspark/internal/obs"
	"apspark/internal/sparse"
	"apspark/internal/store"
)

// Source supplies distances. Implementations must be safe for concurrent
// use. The context bounds any IO behind a read (a tile-store miss pages
// data in from disk); in-memory implementations may ignore it.
type Source interface {
	// N returns the number of vertices.
	N() int
	// Dist returns d(i, j), matrix.Inf when unreachable.
	Dist(ctx context.Context, i, j int) (float64, error)
	// RowInto fills dst with vertex i's full distance row, reusing its
	// backing array when large enough (a nil dst yields a fresh copy). The
	// returned slice is caller-owned.
	RowInto(ctx context.Context, i int, dst []float64) ([]float64, error)
	// SourceKind labels the source for serving-mode reporting: "store",
	// "rows", "matrix".
	SourceKind() string
}

// RowViewer is the one optional Source upgrade, for sources that hold
// rows in memory: RowView returns vertex i's distance row as a shared,
// read-only slice (no copy on a cache hit). The engine uses it for every
// row-consuming query — KNN, Path, and row serving — so sources that
// implement it are served zero-copy.
type RowViewer interface {
	RowView(ctx context.Context, i int) ([]float64, error)
}

// matrixSource adapts an in-memory dense matrix to Source; it is how
// tests and small deployments serve straight from a Solve result.
type matrixSource struct {
	m *matrix.Block
}

// NewMatrixSource wraps a dense square matrix as a query source. The
// matrix is shared, not copied: callers must stop mutating it.
func NewMatrixSource(m *matrix.Block) (Source, error) {
	if m == nil || m.Phantom() {
		return nil, fmt.Errorf("serve: need a dense matrix")
	}
	if m.R != m.C {
		return nil, fmt.Errorf("serve: matrix is %dx%d, want square", m.R, m.C)
	}
	return &matrixSource{m: m}, nil
}

func (s *matrixSource) N() int { return s.m.R }

func (s *matrixSource) SourceKind() string { return "matrix" }

func (s *matrixSource) checkVertex(i int) error {
	if i < 0 || i >= s.m.R {
		return fmt.Errorf("serve: vertex %d outside [0,%d)", i, s.m.R)
	}
	return nil
}

func (s *matrixSource) Dist(_ context.Context, i, j int) (float64, error) {
	if i < 0 || i >= s.m.R || j < 0 || j >= s.m.R {
		return 0, fmt.Errorf("serve: vertex pair (%d,%d) outside [0,%d)", i, j, s.m.R)
	}
	return s.m.At(i, j), nil
}

// RowView aliases the matrix's own row storage: zero-copy, read-only.
func (s *matrixSource) RowView(_ context.Context, i int) ([]float64, error) {
	if err := s.checkVertex(i); err != nil {
		return nil, err
	}
	return s.m.Row(i), nil
}

// RowInto copies row i into dst, reusing its backing array when possible.
func (s *matrixSource) RowInto(_ context.Context, i int, dst []float64) ([]float64, error) {
	if err := s.checkVertex(i); err != nil {
		return nil, err
	}
	if cap(dst) >= s.m.C {
		dst = dst[:s.m.C]
	} else {
		dst = make([]float64, s.m.C)
	}
	copy(dst, s.m.Row(i))
	return dst, nil
}

// Target is one k-nearest-neighbour answer entry.
type Target struct {
	To   int     `json:"to"`
	Dist float64 `json:"dist"`
}

// Path is a reconstructed shortest path.
type Path struct {
	// Dist is the total path length, equal to d(from, to).
	Dist float64
	// Hops lists the vertices from source to destination inclusive.
	Hops []int
}

// ErrNoPath is returned by Path queries between disconnected vertices.
var ErrNoPath = fmt.Errorf("serve: no path exists")

// ErrNoGraph is returned by Path queries when the engine has no graph to
// recover hops from.
var ErrNoGraph = fmt.Errorf("serve: path reconstruction needs the input graph (-graph)")

// Engine answers queries over a distance source, optionally armed with
// the original graph for path reconstruction. Safe for concurrent use as
// long as the Source is.
type Engine struct {
	src Source
	rv  RowViewer // src's RowView upgrade, nil if unsupported
	g   *graph.Graph

	// g's CSR adjacency arrays, bound once at construction: Path walks
	// these flat read-only slices directly instead of paying a closure
	// call per neighbour per hop.
	adjPtr []int32
	adjTo  []int32
	adjW   []float64

	rowScratch  sync.Pool // *[]float64, for sources without RowView
	pathScratch sync.Pool // *pathVisit

	// sp re-derives any single distance row from the graph (Dijkstra
	// over the CSR arrays) when the source fails a read with a
	// corrupt-store error; nil without a graph, and corruption then
	// surfaces as the store's typed error. A rows source's own engine is
	// this one.
	sp         *sparse.Engine
	recomputed atomic.Int64

	// hopRel is the relative tolerance of Path's hop identity: pathRel,
	// plus twice the f32 codec's bound when the source holds f32 tiles,
	// whose distances may each be off by that much.
	hopRel float64

	// gen labels the store generation this engine serves ("" for static
	// sources); surfaced in /healthz so operators and the churn harness
	// can tell which generation answered.
	gen string
}

// EngineOptions tunes New beyond the positional essentials.
type EngineOptions struct {
	// Generation labels the store generation served, for /healthz and
	// swap logging. Leave empty for static (non-generational) sources.
	Generation string
}

// New builds an engine. g may be nil, disabling Path queries; when
// present its vertex count must match the source.
func New(src Source, g *graph.Graph) (*Engine, error) {
	return NewWithOptions(src, g, EngineOptions{})
}

// NewWithOptions is New with EngineOptions.
func NewWithOptions(src Source, g *graph.Graph, opts EngineOptions) (*Engine, error) {
	if src == nil {
		return nil, fmt.Errorf("serve: nil source")
	}
	if g != nil && g.N != src.N() {
		return nil, fmt.Errorf("serve: graph has %d vertices, distance source has %d", g.N, src.N())
	}
	e := &Engine{src: src, g: g, gen: opts.Generation, hopRel: pathRel}
	e.rv, _ = src.(RowViewer)
	if st, ok := src.(*store.Store); ok && st.Snapshot().CodecTiles["f32"] > 0 {
		e.hopRel += 2 * store.F32DefaultMaxRelErr
	}
	if g != nil {
		e.adjPtr, e.adjTo, e.adjW = g.CSR()
		if rs, ok := src.(*rowsSource); ok {
			e.sp = rs.sp
		} else {
			e.sp = sparse.New(g)
		}
	}
	return e, nil
}

// SourceKind labels the live serving mode, the source's kind: "store",
// "rows" (solved on demand from the graph, no store) or "matrix".
func (e *Engine) SourceKind() string { return e.src.SourceKind() }

// N returns the number of vertices served.
func (e *Engine) N() int { return e.src.N() }

// Generation returns the store generation label this engine serves, ""
// for static sources.
func (e *Engine) Generation() string { return e.gen }

// HasGraph reports whether Path queries are available.
func (e *Engine) HasGraph() bool { return e.g != nil }

// Recomputed counts the queries answered by re-solving from the
// graph after a corrupt store read — a nonzero value means the store has
// quarantined tiles and the engine is serving degraded (correct answers,
// Dijkstra-speed instead of read-speed, for the affected row stripes).
func (e *Engine) Recomputed() int64 { return e.recomputed.Load() }

// RegisterMetrics exposes the engine's counters on r — the source kind
// and the recompute counter here, plus the sparse recompute engine's solver
// counters when a graph is attached. The store's own metrics are
// registered by the caller (it owns the store handle).
func (e *Engine) RegisterMetrics(r *obs.Registry) {
	r.Gauge("apsp_serve_source_info",
		"Which source kind is live (constant 1; the kind label carries the mode).",
		obs.Label{Key: "kind", Value: e.SourceKind()}).Set(1)
	r.CounterFunc("apsp_serve_recomputed_rows_total",
		"Queries answered by a graph re-solve after a corrupt store read.",
		func() int64 { return e.recomputed.Load() })
	if e.sp != nil {
		e.sp.RegisterMetrics(r)
	}
}

// canRecompute reports whether err is a corrupt-tile store read the
// engine can answer from the graph instead.
func (e *Engine) canRecompute(err error) bool {
	return e.sp != nil && errors.Is(err, store.ErrCorruptTile)
}

// recomputeRowInto re-derives from's full distance row by a full
// Dijkstra over the graph, reusing dst's backing array when large enough,
// and counts the row as recomputed.
func (e *Engine) recomputeRowInto(from int, dst []float64) ([]float64, error) {
	n := e.src.N()
	if cap(dst) >= n {
		dst = dst[:n]
	} else {
		dst = make([]float64, n)
	}
	if err := e.sp.SolveRowInto(from, dst); err != nil {
		return nil, err
	}
	e.recomputed.Add(1)
	return dst, nil
}

// Dist returns d(from, to).
func (e *Engine) Dist(ctx context.Context, from, to int) (float64, error) {
	d, err := e.src.Dist(ctx, from, to)
	if err == nil || !e.canRecompute(err) {
		return d, err
	}
	// A corrupt read past the source's own validation means from and to
	// are in range; answer from the graph.
	d, rerr := e.sp.SolveDist(from, to)
	if rerr != nil {
		return 0, err
	}
	e.recomputed.Add(1)
	return d, nil
}

// Row returns the full distance row of from (caller-owned).
func (e *Engine) Row(ctx context.Context, from int) ([]float64, error) {
	return e.RowInto(ctx, from, nil)
}

// RowInto fills dst with the full distance row of from, reusing dst's
// backing array when it is large enough.
func (e *Engine) RowInto(ctx context.Context, from int, dst []float64) ([]float64, error) {
	out, err := e.src.RowInto(ctx, from, dst)
	if err != nil && e.canRecompute(err) {
		return e.recomputeRowInto(from, dst)
	}
	return out, err
}

// acquireRow obtains from's distance row as cheaply as the source allows
// (see acquireSourceRow), falling back to a graph recompute into pooled
// scratch when the store copy of the row is corrupt.
func (e *Engine) acquireRow(ctx context.Context, from int) (row []float64, release func(), err error) {
	row, release, err = e.acquireSourceRow(ctx, from)
	if err == nil || !e.canRecompute(err) {
		return row, release, err
	}
	bp, _ := e.rowScratch.Get().(*[]float64)
	if bp == nil {
		bp = new([]float64)
	}
	nrow, nerr := e.recomputeRowInto(from, *bp)
	if nerr != nil {
		e.rowScratch.Put(bp)
		return nil, nil, err
	}
	*bp = nrow
	return *bp, func() { e.rowScratch.Put(bp) }, nil
}

// acquireSourceRow obtains from's distance row from the source: a shared
// view when the source supports it (zero-copy, release is nil),
// otherwise a pooled scratch buffer (release returns it to the pool).
func (e *Engine) acquireSourceRow(ctx context.Context, from int) (row []float64, release func(), err error) {
	if e.rv != nil {
		row, err = e.rv.RowView(ctx, from)
		return row, nil, err
	}
	bp, _ := e.rowScratch.Get().(*[]float64)
	if bp == nil {
		bp = new([]float64)
	}
	*bp, err = e.src.RowInto(ctx, from, *bp)
	if err != nil {
		e.rowScratch.Put(bp)
		return nil, nil, err
	}
	return *bp, func() { e.rowScratch.Put(bp) }, nil
}

// heapAfter reports whether a sorts strictly after b in the KNN order
// (distance ascending, vertex id breaking ties) — the max-heap predicate:
// the heap root is the worst candidate currently kept.
func heapAfter(a, b Target) bool {
	return a.Dist > b.Dist || (a.Dist == b.Dist && a.To > b.To)
}

func knnSiftUp(h []Target, i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !heapAfter(h[i], h[p]) {
			return
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

func knnSiftDown(h []Target, i int) {
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < len(h) && heapAfter(h[l], h[m]) {
			m = l
		}
		if r < len(h) && heapAfter(h[r], h[m]) {
			m = r
		}
		if m == i {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// KNN returns the k nearest reachable targets of from, excluding from
// itself, ordered by distance with vertex id breaking ties. Fewer than k
// entries come back when the reachable set is smaller.
func (e *Engine) KNN(ctx context.Context, from, k int) ([]Target, error) {
	c := k
	if n := e.src.N(); c > n {
		c = n
	}
	if c < 0 {
		c = 0
	}
	return e.KNNInto(ctx, from, k, make([]Target, 0, c))
}

// KNNInto is KNN appending into dst's backing array (dst is overwritten
// from index 0): a bounded max-heap keeps the best k candidates while the
// row streams past, O(n log k) instead of a full O(n log n) sort, then
// the k survivors are sorted. With a reused dst and a row-view source
// the query is allocation-free.
func (e *Engine) KNNInto(ctx context.Context, from, k int, dst []Target) ([]Target, error) {
	if k < 1 {
		return nil, fmt.Errorf("serve: k = %d, want >= 1", k)
	}
	row, release, err := e.acquireRow(ctx, from)
	if err != nil {
		return nil, err
	}
	h := dst[:0]
	for v, d := range row {
		if v == from || math.IsInf(d, 1) {
			continue
		}
		if len(h) < k {
			h = append(h, Target{To: v, Dist: d})
			knnSiftUp(h, len(h)-1)
		} else if d < h[0].Dist || (d == h[0].Dist && v < h[0].To) {
			h[0] = Target{To: v, Dist: d}
			knnSiftDown(h, 0)
		}
	}
	if release != nil {
		release()
	}
	slices.SortFunc(h, func(a, b Target) int {
		switch {
		case a.Dist < b.Dist:
			return -1
		case a.Dist > b.Dist:
			return 1
		default:
			return a.To - b.To
		}
	})
	return h, nil
}

// pathRel is the relative tolerance for the hop identity
// d[i][k] + w(k,j) == d[i][j]: distances come out of long chains of
// float64 min-plus folds, so exact equality is one rounding error away
// from a false "no hop found".
const pathRel = 1e-9

// pathVisit is the pooled visited-set of one path walk: an epoch-stamped
// array, so clearing between walks is one counter increment.
type pathVisit struct {
	seen  []int32
	epoch int32
}

func (e *Engine) getVisit() *pathVisit {
	v, _ := e.pathScratch.Get().(*pathVisit)
	n := e.src.N()
	if v == nil || len(v.seen) < n {
		v = &pathVisit{seen: make([]int32, n)}
	}
	if v.epoch == math.MaxInt32 {
		clear(v.seen)
		v.epoch = 0
	}
	v.epoch++
	return v
}

// Path reconstructs one shortest path from -> to. Only the single
// distance row of the source vertex is consulted (one row-band of reads
// against a store), plus the prebuilt CSR adjacency of each hop. Among
// equally short paths the one following the smallest vertex ids (walking
// backwards from the destination) is returned deterministically.
func (e *Engine) Path(ctx context.Context, from, to int) (Path, error) {
	return e.PathInto(ctx, from, to, nil)
}

// PathInto is Path reusing hops' backing array for the reconstructed hop
// list. With a reused buffer and a row-view source the walk is
// allocation-free.
func (e *Engine) PathInto(ctx context.Context, from, to int, hops []int) (Path, error) {
	if e.g == nil {
		return Path{}, ErrNoGraph
	}
	row, release, err := e.acquireRow(ctx, from)
	if err != nil {
		return Path{}, err
	}
	if release != nil {
		defer release()
	}
	if to < 0 || to >= len(row) {
		return Path{}, fmt.Errorf("serve: vertex %d outside [0,%d)", to, len(row))
	}
	total := row[to]
	if math.IsInf(total, 1) {
		return Path{}, ErrNoPath
	}
	if from == to {
		return Path{Dist: 0, Hops: append(hops[:0], from)}, nil
	}

	// Walk backwards from the destination: at cur, an optimal predecessor
	// k satisfies row[k] + w(k, cur) == row[cur]. Requiring row[k] <
	// row[cur] guarantees progress on positive-weight edges; zero-weight
	// edges are admitted as a fallback with a visited guard so cycles of
	// free edges cannot loop forever, and a walk that a plateau of free
	// edges leads to a vertex with no unvisited predecessor backs up a
	// hop and tries the next one (a depth-first search, so each vertex
	// joins the walk at most once). Adjacency lists are id-sorted, so the
	// first strict-progress neighbour is already the smallest id and the
	// scan short-circuits.
	vs := e.getVisit()
	defer e.pathScratch.Put(vs)
	vs.seen[to] = vs.epoch
	hops = append(hops[:0], to)
	cur := to
	for cur != from && len(hops) <= e.g.N {
		best, bestZero := -1, -1
		tol := e.hopRel * (1 + math.Abs(row[cur]))
		for p := e.adjPtr[cur]; p < e.adjPtr[cur+1]; p++ {
			k := int(e.adjTo[p])
			if math.IsInf(row[k], 1) {
				continue
			}
			sum := row[k] + e.adjW[p]
			if sum > row[cur]+tol || sum < row[cur]-tol || vs.seen[k] == vs.epoch {
				continue
			}
			if row[k] < row[cur] {
				best = k
				break
			}
			if bestZero == -1 {
				bestZero = k
			}
		}
		next := best
		if next == -1 {
			next = bestZero
		}
		if next == -1 {
			if hops = hops[:len(hops)-1]; len(hops) == 0 {
				return Path{}, fmt.Errorf("serve: path %d->%d: no predecessor of %d satisfies the hop identity (graph does not match the distance matrix?)", from, to, cur)
			}
			cur = hops[len(hops)-1]
			continue
		}
		hops = append(hops, next)
		vs.seen[next] = vs.epoch
		cur = next
	}
	if cur != from {
		return Path{}, fmt.Errorf("serve: path %d->%d: reconstruction exceeded %d hops", from, to, e.g.N)
	}
	// Reverse into source -> destination order.
	for a, b := 0, len(hops)-1; a < b; a, b = a+1, b-1 {
		hops[a], hops[b] = hops[b], hops[a]
	}
	return Path{Dist: total, Hops: hops}, nil
}
