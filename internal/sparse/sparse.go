// Package sparse is the host-native fast path for sparse graphs: APSP by
// shortest paths from every source over the graph's CSR arrays, instead of
// the dense O(n^3) min-plus machinery the distributed solvers use. On the
// kNN-style graphs the source paper targets (m ≪ n²) the whole solve is
// O(n·(m + n log n)) — an order of magnitude and more ahead of any dense
// path at the same n.
//
// Two kernels compute rows, and which one runs is decided from the graph,
// the CPU and the distances alone — there is no option, flag or
// environment variable:
//
//   - batch32, batch16 (batch.go, batch_amd64.s): every panel's solve —
//     under Solve, and under SolveTo for every streamed caller — hands its
//     workers runs of consecutive sources. A run keeps one 64-byte line of
//     tentative distances per vertex, lane j for source j, and relaxes
//     every source with the same two AVX2 registers: a visit to v folds
//     d[u]+w over v's arcs into d[v] (broadcast, add, unsigned min) and
//     marks v's neighbours dirty if any lane fell; sweeps over the dirty
//     vertices in index order repeat until one finds nothing to do. No
//     queue, no per-source branches. The sweep is bound by the two loads
//     of d[u] per arc, not by the arithmetic, so the lanes are as narrow
//     as the distances allow: 32 sources on uint16 lanes with a
//     saturating add (batch32) until a batch ends with a distance of
//     65,280 or more — that batch is thrown away and solved again — and 16
//     sources on uint32 lanes (batch16) from then on. It reads the
//     adjacency repacked as one stream of 4-byte {vertex, weight} arcs, so
//     it needs every weight an integer in [0, 255], and it needs AVX2 (the
//     check internal/matrix makes; other architectures, -tags purego and
//     older CPUs never batch). It is used for runs of at least 8 sources,
//     and it carries a work budget (batch.go): the first batch to overrun
//     it, on either lanes, is solved by radix rows instead and the engine
//     stops batching. Both narrowings are for good and counted once.
//     PanelKernel reports "batch32", "batch16" or "row".
//   - radix (bounded.go, this file): one source at a time on a flat-array
//     radix heap over the IEEE-754 bit patterns of the (monotone,
//     non-negative) keys, where push and decrease-key are O(1) bucket
//     moves, every pop settles a vertex and no comparison sifting happens
//     at all (see the state type). It is the one single-source loop:
//     SolveRowInto, every panel row the batched kernel does not take, and
//     every bounded and multi-seed solve run through it. Per-source state
//     is epoch-stamped, so starting the next source bumps a counter
//     instead of clearing O(n).
//
// Integer sums below 2^53 are exact in float64 and the batched fixpoint is
// the shortest distance whatever order it was reached in, so both produce
// the same bits. All scratch is kept per worker on free lists the engine
// owns and sized from the graph (batched) or grown by the first source
// (radix); after that a source, and a batch, performs zero heap
// allocations.
//
// Rows/s on one core of the 2-vCPU development host (AVX2, 2.1 GHz),
// n = 4096, weights 1..100, one 256-row panel by a fresh engine, medians
// of 5 runs of 10 (go test -bench SolvePanel -cpu 1 ./internal/sparse
// regenerates them), and what the budget is counted in: the vertices a
// batch's sweeps visit over the W·n that W Dijkstra rows settle.
//
//	                        batch32  batch16    row   visits/(W·n), W = 32, 16
//	ER degree 16              17160    10350   2080   0.30  0.58
//	planted, 8 communities    10600     6460   1475   0.31  0.61
//	64x64 grid                31330    26330   3130   0.44  0.51
//	path, labels in order     34290*   36380   4700   0.37  0.59
//	path, labels shuffled      3080†    3450†  3570   1.36  1.98, in 2,000 sweeps
//
// (*) the panel's first batch ends past 16-bit lanes, is thrown away and
// the panel goes on as batch16. (†) one batch abandoned over budget, then
// radix rows: the cost of finding out. The batch32 engine first throws
// away a batch whose lanes saturated before its budget ran out; both
// paths' W = 32 visits are of those saturated runs.
//
// Where 32 lanes help less: on ER and planted graphs every vertex is
// dirty in every early sweep whatever the sources, so twice the lanes
// cost the same visits and the rows/s double. On a grid a batch's dirty
// set grows with its wavefronts: twice the sources visit 1.7 times the
// vertices and batch32 is 1.2 times batch16, not 2 (1.2–1.5 on 128x128
// and 256x256). Where they do not apply: a graph with a distance of
// 65,280 or more — long paths, large grids with heavy edges — pays for
// one thrown-away batch per engine and then runs exactly as on batch16.
// The kernel as a whole is ahead where it stays well under 2 in the last
// columns and behind on graphs whose labels make a sweep in index order
// advance every wavefront by a vertex or two: a shuffled path needs 2.0
// times W·n on 16 lanes and a shuffled 256x256 grid 9.5. batch.go has the
// break-even figures the budget's 2 comes from.
//
// Streaming. SolveTo is the one streamed solve: completed source rows go
// to a Sink (a store.PanelWriter) in panels of its block size, two of them
// in flight — one being written while the next is solved. The engine,
// and nothing else, chooses the cell type, from the graph alone, the same
// on every CPU and build: where every weight is an integer in [0, 255]
// every distance is an exact integer below 2^32, and the panels are
// uint32 cells (matrix.NoPath32 for no path) from the lanes to the store
// encoder with no float in between — half the bytes of a float64; on any
// other graph they are float64 rows. Solve is float64 on any graph. One
// generic body serves both cell types (matrix.Cell): the panel loop, its
// workers, the batch emit and the radix row's fill, which converts each
// settled distance exactly. A solve starts at the sink's NextPanel, which
// is how a checkpointed store resumes, and a caller that holds some
// panels already — a generation rebuild's clean panels — writes them
// itself through Options.Supply, in their turn.
//
// Seeding. The graph is undirected, so d(s, v) = d(v, s): by the time the
// panel of sources [base, base+h) runs on the batched kernel, its cells
// at the vertices below base are known already, as the cells of the tiles
// above it, (j, bi) for j < bi — the reuse of distances already computed
// that Urakov and Timeryaev build their sparse APSP on (PAPERS.md). Solve
// reads them where they lie, in its own matrix, and emits every cell of
// its rows from the lanes. SolveTo first fills them into its panel's
// buffer (fillAbove), on its workers, a tile at a time: the tile of the
// panel just above it copied from its other buffer, where it solved that
// panel itself, and every other tile decoded through Sink.ReadBack —
// store.PanelWriter's own CRC-checked decode, to uint32, of panels it
// wrote, resumed or was supplied — straight into place. A tile is filled
// in lane order (matrix.LaneIndex) of the width the panel batches at: the
// seeds of a batch's sources at one vertex are one run, those of all of a
// tile's vertices one stretch, so a batch seeds its lanes with one
// sequential narrowing copy a tile (seedAbove). It then marks every vertex
// from base on dirty and sweeps from base rounded down to a multiple of 8
// (solveBatch). A seeded lane is a true distance, which no visit can
// lower, so the fixpoint argument is unchanged; only the work shrinks, to
// the vertices from the panel on and what their lanes still have to
// learn. Nothing is read back for a panel that runs on rows, on real
// weights or purego builds (which never batch), or into a sink whose
// ReadBack is nil — an f32 store, whose tiles may be lossy.
// apsp_sparse_sweep_visits_total counts the visits of the batches that
// stand, apsp_sparse_seed_seconds the fills' wall time.
//
// The Sink contract. A Sink names its panel height (BlockSize) and first
// panel (NextPanel), takes every panel through one write, WriteCells, in
// order, and reads back what it holds through one read-back, ReadBack.
// The panel names its cell type once (matrix.Panel): Ints, uint32 cells,
// or Reals, float64. A panel of SolveTo that was not seeded carries its
// whole rows. A seeded one carries its rows from its own first column,
// base, on, and the tiles above it as they were filled, Lower, in lane
// order of Lanes-wide groups: its lower tile (bi, j) is tile (j, bi) read
// by columns, which is how store.PanelWriter encodes it, so no cell of
// the lower half is ever written into the panel as a row and nothing is
// transposed. ReadBack decodes a tile, as uint32 cells in the lane order
// asked for, or is nil. A float64 read-back — raw tiles are exact — waits
// for the real-weight kernel, the first caller that could seed from one.
// A write must not keep or change the panel: both buffers are reused.
//
// Residency. A streamed solve holds its two panel buffers, 2·b·n cells,
// and no more: a seeded panel's rows take h·(n−base) cells of its buffer
// and its filled tiles the h·base the rows no longer need. The workers'
// lanes (n lines each) and the store writer's one encoded panel come on
// top.
package sparse

import (
	"context"
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"apspark/internal/graph"
	"apspark/internal/matrix"
	"apspark/internal/obs"
)

// Engine solves APSP on one graph. It keeps read-only views of the
// graph's CSR arrays plus a pool of per-worker scratch, and is safe for
// concurrent use.
type Engine struct {
	n       int
	rowPtr  []int32
	colIdx  []int32
	weights []float64

	scratch freeList // *state

	// intDistances: every weight is an integer in [0, 255], so every
	// distance is an exact uint32 and SolveTo writes uint32 panels.
	intDistances bool

	// arcs is the batched kernel's input (batch.go), nil where the kernel
	// cannot run: no AVX2, or a graph without intDistances.
	arcs []arc

	// width is how many sources a panel's solve takes at once (batch.go):
	// batch32 from the start when the engine has arcs, batch16 after the
	// first batch whose distances outgrow 16-bit lanes, rowWise after the
	// first batch, at either width, that overruns its work budget — and
	// rowWise from the start everywhere else. It only narrows, and each
	// narrowing is counted once.
	width           atomic.Int32
	rangeFallbacks  atomic.Int64
	budgetFallbacks atomic.Int64
	batch32Scratch  freeList // *batchState[uint16]
	batch16Scratch  freeList // *batchState[uint32]

	// Cumulative solve telemetry, exposed by RegisterMetrics. Workers
	// accumulate locally and flush once per panel slice, so the hot
	// per-source loop stays free of shared-counter traffic.
	srcSolved       atomic.Int64 // source rows completed
	settled         atomic.Int64 // vertices settled (heap pops) across all sources
	sweepVisits     atomic.Int64 // vertices the sweeps of batches that stood visited
	discardedVisits atomic.Int64 // vertices the sweeps of batches thrown away visited
	boundedSolves   atomic.Int64 // bounded/multi-seed solves completed
	busyNs          atomic.Int64 // summed worker wall time inside panels
	wallNs          atomic.Int64 // summed panel wall time
	lastWorkers     atomic.Int64 // worker count of the most recent panel
	stallNs         atomic.Int64 // summed time the panel loop was blocked on an emit
	seedNs          atomic.Int64 // summed wall time of seeded panels' fills
	panelEmit       *obs.Histogram
}

// freeList is a pool of one kind of per-worker scratch that belongs to its
// engine. A sync.Pool would do the same job, but what it holds stays
// reachable from the runtime's pool lists for two GC cycles after its
// owner is dead, and a caller that builds an engine per solve then pays
// for the scratch of several dead engines at once (megabytes each). A
// free list dies with the engine. It keeps at most keep items — one per
// processor: what a burst of concurrent solves drew beyond that is left to
// the collector.
type freeList struct {
	mu    sync.Mutex
	items []any
	keep  int
	new   func() any
}

func (f *freeList) get() any {
	f.mu.Lock()
	if last := len(f.items) - 1; last >= 0 {
		x := f.items[last]
		f.items[last] = nil
		f.items = f.items[:last]
		f.mu.Unlock()
		return x
	}
	f.mu.Unlock()
	return f.new()
}

func (f *freeList) put(x any) {
	f.mu.Lock()
	if len(f.items) < f.keep {
		f.items = append(f.items, x)
	}
	f.mu.Unlock()
}

// New builds an engine over g's CSR arrays (shared, read-only; the graph
// must not be mutated while the engine is in use — graphs in this
// repository are immutable after construction). Whether panels can be
// uint32 is decided here, once, from the weights (SolveTo), and
// whether they can batch from the weights and the CPU (PanelKernel).
func New(g *graph.Graph) *Engine {
	e := &Engine{n: g.N, panelEmit: obs.NewHistogram()}
	e.rowPtr, e.colIdx, e.weights = g.CSR()
	keep := runtime.GOMAXPROCS(0)
	e.scratch = freeList{keep: keep, new: func() any { return newState(e.n) }}
	e.batch32Scratch = freeList{keep: keep, new: func() any { return newBatchState[uint16](e.n) }}
	e.batch16Scratch = freeList{keep: keep, new: func() any { return newBatchState[uint32](e.n) }}
	e.width.Store(rowWise)
	if e.intDistances = integerWeights(e.n, e.weights); e.intDistances && haveBatchKernel {
		e.arcs = packArcs(e.colIdx, e.weights)
		e.width.Store(batch32)
	}
	return e
}

// PanelKernel names what a panel of Solve or SolveTo runs its sources on
// now: "batch32" or "batch16" — that many sources at a time through the
// batched kernel, on 16- and 32-bit lanes, which needs AVX2 and integer
// weights in [0, 255] — or "row", one source at a time on the radix heap. An engine that can batch starts on batch32 and
// narrows for good: to batch16 when a batch ends with a distance of
// 65,280 or more, to row when a batch overruns its work budget.
func (e *Engine) PanelKernel() string {
	switch e.width.Load() {
	case batch32:
		return "batch32"
	case batch16:
		return "batch16"
	}
	return "row"
}

// RegisterMetrics exposes the engine's solve telemetry on r:
//
//	apsp_sparse_sources_total          source rows solved
//	apsp_sparse_settled_vertices_total vertices settled (sources/sec and
//	                                   settle rate fall out of rate())
//	apsp_sparse_sweep_visits_total     vertices the sweeps of the batched
//	                                   kernel's batches that stood visited,
//	                                   each a line of lanes folded over its
//	                                   arcs: the kernel's work, which seeding
//	                                   a panel cuts; the same on every run
//	apsp_sparse_discarded_sweep_visits_total
//	                                   the same for batches thrown away
//	                                   (range or budget): how many of them
//	                                   sweep before the engine narrows
//	                                   depends on the workers' timing
//	apsp_sparse_worker_busy_seconds    summed worker time inside panels
//	apsp_sparse_solve_wall_seconds     summed panel wall time
//	apsp_sparse_worker_utilization     busy / (wall * workers) of the run
//	apsp_sparse_panel_emit_seconds     panel emit (store write) latency
//	apsp_sparse_emit_stall_seconds     time the panel loop was blocked on an
//	                                   emit with no solve running beside it
//	                                   (the last panel's emit always is)
//	apsp_sparse_seed_seconds           summed wall time of seeded panels'
//	                                   fills: the tiles above each read back
//	                                   into lane order before its batches
//	apsp_sparse_panel_kernel_info{impl} 1 on the panel kernel in use now
//	                                   (batch32|batch16|row)
//	apsp_sparse_batch_fallbacks_total{reason}
//	                                   times the engine narrowed (0 or 1
//	                                   each): reason="range", a batch's
//	                                   distances outgrew 16-bit lanes
//	                                   (batch32 to batch16); "budget", a
//	                                   batch overran its work budget (to row)
func (e *Engine) RegisterMetrics(r *obs.Registry) {
	r.CounterFunc("apsp_sparse_sources_total", "Source rows solved by the sparse engine.",
		func() int64 { return e.srcSolved.Load() })
	r.CounterFunc("apsp_sparse_settled_vertices_total", "Vertices settled across all Dijkstra sources.",
		func() int64 { return e.settled.Load() })
	r.CounterFunc("apsp_sparse_sweep_visits_total", "Vertices the sweeps of the batched panel kernel's batches that stood visited.",
		func() int64 { return e.sweepVisits.Load() })
	r.CounterFunc("apsp_sparse_discarded_sweep_visits_total", "Vertices the sweeps of batches thrown away (range or budget) visited.",
		func() int64 { return e.discardedVisits.Load() })
	r.CounterFunc("apsp_sparse_bounded_solves_total", "Bounded (frontier-stopped or multi-seed) solves completed.",
		func() int64 { return e.boundedSolves.Load() })
	r.GaugeFunc("apsp_sparse_worker_busy_seconds", "Summed worker wall time spent solving panels.",
		func() float64 { return float64(e.busyNs.Load()) / 1e9 })
	r.GaugeFunc("apsp_sparse_solve_wall_seconds", "Summed panel wall time of the solve.",
		func() float64 { return float64(e.wallNs.Load()) / 1e9 })
	r.GaugeFunc("apsp_sparse_worker_utilization", "Worker busy time over panel wall time times workers (0..1).",
		func() float64 {
			wall, workers := e.wallNs.Load(), e.lastWorkers.Load()
			if wall <= 0 || workers <= 0 {
				return 0
			}
			u := float64(e.busyNs.Load()) / (float64(wall) * float64(workers))
			return min(u, 1)
		})
	r.RegisterHistogram("apsp_sparse_panel_emit_seconds", "Latency of the per-panel emit callback (store panel write).",
		e.panelEmit)
	r.GaugeFunc("apsp_sparse_emit_stall_seconds", "Summed time the panel loop was blocked on an emit with no solve running beside it.",
		func() float64 { return float64(e.stallNs.Load()) / 1e9 })
	r.GaugeFunc("apsp_sparse_seed_seconds", "Summed wall time of seeded panels' fills from the tiles above them.",
		func() float64 { return float64(e.seedNs.Load()) / 1e9 })
	// Read at scrape time: a fallback moves the 1 down the list.
	for _, impl := range []string{"batch32", "batch16", "row"} {
		r.GaugeFunc("apsp_sparse_panel_kernel_info", "What a panel's sources run on (batch32, batch16: that many at a time on 16- and 32-bit lanes; row: one at a time); 1 on the one in use.",
			func() float64 {
				if impl == e.PanelKernel() {
					return 1
				}
				return 0
			}, obs.Label{Key: "impl", Value: impl})
	}
	const fallbackHelp = "Times the engine narrowed its panel kernel for good (range: a batch's distances outgrew 16-bit lanes; budget: a batch overran its work budget)."
	r.CounterFunc("apsp_sparse_batch_fallbacks_total", fallbackHelp,
		func() int64 { return e.rangeFallbacks.Load() }, obs.Label{Key: "reason", Value: "range"})
	r.CounterFunc("apsp_sparse_batch_fallbacks_total", fallbackHelp,
		func() int64 { return e.budgetFallbacks.Load() }, obs.Label{Key: "reason", Value: "budget"})
}

// N returns the number of vertices.
func (e *Engine) N() int { return e.n }

// vstate is one vertex's epoch-stamped per-source state, packed into a
// single 16-byte slot so a relaxation touches exactly one cache line:
// dist and pos are valid only when stamp matches the scratch epoch.
// pos locates the vertex in the radix heap while it is open
// (bucket<<posIdxBits | index), and is settledPos once finalized.
type vstate struct {
	dist  float64
	stamp uint32
	pos   int32
}

const (
	settledPos = int32(-1)
	posIdxBits = 24
	posIdxMask = 1<<posIdxBits - 1
	// numBuckets covers bits.Len64 of any key XOR: 0 (equal to the
	// current minimum) through 64.
	numBuckets = 65
)

// maxN bounds the engine: a vertex's bucket index must fit beside its
// in-bucket position in the 31 usable bits of vstate.pos.
const maxN = 1 << posIdxBits

// ent is one radix-heap entry: the tentative distance as its IEEE-754
// bit pattern (order-preserving for the non-negative finite keys
// Dijkstra generates) keyed with its vertex.
type ent struct {
	key uint64
	v   int32
}

// state is one worker's Dijkstra scratch: epoch-stamped vertex states
// and a radix heap (Ahuja et al.) exploiting the monotonicity of
// Dijkstra's pop sequence. Entries live in buckets by the highest bit in
// which their key differs from the last popped minimum; push and
// decrease-key are O(1) bucket moves, and every entry migrates only
// toward lower buckets, so the whole per-source heap traffic is linear
// in practice — this is what replaced a comparison heap whose pop alone
// was 60% of the solve.
type state struct {
	vs      []vstate
	epoch   uint32
	lastMin uint64
	count   int
	buckets [numBuckets][]ent
	// Target marks for bounded solves, epoch-stamped like vs and
	// allocated only when a solve first passes Bound.Targets.
	tmark  []uint32
	tepoch uint32
}

func newState(n int) *state {
	return &state{vs: make([]vstate, n)}
}

// next starts a new source: one epoch bump, with the rare uint32
// wrap-around falling back to an explicit clear so stale stamps from 2^32
// sources ago can never alias the current epoch. The buckets drained to
// empty when the previous source finished, so only the minimum reference
// resets.
func (s *state) next() {
	s.epoch++
	if s.epoch == 0 {
		for i := range s.vs {
			s.vs[i].stamp = 0
		}
		s.epoch = 1
	}
	s.lastMin = 0
	if s.count != 0 { // a panicked or aborted predecessor left entries behind
		for b := range s.buckets {
			s.buckets[b] = s.buckets[b][:0]
		}
		s.count = 0
	}
}

// bucketFor places a key relative to the current minimum: bucket 0 holds
// keys equal to it, bucket b keys whose highest differing bit is b-1.
func (s *state) bucketFor(key uint64) int {
	return bits.Len64(key ^ s.lastMin)
}

// push inserts an open vertex and records its position.
func (s *state) push(key uint64, v int32) {
	b := s.bucketFor(key)
	s.vs[v].pos = int32(b)<<posIdxBits | int32(len(s.buckets[b]))
	s.buckets[b] = append(s.buckets[b], ent{key: key, v: v})
	s.count++
}

// remove deletes the entry at pos by swapping the bucket's last entry
// into its slot.
func (s *state) remove(pos int32) {
	b, i := pos>>posIdxBits, pos&posIdxMask
	bk := s.buckets[b]
	last := len(bk) - 1
	if int(i) != last {
		bk[i] = bk[last]
		s.vs[bk[i].v].pos = pos
	}
	s.buckets[b] = bk[:last]
	s.count--
}

// decrease lowers the key of the open vertex at pos, moving it to its
// new bucket when the leading differing bit changed.
func (s *state) decrease(pos int32, key uint64, v int32) {
	b, i := pos>>posIdxBits, pos&posIdxMask
	if nb := s.bucketFor(key); int32(nb) != b {
		s.remove(pos)
		s.vs[v].pos = int32(nb)<<posIdxBits | int32(len(s.buckets[nb]))
		s.buckets[nb] = append(s.buckets[nb], ent{key: key, v: v})
		s.count++
		return
	}
	s.buckets[b][i].key = key
}

// pop removes and returns a minimum entry, marking its vertex settled.
// When bucket 0 is empty, the lowest nonempty bucket is redistributed
// around its own minimum: every entry lands in a strictly lower bucket
// (all keys in a bucket agree on the bits above the bucket's leading
// bit), which is what amortizes the scan. The caller guarantees the heap
// is non-empty.
func (s *state) pop() ent {
	if len(s.buckets[0]) == 0 {
		b := 1
		for len(s.buckets[b]) == 0 {
			b++
		}
		bk := s.buckets[b]
		min := bk[0].key
		for _, e := range bk[1:] {
			if e.key < min {
				min = e.key
			}
		}
		s.lastMin = min
		s.buckets[b] = bk[:0]
		s.count -= len(bk)
		for _, e := range bk {
			s.push(e.key, e.v)
		}
	}
	b0 := s.buckets[0]
	top := b0[len(b0)-1]
	s.buckets[0] = b0[:len(b0)-1]
	s.vs[top.v].pos = settledPos
	s.count--
	return top
}

// SolveRowInto computes single-source shortest-path distances from src
// into row (length n, matrix.Inf for unreachable). It draws scratch from
// the engine's pool, so repeated calls are allocation-free after warmup.
func (e *Engine) SolveRowInto(src int, row []float64) error {
	if src < 0 || src >= e.n {
		return fmt.Errorf("sparse: source %d outside [0,%d)", src, e.n)
	}
	if len(row) != e.n {
		return fmt.Errorf("sparse: row has length %d, want %d", len(row), e.n)
	}
	seed := [1]Seed{{V: int32(src)}}
	if _, err := e.dijkstra(seed[:], row, Bound{}); err != nil {
		return err
	}
	e.srcSolved.Add(1)
	return nil
}

// Options tunes a Solve or SolveTo run.
type Options struct {
	// Workers bounds the host goroutines solving sources concurrently
	// within a panel (<= 0: GOMAXPROCS). Rows are independent, so the
	// result is bit-identical at any worker count.
	Workers int
	// Progress, when non-nil, is called after each completed panel with
	// the number of source rows finished so far and the total. It runs on
	// the calling goroutine. On a resumed SolveTo rowsDone includes the
	// rows the sink held already, so the stream reads as overall solve
	// progress.
	Progress func(rowsDone, rowsTotal int)
	// Supply, when non-nil, lets a SolveTo caller write panels itself: it
	// is called for each panel in order, once every earlier panel's write
	// has returned, and true means it has written panel bi to the sink —
	// the engine goes on to the next — while false leaves the panel to the
	// engine. A generation rebuild copies its clean panels this way. Solve
	// refuses it.
	Supply func(bi int) (bool, error)
}

// Sink is where SolveTo writes a solve, a panel of source rows at a time,
// in order: a *store.PanelWriter. It is an interface so that a test can
// pass in a sink that fails or blocks. The package comment has the
// contract.
type Sink interface {
	// BlockSize is the panel height: every panel has this many rows but a
	// ragged last one.
	BlockSize() int
	// NextPanel is the panel to write first: the panels before it are
	// written already (a resumed solve).
	NextPanel() int
	// WriteCells writes the next panel in the cell type the engine chose,
	// which the panel names (matrix.Panel): its whole rows, or those of a
	// seeded panel from its own first column on, with the tiles above it
	// as they were read back.
	WriteCells(p matrix.Panel) error
	// ReadBack returns what reads back the tiles written so far as uint32
	// cells (readBack), or nil where they do not hold the exact distances.
	ReadBack() func(bi, bj, lanes int, dst []uint32) error
}

// readBack reads back what a solve in panels of b rows has written, a tile
// at a time: it fills dst with the h x w cells of rows [bi·b, bi·b+h) at
// columns [bj·b, bj·b+w) as they were written, matrix.NoPath32 for no
// path (h and w are b but for the ragged last panel), in lane order of
// lanes-wide groups (matrix.LaneIndex). A seeded panel calls it on its
// workers at once, only for tiles of panels whose write has returned or
// that the sink held before the solve, and stops on the first error.
type readBack func(bi, bj, lanes int, dst []uint32) error

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Solve computes the full n x n distance matrix in memory, each batched
// panel seeded from the rows above it. A cancelled ctx stops between
// panels with the number of completed source rows and ctx.Err(); the
// partial matrix is discarded. nil ctx means context.Background().
func (e *Engine) Solve(ctx context.Context, panelRows int, opts Options) (*matrix.Block, int, error) {
	if opts.Supply != nil {
		return nil, 0, fmt.Errorf("sparse: only SolveTo takes Supply (an in-memory solve writes every panel itself)")
	}
	if e.n == 0 {
		return matrix.NewZero(0, 0), 0, nil
	}
	out := matrix.NewZero(e.n, e.n)
	up := above[float64]{b: panelRows, whole: out.Data}
	done, err := solvePanels(ctx, e, panelRows, 0, opts, func(bi, h int) ([]float64, above[float64]) {
		return out.Data[bi*panelRows*e.n : (bi*panelRows+h)*e.n], up
	}, nil)
	if err != nil {
		return nil, done, err
	}
	return out, done, nil
}

// SolveTo streams the solve into w: source rows are computed in panels of
// w.BlockSize() consecutive rows (the last panel may be ragged) from panel
// w.NextPanel() on — the sources of the panels before it are skipped — and
// written to w in order as each completes. The engine picks the cell type
// from the graph: uint32 cells where every weight is an integer in
// [0, 255], float64 otherwise. Each batched panel is seeded from the
// panels above it (the package comment): the one just above from the
// engine's own buffer when it solved that panel, the others through
// w.ReadBack(); a nil ReadBack seeds nothing. With opts.Supply set, each
// panel is first offered to Supply.
//
// The solve is double-buffered: a write runs on its own goroutine while
// the workers solve the next panel into a second buffer, so peak residency
// is 2·b·n cells. Writes never overlap each other — panel k's write has
// returned before panel k+1's starts, so a sink that makes its panel
// durable keeps a checkpoint sequence in order — and none outlives the
// call. The two buffers are the call's own and reused: a write must finish
// consuming its panel before returning and must not retain it (or any
// slice of it), nor write to it: the next panel may be seeded from it
// while it is written.
//
// The returned count covers exactly the rows whose write returned nil,
// supplied panels included. A write error abandons the panel being
// solved, starts no further write and is returned as is, as is a Supply
// error. A cancelled ctx abandons the panel being solved, waits for the
// write in flight (its rows count if it succeeds), starts no further write
// and returns ctx.Err(), as does a ctx cancelled inside Supply.
func (e *Engine) SolveTo(ctx context.Context, w Sink, opts Options) (int, error) {
	if e.intDistances {
		return streamPanels[uint32](ctx, e, w, opts, w.ReadBack())
	}
	// A real-weight panel never batches, so nothing is read back for it.
	return streamPanels[float64](ctx, e, w, opts, nil)
}

// streamPanels is SolveTo at cell type C, seeded through read. Its two
// panel buffers are plain allocations of the call: they die with it,
// where blocks from the matrix arena would stay pooled after the solve.
func streamPanels[C matrix.Cell](ctx context.Context, e *Engine, w Sink, opts Options, read readBack) (int, error) {
	if e.n == 0 {
		return 0, nil
	}
	b := w.BlockSize()
	var bufs [2][]C
	cur := 0
	return solvePanels(ctx, e, b, w.NextPanel(), opts, func(bi, h int) ([]C, above[C]) {
		cur = 1 - cur
		if bufs[cur] == nil { // a one-panel solve never takes the second
			bufs[cur] = make([]C, min(b, e.n)*e.n)
		}
		return bufs[cur][:h*e.n], above[C]{b: b, read: read}
	}, func(p panel[C]) error {
		writeStart := time.Now()
		err := w.WriteCells(p.sink())
		e.panelEmit.RecordSince(writeStart)
		return err
	})
}

// solvePanels is the panel loop under Solve and SolveTo. From panel first
// on, it offers each panel to opts.Supply when that is set, once the
// emit before it has returned; otherwise it asks dst for the panel's
// buffer (a window of the full matrix, or one of the two streaming
// buffers) and where its seeds lie, solves the panel's sources into it in
// parallel and, when emit is non-nil, hands the solved panel to emit on a
// goroutine that runs alongside the next panel's solve. The next panel
// seeds from a panel it solved itself where it lies. Rows count, and
// Progress fires on the calling goroutine, once a panel's emit has
// returned nil (at once when there is no emit) or Supply has written it.
func solvePanels[C matrix.Cell](ctx context.Context, e *Engine, b, first int, opts Options, dst func(bi, h int) ([]C, above[C]), emit func(p panel[C]) error) (int, error) {
	if b < 1 {
		return 0, fmt.Errorf("sparse: panel height %d < 1", b)
	}
	if e.n > maxN {
		return 0, fmt.Errorf("sparse: n=%d exceeds the engine limit of %d vertices", e.n, maxN)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	workers := opts.workers()
	numPanels := (e.n + b - 1) / b
	if first < 0 || first > numPanels {
		return 0, fmt.Errorf("sparse: first panel %d outside [0,%d]", first, numPanels)
	}
	skipped := min(first*b, e.n)
	// An emit failure cancels the solve running beside it.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	done := 0
	advance := func(h int) {
		done += h
		if opts.Progress != nil {
			opts.Progress(skipped+done, e.n)
		}
	}
	// At most one emit is in flight: emitting is its row count (0: none),
	// emitted carries its result. settle is the only receiver and runs
	// before every return, so no emit outlives the call.
	emitted := make(chan error, 1)
	emitting := 0
	settle := func() error {
		if emitting == 0 {
			return nil
		}
		waitStart := time.Now()
		err := <-emitted
		e.stallNs.Add(time.Since(waitStart).Nanoseconds())
		h := emitting
		emitting = 0
		if err == nil {
			advance(h)
		}
		return err
	}
	// last is the panel this call solved most recently, lastBi its index.
	var last panel[C]
	lastBi := -1
	for bi := first; bi < numPanels; bi++ {
		base := bi * b
		h := min(b, e.n-base)
		if opts.Supply != nil {
			if err := settle(); err != nil {
				return done, err
			}
			supplied, err := opts.Supply(bi)
			if err != nil {
				return done, err
			}
			if supplied {
				advance(h)
				if err := ctx.Err(); err != nil {
					return done, err
				}
				continue
			}
		}
		buf, up := dst(bi, h)
		if lastBi == bi-1 {
			up.prev = last
		}
		// solvePanel starts with a ctx check, so a cancelled solve falls
		// straight through to settle.
		p, solveErr := solvePanel(ctx, e, base, buf, h, workers, up)
		last, lastBi = p, bi
		if err := settle(); err != nil {
			return done, err
		}
		if solveErr != nil {
			return done, solveErr
		}
		if emit == nil {
			advance(h)
			continue
		}
		if err := ctx.Err(); err != nil {
			return done, err
		}
		emitting = h
		go func() {
			err := emit(p)
			if err != nil {
				cancel()
			}
			emitted <- err
		}()
	}
	err := settle()
	return done, err
}

// above is where a panel's seeds lie (the package comment): the cells of
// the panels of b rows before it at the panel's columns. The zero value
// seeds nothing.
type above[C matrix.Cell] struct {
	b int
	// whole is Solve's n x n matrix, of which the panel is a window: the
	// seeds are its rows above the panel, read where they lie.
	whole []C
	// Otherwise the seeds are filled into the panel's own buffer: the
	// panel just above from prev, where this solve still holds it
	// (prev.rows nil: it does not), every other one through read.
	prev panel[C]
	read readBack
}

// panel is a solved panel as it lies in its buffer (the Sink contract):
// its h rows at the columns from from on, stride cells apart — from is 0
// but on a seeded panel of SolveTo — and, below from, the tiles above it,
// tile j at lower[j·b·h:], in lane order of lanes-wide groups.
type panel[C matrix.Cell] struct {
	rows         []C
	stride, from int
	lower        []C
	lanes        int
}

// sink is the panel as a Sink takes it: where the engine names its cell
// type to the sink.
func (p panel[C]) sink() matrix.Panel {
	if rows, ok := any(p.rows).([]uint32); ok {
		lower, _ := any(p.lower).([]uint32)
		return matrix.Panel{Ints: rows, From: p.from, Lower: lower, Lanes: p.lanes}
	}
	return matrix.Panel{Reals: any(p.rows).([]float64)}
}

// solvePanel fills buf (h rows of n cells) with the distance rows of
// sources base..base+h-1 and returns how they lie in it. The panel is cut
// into units — runs of as many consecutive sources as the engine solves at
// once when the call starts (PanelKernel: 32, 16 or 1) — which the workers
// draw from a shared counter, each holding its scratch for the whole
// panel. A panel that starts on a batched kernel and has seeds is seeded
// (the package comment): from Solve's matrix where they lie; otherwise its
// rows hold only the columns from base on, and the tiles above it are
// first filled, in lane order of the unit's width, into the rest of buf
// (fillAbove). A cancelled ctx stops every worker before its next unit
// (so between batches, not between rows) and is returned; buf is then
// partly filled.
func solvePanel[C matrix.Cell](ctx context.Context, e *Engine, base int, buf []C, h, workers int, up above[C]) (panel[C], error) {
	n := e.n
	job := panelJob[C]{base: base, h: h, unit: rowWise, up: up, p: panel[C]{rows: buf[:h*n], stride: n}}
	if h >= batchMin {
		job.unit = int(e.width.Load())
	}
	workers = max(min(workers, (h+job.unit-1)/job.unit), 1)
	panelStart := time.Now()
	defer func() {
		e.wallNs.Add(time.Since(panelStart).Nanoseconds())
		e.lastWorkers.Store(int64(workers))
	}()
	if job.unit != rowWise && base > 0 {
		switch {
		case up.whole != nil:
			job.above = base
		case up.read != nil:
			job.p = panel[C]{rows: buf[:h*(n-base)], stride: n - base, from: base, lower: buf[h*(n-base) : h*n], lanes: job.unit}
			fillStart := time.Now()
			err := inParallel(ctx, e, &job, workers, true)
			e.seedNs.Add(time.Since(fillStart).Nanoseconds())
			if err != nil {
				return job.p, err
			}
			job.above = base
		}
	}
	return job.p, inParallel(ctx, e, &job, workers, false)
}

// inParallel runs a phase of the panel — its fill (fillAbove) or its
// units (solveUnits) — on workers goroutines, on this one alone when
// workers is 1, and returns an error one of them met.
func inParallel[C matrix.Cell](ctx context.Context, e *Engine, job *panelJob[C], workers int, fill bool) error {
	if workers == 1 {
		return job.phase(ctx, e, fill)
	}
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[w] = job.phase(ctx, e, fill)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// panelJob is one solvePanel call as its workers see it: h rows, drawn
// unit rows at a time through next into p — after, when it is filled from
// up, the tiles above it have been, one at a time through filled.
// above > 0: the vertices below it are seeded (seedRun), from up.whole or
// from p's tiles.
type panelJob[C matrix.Cell] struct {
	base, h int
	p       panel[C]
	unit    int
	next    atomic.Int64
	up      above[C]
	filled  atomic.Int64
	above   int
}

// phase is one worker's part of the panel's fill or of its units.
func (job *panelJob[C]) phase(ctx context.Context, e *Engine, fill bool) error {
	if fill {
		return fillAbove(ctx, e, job)
	}
	return solveUnits(ctx, e, job)
}

// seedRun returns where the seeds of the panel's sources r.. lie from
// vertex v on: vertex v+i's at cells[i*step:], for the count vertices from
// v that lie that way — every one below above in Solve's matrix, the rest
// of v's tile in the panel's tiles.
func (job *panelJob[C]) seedRun(n, v, r int) (cells []C, step, count int) {
	if job.up.whole != nil {
		return job.up.whole[v*n+job.base+r:], n, job.above - v
	}
	b, h, lanes := job.up.b, job.h, job.p.lanes
	g := r / lanes * lanes
	return job.p.lower[v/b*b*h+matrix.LaneIndex(v%b, r, b, h, lanes):], min(lanes, h-g), b - v%b
}

// fillAbove is one worker of a seeded panel's fill: it draws the panels
// above and puts each one's tile at the panel's columns — (j, bi), whose
// row v holds d(v, s) = d(s, v) for the panel's sources s — into the
// panel's tiles in lane order: copied from the panel just above where the
// solve still holds it, decoded straight into place through read
// otherwise.
func fillAbove[C matrix.Cell](ctx context.Context, e *Engine, job *panelJob[C]) error {
	start := time.Now()
	defer func() { e.busyNs.Add(time.Since(start).Nanoseconds()) }()
	b, h, lanes, bi := job.up.b, job.h, job.p.lanes, job.base/job.up.b
	for {
		j := int(job.filled.Add(1)) - 1
		if j >= bi {
			return nil
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		tile := job.p.lower[j*b*h:][:b*h]
		if prev := job.up.prev; prev.rows != nil && j == bi-1 {
			for c := 0; c < b; c++ {
				row := prev.rows[c*prev.stride+job.base-prev.from:][:h]
				for g := 0; g < h; g += lanes {
					copy(tile[matrix.LaneIndex(c, g, b, h, lanes):][:min(lanes, h-g)], row[g:])
				}
			}
			continue
		}
		// Only uint32 panels read back (SolveTo).
		cells, _ := any(tile).([]uint32)
		if err := job.up.read(j, bi, lanes, cells); err != nil {
			return err
		}
	}
}

// solveUnits is one worker of a panel: it solves units until none is left
// or ctx is cancelled.
func solveUnits[C matrix.Cell](ctx context.Context, e *Engine, job *panelJob[C]) error {
	start := time.Now()
	// Scratch is drawn on first use: a worker that only batches never holds
	// row scratch, and one whose distances fit 16 bits never holds the
	// 32-bit lanes.
	var sc *state
	var b32 *batchState[uint16]
	var b16 *batchState[uint32]
	// Telemetry accumulates worker-locally and flushes once per panel,
	// keeping the per-source loop free of shared counters.
	var sources, settled, visits, discarded int64
	defer func() {
		if sc != nil {
			e.scratch.put(sc)
		}
		if b32 != nil {
			e.batch32Scratch.put(b32)
		}
		if b16 != nil {
			e.batch16Scratch.put(b16)
		}
		e.busyNs.Add(time.Since(start).Nanoseconds())
		e.srcSolved.Add(sources)
		e.settled.Add(settled)
		e.sweepVisits.Add(visits)
		e.discardedVisits.Add(discarded)
	}()
	h, n, p := job.h, e.n, &job.p
	for {
		r0 := (int(job.next.Add(1)) - 1) * job.unit
		if r0 >= h {
			return nil
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		// The engine may have narrowed since the panel was cut (this very
		// worker may narrow it below), so a unit is solved in runs of the
		// width in force when each run starts; what a narrowing leaves
		// unsolved goes round again.
		for r, end := r0, min(r0+job.unit, h); r < end; {
			width := int(e.width.Load())
			k := min(width, end-r)
			if k < batchMin {
				if sc == nil {
					sc = e.scratch.get().(*state)
				}
				seed := [1]Seed{{V: int32(job.base + r)}}
				settled += int64(sc.dijkstra(e, seed[:], Bound{}))
				fillRow(sc, p.rows[r*p.stride:][:n-p.from], p.from)
				sources++
				r++
				continue
			}
			var reached, swept int
			var how batchEnd
			if width == batch32 {
				if b32 == nil {
					b32 = e.batch32Scratch.get().(*batchState[uint16])
				}
				reached, swept, how = solveBatch(b32, e, job, r, k)
			} else {
				if b16 == nil {
					b16 = e.batch16Scratch.get().(*batchState[uint32])
				}
				reached, swept, how = solveBatch(b16, e, job, r, k)
			}
			// A worker mid-batch may end the same way; each narrowing is
			// counted by whoever makes it.
			switch how {
			case batchSolved:
				visits += int64(swept)
				sources += int64(k)
				settled += int64(reached)
				r += k
			case overRange:
				discarded += int64(swept)
				if e.width.CompareAndSwap(batch32, batch16) {
					e.rangeFallbacks.Add(1)
				}
			case overBudget:
				discarded += int64(swept)
				if e.width.Swap(rowWise) != rowWise {
					e.budgetFallbacks.Add(1)
				}
			}
		}
	}
}
