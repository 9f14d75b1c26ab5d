package sparse

import (
	"math"
	"unsafe"

	"apspark/internal/matrix"
)

// arc is one adjacency entry of the batched kernel's input, head vertex
// and weight packed as to<<arcWeightBits | w: a visit reads 4 bytes per
// arc from one stream instead of a column index and a float64 weight from
// two. Vertices fit the upper 24 bits because the engine stops at maxN.
type arc uint32

const arcWeightBits = 8

// maxArcWeight is the largest edge weight an arc holds, and so the
// largest the batched kernel takes.
const maxArcWeight = 1<<arcWeightBits - 1

// unreached is the tentative distance of a vertex no relaxation has
// touched on the kernel's 32-bit lanes. It sits maxArcWeight below the
// top of the range because the kernel adds an arc's weight to every lane,
// reached or not, and the sum must not wrap. No sum over reached vertices
// can get there: the largest is a shortest distance, at most (n-1)·maxW,
// plus one more edge, and the constant below fails to compile unless
// maxN·maxArcWeight is smaller.
const unreached = math.MaxUint32 - maxArcWeight

const _ = uint64(unreached - 1 - maxN*maxArcWeight)

// integerWeights reports whether every weight is an integer in
// [0, maxArcWeight] on a graph within the engine's limit: what an arc
// holds, and what keeps every distance an exact integer below unreached,
// and so below matrix.NoPath32 (Engine.intDistances).
func integerWeights(n int, weights []float64) bool {
	if n > maxN {
		return false
	}
	for _, w := range weights {
		if !(w >= 0 && w <= maxArcWeight) || w != math.Trunc(w) {
			return false
		}
	}
	return true
}

// packArcs repacks the adjacency as arcs, indexed by the graph's rowPtr.
// Every weight must pass integerWeights.
func packArcs(colIdx []int32, weights []float64) []arc {
	arcs := make([]arc, len(weights))
	for p, w := range weights {
		arcs[p] = arc(uint32(colIdx[p])<<arcWeightBits | uint32(w))
	}
	return arcs
}

// lane is the type of one tentative distance of the batched panel kernel.
// A vertex owns one 64-byte cache line of them, lane j for the batch's
// source j, so the lane type is the batch width: 32 sources on uint16
// lanes, 16 on uint32. Both cost the same two loads per arc.
type lane interface{ uint16 | uint32 }

// The panel kernels an engine moves through, as the number of sources a
// unit of work carries (Engine.width): it starts on batch32 or on rows and
// only ever narrows.
const (
	batch32 = 32 // uint16 lanes
	batch16 = 16 // uint32 lanes
	rowWise = 1
)

func lanesOf[T lane]() int {
	var z T
	return 64 / int(unsafe.Sizeof(z))
}

// unreachedLane is a lane no relaxation has touched: unreached on uint32
// lanes, where the add must not wrap, and 0xFFFF on uint16
// lanes, where the add saturates and so keeps it absorbing.
func unreachedLane[T lane]() T {
	if lanesOf[T]() == batch32 {
		return ^T(0)
	}
	return ^T(0) - maxArcWeight
}

// exactBelow bounds the lanes a batch may end on: if every reached lane
// of the fixpoint is below it, every lane is the true distance. Why: a
// reached lane was built by adds that did not saturate, so it is the
// length of a real walk and d >= D always. At the fixpoint every arc
// (u, v, w) has d[v] <= d[u] ⊕ w, and a reached d[u] below 0xFFFF-255
// cannot saturate with w <= 255, so along a true shortest path s = v0,
// v1, ... induction gives d[v(i+1)] <= d[v(i)] + w = D[v(i+1)]: every
// vertex with a path is reached, at its distance. A batch with a lane at
// or past the bound may have saturated a reachable vertex into 0xFFFF and
// is thrown away. On uint32 lanes the bound is unreached itself, which no
// reached lane attains, so the check never fires there.
func exactBelow[T lane]() T { return ^T(0) - maxArcWeight }

// batchMin is the shortest run of sources worth a batch: a batch costs
// about what five ER rows or four grid rows do, however many of its lanes
// carry a source.
const batchMin = 8

// A batch's work budget. Label correcting has no useful worst-case bound,
// so the kernel carries one derived from the input alone: the W Dijkstra
// rows a batch of W lanes replaces settle W·n vertices, a visit walks one
// adjacency list like a settle does, and a batch is abandoned once it has
// spent batchBudget times that many visits — counting each sweep as
// n/sweepCharge visits on top of the ones it made, for the flags it
// scanned and the mispredicted branches round a vertex that is dirty
// alone (a sweep that visits 64 of 4096 vertices measured 60–85 dense
// visits dearer than its visits; 350 at n = 65536).
//
// Where 2 comes from (package comment for the table): counted in visits
// on 16 lanes, the batch draws level with the rows at 1.0 times W·n on a
// path, 1.3–1.9 on ER graphs and 2.4–4.2 on grids — measured against a
// bucket-queue row 1.3–1.55 times faster than the radix row, so against
// radix rows the batch draws level later and the bound errs on the side
// of giving up early — and a single batch
// strays up to half above its graph's mean with where its sources lie.
// Graphs the kernel suits stay inside 2 batch by batch — ER at any degree
// and size tried needs 0.5–0.7, a planted partition 0.6, grids up to
// 256x256 0.75–1.1 — and the ones that do not are the ones it loses on: a
// path or a large grid whose labels are shuffled, so that a sweep in index
// order moves every wavefront by a vertex or two (2.0 in 2,000 sweeps and
// 4.8–9.5 respectively). The price of a bound this tight, on 16 lanes, is a
// 512x512 grid in label order (1.85 on average, 1.8 times faster batched) and a
// shuffled 64x64 one (2.5, 1.7 times faster): some batch of theirs
// overruns and they run at the rows' speed. On 32 lanes the same visit
// serves twice the sources wherever wavefronts share vertices, so every
// shape needs less of W·n than on 16: ER 0.3, grids up to 256x256
// 0.4–0.55, the shuffled 64x64 grid 1.4 (it now stays batched), a shuffled
// path whose distances fit the lanes 1.95 in 2,000 sweeps as before.
const (
	batchBudget = 2
	sweepCharge = 128
)

// emitBlock is how many vertices of d are turned into row cells at a
// time. The W rows a batch writes lie n cells apart — 32 KiB of float64
// at n = 4096, the same L1 sets for all of them — so a pass that hands
// every row a few cells per vertex line evicts what it just wrote. A
// block of 256 lines is 16 KiB: it stays in L1 while each row in turn
// takes a run of 256 cells from it.
const emitBlock = 256

// batchState is one worker's scratch for the batched kernel at one lane
// type. Between batches every lane of d is unreached and every dirty flag
// is 0.
type batchState[T lane] struct {
	d     []T    // n lines of lanesOf[T] lanes, 64-byte aligned
	dirty []byte // dirty[v] = 1: a neighbour of v changed since v's last visit
	blank []T    // a block of unreached lines, which d is reset from
}

func newBatchState[T lane](n int) *batchState[T] {
	w := lanesOf[T]()
	d := make([]T, n*w+w)
	// Align the first line to a cache line, so no vertex's lanes straddle two.
	if off := uintptr(unsafe.Pointer(&d[0])) & 63; off != 0 {
		d = d[(64-off)/unsafe.Sizeof(d[0]):]
	}
	s := &batchState[T]{
		d:     d[:n*w],
		dirty: make([]byte, (n+31)&^31), // the sweep scans the flags 32 at a time
		blank: make([]T, min(n, emitBlock)*w),
	}
	for i := range s.blank {
		s.blank[i] = unreachedLane[T]()
	}
	s.reset()
	return s
}

// seed starts a batch: lane j of source base+j is 0 and that source's
// neighbours are the first dirty vertices.
func (s *batchState[T]) seed(e *Engine, base, k int) {
	w := lanesOf[T]()
	for j := 0; j < k; j++ {
		src := base + j
		s.d[src*w+j] = 0
		for _, a := range e.arcs[e.rowPtr[src]:e.rowPtr[src+1]] {
			s.dirty[a>>arcWeightBits] = 1
		}
	}
}

// seedAbove starts a batch of a seeded panel (the package comment): the
// lanes of every vertex below job.above take the seeds of the panel's
// sources r..r+k-1 there (seedRun), which are true distances, lane j of
// source job.base+r+j is 0, and every vertex from above on is dirty. The
// seeds of a vertex are one run, and in the tiles of a panel filled in
// lane order of the batch's own width so are those of a whole tile's
// vertices: one narrowing copy. It returns how many seeds are reached, or
// false, with d partly written, when a seed does not fit below
// exactBelow[T]: the batch needs wider lanes.
func seedAbove[T lane, C matrix.Cell](s *batchState[T], e *Engine, job *panelJob[C], r, k int) (reached int, ok bool) {
	n, w := e.n, lanesOf[T]()
	for v := 0; v < job.above; {
		cells, step, count := job.seedRun(n, v, r)
		count = min(count, job.above-v)
		runs, run := count, k
		if step == w && k == w {
			runs, run = 1, count*w
		}
		for i := 0; i < runs; i++ {
			got, ok := seedLanes(s.d[(v+i)*w:][:run], cells[i*step:][:run])
			if !ok {
				return 0, false
			}
			reached += got
		}
		v += count
	}
	for j := 0; j < k; j++ {
		s.d[(job.base+r+j)*w+j] = 0
	}
	for v := job.above; v < n; v++ {
		s.dirty[v] = 1
	}
	return reached, true
}

// seedLanes copies the seeds src into the lanes d, cell for lane, a
// no-path cell as an unreached lane, and returns how many are reached, or
// false at a distance the lanes cannot hold exactly.
func seedLanes[T lane, C matrix.Cell](d []T, src []C) (reached int, ok bool) {
	inf, none, top := unreachedLane[T](), matrix.NoPath[C](), C(exactBelow[T]())
	src = src[:len(d)]
	for i, c := range src {
		switch {
		case c == none:
			d[i] = inf
		case c >= top:
			return 0, false
		default:
			d[i] = T(c)
			reached++
		}
	}
	return reached, true
}

// reset returns the scratch of an abandoned batch to its resting state.
func (s *batchState[T]) reset() {
	for d := s.d; len(d) > 0; d = d[copy(d, s.blank):] {
	}
	clear(s.dirty)
}

// sweep visits the dirty vertices from start on once, in index order
// (batch_amd64.s), and returns how many there were.
func (s *batchState[T]) sweep(e *Engine, start int) int {
	if lanesOf[T]() == batch32 {
		return batchSweep16(unsafe.Pointer(&s.d[0]), s.dirty, e.rowPtr, e.arcs, start)
	}
	return batchSweep32(unsafe.Pointer(&s.d[0]), s.dirty, e.rowPtr, e.arcs, start)
}

// batchEnd is how a batch ended.
type batchEnd int

const (
	batchSolved batchEnd = iota
	overBudget           // ran past its work budget: the graph is one the kernel is wrong for
	overRange            // a lane came within a weight of the lane type's top: distances need wider lanes
)

// solveBatch computes the rows of the panel's sources r..r+k-1
// (k <= lanesOf[T]) into their rows of job.p and returns the number of
// (source, vertex) pairs reached and of the visits its sweeps made. Lane j
// of d[v] converges on dist(base+r+j, v) by pull-style label correcting: a
// visit to v takes the lane-wise minimum of d[v] and d[u]+w over v's arcs
// and, if any lane fell, marks v's neighbours dirty; a sweep visits the
// dirty vertices in index order, Gauss–Seidel style, and sweeps repeat
// until one visits nothing. The fixpoint is the shortest distance whatever
// the order, and every value is an exact integer below 2^32, so the rows
// equal the radix rows bit for bit in either cell type (integer sums below
// 2^53 are exact in float64).
//
// When job.above > 0 the sources' distances to the vertices below it are
// known (a seeded panel, the package comment): those lanes start at them
// (seedAbove), where no visit can lower them, so the sweeps start at above
// rounded down to 8 and the fixpoint argument holds as it is — the flags
// the sweeps set below their start are cleared after.
//
// Any other end leaves the scratch at rest and reached at 0, and the
// caller solves the sources again some other way: overBudget before the
// rows were touched, overRange (uint16 lanes only, see exactBelow) before
// they were touched when a seed is out of range, and otherwise after they
// were filled with distances that may be wrong, all of which the second
// solve overwrites.
func solveBatch[T lane, C matrix.Cell](s *batchState[T], e *Engine, job *panelJob[C], r, k int) (reached, visits int, end batchEnd) {
	n, p := e.n, &job.p
	start, seeded := job.above&^7, 0
	if job.above == 0 {
		s.seed(e, job.base+r, k)
	} else if got, ok := seedAbove(s, e, job, r, k); ok {
		seeded = got
	} else {
		s.reset()
		return 0, 0, overRange
	}
	for left := batchBudget * lanesOf[T]() * n; ; {
		v := s.sweep(e, start)
		if v == 0 {
			break
		}
		visits += v
		if left -= v + n/sweepCharge; left < 0 {
			s.reset()
			return 0, visits, overBudget
		}
	}
	clear(s.dirty[:start])
	reached, top := emitBatch(s, k, n, p.from, p.rows[r*p.stride:], p.stride)
	if top >= exactBelow[T]() {
		return 0, visits, overRange
	}
	if p.from == 0 {
		seeded = 0 // the emit counted them
	}
	return seeded + reached, visits, batchSolved
}

// emitBatch writes lanes 0..k-1 of d at the vertices from from on out as
// the cells of k rows, stride cells apart, returns d to its resting state
// and reports the number of reached lanes it wrote and the largest of
// them: the one pass over d after the sweeps, a block of vertices at a
// time (emitBlock).
func emitBatch[T lane, C matrix.Cell](s *batchState[T], k, n, from int, rows []C, stride int) (reached int, top T) {
	w := lanesOf[T]()
	for d := s.d[:from*w]; len(d) > 0; d = d[copy(d, s.blank):] {
	}
	for v0 := from; v0 < n; v0 += emitBlock {
		blk := s.d[v0*w : min(v0+emitBlock, n)*w]
		for j := 0; j < k; j++ {
			r, t := emitLane(rows[j*stride+v0-from:][:len(blk)/w], blk[j:])
			reached, top = reached+r, max(top, t)
		}
		copy(blk, s.blank)
	}
	return reached, top
}

// emitLane writes every lanesOf[T]-th element of col, one lane of a block
// of d, to row: a reached lane as its distance, exactly, an unreached one
// as the cell's no-path value. It is its own function to keep the loop in
// registers.
func emitLane[T lane, C matrix.Cell](row []C, col []T) (reached int, top T) {
	w, inf, none := lanesOf[T](), unreachedLane[T](), matrix.NoPath[C]()
	for i := range row {
		if d := col[i*w]; d != inf {
			row[i] = C(d)
			top = max(top, d)
			reached++
		} else {
			row[i] = none
		}
	}
	return reached, top
}
