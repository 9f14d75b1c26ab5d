package sparse

import (
	"unsafe"

	"apspark/internal/matrix"
)

// batchWidth is how many sources the batched panel kernel relaxes at
// once: one 64-byte cache line of uint32 tentative distances per vertex.
const batchWidth = 16

// batchMin is the shortest run of sources worth a batch: a batch costs
// about what five ER rows or four grid rows do, however many of its lanes
// carry a source.
const batchMin = batchWidth / 2

// A batch's work budget. Label correcting has no useful worst-case bound,
// so the kernel carries one derived from the input alone: batchWidth
// Dijkstra rows settle batchWidth·n vertices, a visit walks one adjacency
// list like a settle does, and a batch is abandoned once it has spent
// batchBudget times that many visits — counting each sweep as
// n/sweepCharge visits on top of the ones it made, for the flags it
// scanned and the mispredicted branches round a vertex that is dirty
// alone (a sweep that visits 64 of 4096 vertices measured 60–85 dense
// visits dearer than its visits; 350 at n = 65536).
//
// Where 2 comes from (package comment for the table): counted in visits,
// the batch draws level with the rows at 1.0 times batchWidth·n on a path,
// 1.3–1.9 on ER graphs and 2.4–4.2 on grids, and a single batch strays up
// to half above its graph's mean with where its sources lie. Graphs the
// kernel suits stay inside 2 batch by batch — ER at any degree and size
// tried needs 0.5–0.7, a planted partition 0.6, grids up to 256x256
// 0.75–1.1 — and the ones that do not are the ones it loses on: a path or
// a large grid whose labels are shuffled, so that a sweep in index order
// moves every wavefront by a vertex or two (2.0 in 2,000 sweeps and 4.8–9.5
// respectively). The price of a bound this tight is a 512x512 grid in
// label order (1.85 on average, 1.8 times faster batched) and a shuffled
// 64x64 one (2.5, 1.7 times faster): some batch of theirs overruns and
// they run at the rows' speed.
const (
	batchBudget = 2
	sweepCharge = 128
)

// batchState is one worker's scratch for the batched kernel. Between
// batches every lane of d is unreached and every dirty flag is 0.
type batchState struct {
	d     []uint32 // n rows of batchWidth lanes, 64-byte aligned
	dirty []byte   // dirty[v] = 1: a neighbour of v changed since v's last visit
}

func (e *Engine) newBatchState() *batchState {
	d := make([]uint32, e.n*batchWidth+batchWidth)
	// Align the first row to a cache line, so no vertex's lanes straddle two.
	if off := uintptr(unsafe.Pointer(&d[0])) & 63; off != 0 {
		d = d[(64-off)/4:]
	}
	d = d[:e.n*batchWidth]
	for i := range d {
		d[i] = unreached
	}
	// The sweep scans the flags 32 at a time.
	return &batchState{d: d, dirty: make([]byte, (e.n+31)&^31)}
}

// seed starts a batch: lane j of source base+j is 0 and that source's
// neighbours are the first dirty vertices.
func (s *batchState) seed(e *Engine, base, k int) {
	for j := 0; j < k; j++ {
		src := base + j
		s.d[src*batchWidth+j] = 0
		for _, a := range e.dial.arcs[e.rowPtr[src]:e.rowPtr[src+1]] {
			s.dirty[a>>arcWeightBits] = 1
		}
	}
}

// reset returns the scratch of an abandoned batch to its resting state.
func (s *batchState) reset() {
	for i := range s.d {
		s.d[i] = unreached
	}
	clear(s.dirty)
}

// solve computes the rows of sources base..base+k-1 (k <= batchWidth)
// into the first k rows of rows (each of length n) and returns the number
// of (source, vertex) pairs reached. Lane j of d[v] converges on
// dist(base+j, v) by pull-style label correcting: a visit to v takes the
// lane-wise minimum of d[v] and d[u]+w over v's arcs and, if any lane
// fell, marks v's neighbours dirty; a sweep (batchSweepAVX2) visits the
// dirty vertices in index order, Gauss–Seidel style, and sweeps repeat
// until one visits nothing. The fixpoint is the shortest distance whatever
// the order, and every value is an exact integer below 2^32, so the rows
// equal the Dial rows bit for bit.
//
// ok is false when the batch ran past its budget: the scratch is reset,
// rows is untouched and the caller solves the sources one by one.
func (s *batchState) solve(e *Engine, base, k int, rows []float64) (reached int, ok bool) {
	n := e.n
	s.seed(e, base, k)
	for left := batchBudget * batchWidth * n; ; {
		visits := batchSweepAVX2(&s.d[0], s.dirty, e.rowPtr, e.dial.arcs)
		if visits == 0 {
			break
		}
		if left -= visits + n/sweepCharge; left < 0 {
			s.reset()
			return 0, false
		}
	}
	// Emit in blocks of batchWidth vertices: each row receives a run of
	// 128 contiguous bytes per block instead of one float at a stride of n.
	for v0 := 0; v0 < n; v0 += batchWidth {
		blk := s.d[v0*batchWidth : min(v0+batchWidth, n)*batchWidth]
		for j := 0; j < k; j++ {
			row := rows[j*n+v0:]
			for i := 0; i*batchWidth < len(blk); i++ {
				if d := blk[i*batchWidth+j]; d != unreached {
					row[i] = float64(d)
					reached++
				} else {
					row[i] = matrix.Inf
				}
			}
		}
		for i := range blk {
			blk[i] = unreached
		}
	}
	return reached, true
}
