package sparse

import (
	"math"
	"math/bits"

	"apspark/internal/matrix"
)

// dialMaxWeight is W*, the largest edge weight the Dial queue is chosen
// for: what fits beside a vertex in a 32-bit arc. Measured, the queue is
// ahead of the radix heap at every maxW up to it on both shapes that
// bound its cost — an ER graph (dense buckets) and a path graph (maxW
// empty buckets between two pops) — and stays ahead on ER up to 65535
// with 8-byte arcs, but those cost 8 % of the row at maxW = 100 (table in
// the package comment).
const dialMaxWeight = 1<<arcWeightBits - 1

// unreached is the tentative distance of a vertex no relaxation has
// touched, shared by the Dial rows and the batched kernel's 32-bit lanes
// (batch.go). It sits dialMaxWeight below the top of the range because
// the batched kernel adds an arc's weight to every lane, reached or not,
// and the sum must not wrap. No sum over reached vertices can get there: the largest
// is a shortest distance, at most (n-1)·maxW, plus one more edge, and the
// constant below fails to compile unless maxN·dialMaxWeight is smaller.
const unreached = math.MaxUint32 - dialMaxWeight

const _ = uint64(unreached - 1 - maxN*dialMaxWeight)

// arc is one adjacency entry of the integer path, head vertex and weight
// packed as to<<arcWeightBits | w: a relaxation reads 4 bytes from one
// stream instead of a column index and a float64 weight from two.
// Vertices fit the upper 24 bits because the engine stops at maxN.
type arc uint32

const arcWeightBits = 8

// dialGraph is the integer view of a graph whose weights qualify for the
// Dial queue: arcs is indexed by the graph's rowPtr, and mask+1 is the
// bucket count, a power of two above maxW.
type dialGraph struct {
	arcs []arc
	mask uint32
}

// newDialGraph repacks the adjacency for the Dial queue, or returns nil
// when the graph does not qualify: every weight must be an integer in
// [0, dialMaxWeight] (and n within the engine's limit, which nothing
// solves past anyway).
func newDialGraph(n int, colIdx []int32, weights []float64) *dialGraph {
	if n > maxN {
		return nil
	}
	maxW := uint32(0)
	for _, w := range weights {
		if !(w >= 0 && w <= dialMaxWeight) || w != math.Trunc(w) {
			return nil
		}
		maxW = max(maxW, uint32(w))
	}
	d := &dialGraph{arcs: make([]arc, len(weights)), mask: 64} // at least one occupancy word of buckets
	for d.mask <= maxW {
		d.mask <<= 1
	}
	d.mask--
	for p, w := range weights {
		d.arcs[p] = arc(uint32(colIdx[p])<<arcWeightBits | uint32(w))
	}
	return d
}

// dialState is one worker's scratch for the Dial queue. Between sources
// every dist is unreached and every bucket is empty.
//
// The buckets are slices, read front to back, but their backing arrays
// are windows of one arena sized from the graph, so the per-source loop
// cannot allocate: a source pushes at most once per arc (a push needs a
// strict decrease, and an arc relaxes only when its tail settles), a
// bucket's windows double, and every source starts from an empty arena,
// which bounds the windows a source can take by 4·(arcs+1) entries plus
// two first windows per bucket.
type dialState struct {
	dist    []uint32
	buckets [][]uint32
	windows [][]uint32 // each bucket's latest window, kept while it is empty
	occ     []uint64   // bit b set while bucket b holds entries
	arena   []uint32
	top     int // arena entries handed out to the current source
}

// firstWindow is the capacity a bucket starts a source with.
const firstWindow = 64

func (e *Engine) newDialState() *dialState {
	nb := int(e.dial.mask) + 1
	s := &dialState{
		dist:    make([]uint32, e.n),
		buckets: make([][]uint32, nb),
		windows: make([][]uint32, nb),
		occ:     make([]uint64, nb/64),
		arena:   make([]uint32, 4*(len(e.dial.arcs)+1)+2*firstWindow*nb),
	}
	for i := range s.dist {
		s.dist[i] = unreached
	}
	return s
}

// grow makes room in bucket i, whose length has reached its capacity. An
// empty bucket has capacity 0, so its first push lands here too: it is
// marked occupied and, if it held entries earlier in this source, gets
// its window back. Otherwise the bucket moves into a fresh arena window
// of twice the size.
func (s *dialState) grow(i uint32) {
	b := &s.buckets[i]
	if len(*b) == 0 {
		s.occ[i>>6] |= 1 << (i & 63)
		if s.windows[i] != nil {
			*b = s.windows[i]
			return
		}
	}
	c := max(firstWindow, 2*cap(*b))
	w := s.arena[s.top : s.top+len(*b) : s.top+c]
	copy(w, *b)
	s.top += c
	*b, s.windows[i] = w, w[:0]
}

// skip returns how many empty buckets lie between bucket i and the next
// occupied one, going round; some bucket must be occupied.
func (s *dialState) skip(i, mask uint32) uint32 {
	d := uint32(0)
	for {
		if w := s.occ[i>>6] >> (i & 63); w != 0 {
			return d + uint32(bits.TrailingZeros64(w))
		}
		d += 64 - i&63
		i = (i + 64 - i&63) & mask
	}
}

// solveRow runs one source over the Dial queue: bucket d&mask holds the
// vertices pushed with tentative distance d, all live keys lie in
// [cur, cur+maxW], and deletion is lazy — a vertex is pushed again on
// every strict decrease, and an entry whose key is no longer its vertex's
// distance is skipped when its bucket is read. A zero-weight arc appends
// to the bucket being read, which is why the read loop re-reads the
// bucket's length. Integer sums below 2^53 are exact in float64, so the
// row equals the radix path's bit for bit.
func (s *dialState) solveRow(e *Engine, src int, row []float64) int {
	dist, buckets, occ := s.dist, s.buckets, s.occ
	rowPtr, arcs, mask := e.rowPtr, e.dial.arcs, e.dial.mask
	clear(s.windows)
	s.top = 0
	dist[src] = 0
	s.grow(0)
	buckets[0] = append(buckets[0], uint32(src))
	queued := 1
	for cur := uint32(0); queued > 0; {
		cur += s.skip(cur&mask, mask)
		b := &buckets[cur&mask]
		for j := 0; j < len(*b); j++ {
			v := (*b)[j]
			if dist[v] != cur {
				continue
			}
			for _, a := range arcs[rowPtr[v]:rowPtr[v+1]] {
				to := uint32(a >> arcWeightBits)
				if nd := cur + uint32(a&(1<<arcWeightBits-1)); nd < dist[to] {
					dist[to] = nd
					nb := &buckets[nd&mask]
					if len(*nb) == cap(*nb) {
						s.grow(nd & mask)
					}
					*nb = append(*nb, to)
					queued++
				}
			}
		}
		queued -= len(*b)
		*b = nil
		occ[(cur&mask)>>6] &^= 1 << (cur & 63)
	}
	settled := 0
	row = row[:len(dist)]
	for v, d := range dist {
		if d == unreached {
			row[v] = matrix.Inf
			continue
		}
		row[v] = float64(d)
		dist[v] = unreached
		settled++
	}
	return settled
}
