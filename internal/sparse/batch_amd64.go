//go:build amd64 && !purego

package sparse

import (
	"unsafe"

	"apspark/internal/matrix"
)

// haveBatchKernel: the batched sweep exists only as AVX2 assembly, so it
// runs where internal/matrix runs its own (the one CPU check).
var haveBatchKernel = matrix.HasAVX2()

// One sweep from vertex start over d as n lines of 16 uint32 lanes, and
// the same sweep over n lines of 32 uint16 lanes with a saturating add
// (batch_amd64.s).
//
//go:noescape
func batchSweep32(d unsafe.Pointer, dirty []byte, rowPtr []int32, arcs []arc, start int) int

//go:noescape
func batchSweep16(d unsafe.Pointer, dirty []byte, rowPtr []int32, arcs []arc, start int) int

// The mark pass over a fixpoint's lanes, uint32 and uint16 (batch_amd64.s):
// it sets the bit in loose of every arc (u, v), v > u — from upper[u] on
// in u's list — some clamped lane pair of which sums below the arc's
// weight (markLoose).
//
//go:noescape
func markLoose32(d unsafe.Pointer, rowPtr, upper []int32, arcs []arc, loose []uint64)

//go:noescape
func markLoose16(d unsafe.Pointer, rowPtr, upper []int32, arcs []arc, loose []uint64)

// The lane copies on either side of the sweeps for uint32 cells, eight or
// sixteen at a time (batch_amd64.s): seedLanes' into uint32 and uint16
// lanes, and emitLane's out of either.
//
//go:noescape
func seedLanes32(d []uint32, src []uint32) (reached int, ok bool)

//go:noescape
func seedLanes16(d []uint16, src []uint32) (reached int, ok bool)

//go:noescape
func emitLanes(row []uint32, line unsafe.Pointer, shift uint64, mask, inf uint32) (reached int, top uint32)
