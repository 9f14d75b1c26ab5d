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
