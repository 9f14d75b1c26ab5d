//go:build amd64 && !purego

package sparse

import "apspark/internal/matrix"

// haveBatchKernel: the batched sweep exists only as AVX2 assembly, so it
// runs where internal/matrix runs its own (the one CPU check).
var haveBatchKernel = matrix.HasAVX2()

//go:noescape
func batchSweepAVX2(d *uint32, dirty []byte, rowPtr []int32, arcs []arc) int
