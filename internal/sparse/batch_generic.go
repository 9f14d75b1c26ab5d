//go:build !amd64 || purego

package sparse

import "unsafe"

const haveBatchKernel = false

func batchSweep32(d unsafe.Pointer, dirty []byte, rowPtr []int32, arcs []arc, start int) int {
	panic("sparse: the batched kernel is not part of this build")
}

func batchSweep16(d unsafe.Pointer, dirty []byte, rowPtr []int32, arcs []arc, start int) int {
	panic("sparse: the batched kernel is not part of this build")
}
