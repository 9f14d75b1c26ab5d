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

func markLoose32(d unsafe.Pointer, rowPtr, upper []int32, arcs []arc, loose []uint64) {
	panic("sparse: the batched kernel is not part of this build")
}

func markLoose16(d unsafe.Pointer, rowPtr, upper []int32, arcs []arc, loose []uint64) {
	panic("sparse: the batched kernel is not part of this build")
}

func seedLanes32(d []uint32, src []uint32) (reached int, ok bool) {
	panic("sparse: the batched kernel is not part of this build")
}

func seedLanes16(d []uint16, src []uint32) (reached int, ok bool) {
	panic("sparse: the batched kernel is not part of this build")
}

func emitLanes(row []uint32, line unsafe.Pointer, shift uint64, mask, inf uint32) (reached int, top uint32) {
	panic("sparse: the batched kernel is not part of this build")
}
