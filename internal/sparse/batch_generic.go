//go:build !amd64 || purego

package sparse

const haveBatchKernel = false

func batchSweepAVX2(d *uint32, dirty []byte, rowPtr []int32, arcs []arc) int {
	panic("sparse: the batched kernel is not part of this build")
}
