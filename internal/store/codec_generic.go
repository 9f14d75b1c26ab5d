//go:build !amd64 || purego

package store

const haveWordSteps = false

func encodeWords32(dst []byte, cells []uint32, step int, prev uint32) int {
	panic("store: the ivarint word steps are not part of this build")
}

func encodeWords64(dst []byte, cells []float64, prev uint32) int {
	panic("store: the ivarint word steps are not part of this build")
}

func decodeWords32(dst []uint32, src []byte, prev uint32, words, run, gap int) int {
	panic("store: the ivarint word steps are not part of this build")
}
