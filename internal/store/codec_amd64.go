//go:build amd64 && !purego

package store

import "apspark/internal/matrix"

// haveWordSteps: the ivarint word steps exist only as AVX2 assembly
// (codec_amd64.s), so they run where internal/matrix runs its own kernels
// (the one CPU check).
var haveWordSteps = matrix.HasAVX2()

// Eight cells at a time, one-byte tokens only (codec_amd64.s): the
// encoder's word step over uint32 cells step apart and over contiguous
// float64 cells, and the decoder's into uint32 cells, run of them at a
// time gap apart. Each returns how many words of eight it took.
//
//go:noescape
func encodeWords32(dst []byte, cells []uint32, step int, prev uint32) int

//go:noescape
func encodeWords64(dst []byte, cells []float64, prev uint32) int

//go:noescape
func decodeWords32(dst []uint32, src []byte, prev uint32, words, run, gap int) int
