//go:build !amd64 || purego

package matrix

const useAVX2 = false

func minPlusRow(d, a, b []float64, ldb int) { minPlusRowGeneric(d, a, b, ldb) }
