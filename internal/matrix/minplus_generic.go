//go:build !amd64 || purego

package matrix

func kernelImpl() string { return "generic" }

func minPlusRow(d, a, b []float64, ldb int) { minPlusRowGeneric(d, a, b, ldb) }
