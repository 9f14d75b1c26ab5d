//go:build !linux

package sparse

import "testing"

// guardedLines returns n lines of lanes, 64-byte aligned. Only the Linux
// build puts pages the process may not read around them.
func guardedLines[T lane](t *testing.T, n int, atEnd bool) []T {
	return newBatchState[T](n).d
}
