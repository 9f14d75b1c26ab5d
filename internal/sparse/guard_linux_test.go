//go:build linux

package sparse

import (
	"syscall"
	"testing"
	"unsafe"
)

// guardedLines returns n lines of lanes, 64-byte aligned, with a page the
// process may not read right after them (atEnd) or right before them, so
// that a read past either end of what they hold faults.
func guardedLines[T lane](t *testing.T, n int, atEnd bool) []T {
	t.Helper()
	page, size := syscall.Getpagesize(), n*64
	pages := (size + page - 1) / page
	mem, err := syscall.Mmap(-1, 0, (pages+2)*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { syscall.Munmap(mem) })
	if err := syscall.Mprotect(mem[:page], syscall.PROT_NONE); err != nil {
		t.Fatal(err)
	}
	if err := syscall.Mprotect(mem[(pages+1)*page:], syscall.PROT_NONE); err != nil {
		t.Fatal(err)
	}
	lines := mem[page : page+size]
	if atEnd {
		lines = mem[(pages+1)*page-size : (pages+1)*page]
	}
	return unsafe.Slice((*T)(unsafe.Pointer(unsafe.SliceData(lines))), size/int(unsafe.Sizeof(T(0))))
}
