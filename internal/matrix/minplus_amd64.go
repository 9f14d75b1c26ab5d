//go:build amd64 && !purego

package matrix

//go:noescape
func minPlusRowAVX2(d, a, b []float64, ldb int)

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv0() (eax, edx uint32)

// useAVX2 is decided once at init: the CPU must implement AVX2 and the OS
// must save ymm state across context switches (OSXSAVE set and XCR0 bits 1
// and 2 — SSE and AVX state — both enabled).
var useAVX2 = func() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv0(); xcr0&6 != 6 {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}()

func minPlusRow(d, a, b []float64, ldb int) {
	if !useAVX2 {
		minPlusRowGeneric(d, a, b, ldb)
		return
	}
	if len(d) == 0 || len(a) == 0 {
		return
	}
	_ = b[(len(a)-1)*ldb+len(d)-1] // the assembly does no bounds checks
	minPlusRowAVX2(d, a, b, ldb)
}
