//go:build amd64 && !purego

#include "textflag.h"

// func minPlusRowAVX2(d, a, b []float64, ldb int)
//
// d[j] = min(d[j], min_k a[k] + b[k*ldb+j]) for j in [0, len(d)), k in
// [0, len(a)). The Go wrapper guarantees len(d) > 0, len(a) > 0 and that b
// holds (len(a)-1)*ldb + len(d) elements.
//
// Columns are processed in chunks of 32 (8 ymm accumulators), then 4, then
// 1. Every chunk loads its d values once, runs the whole k loop with the
// accumulators in registers, and stores once — so when d is the b row
// itself (the in-place Floyd-Warshall pivot row, len(a) == 1) each element
// is read before it is written.
//
// DI = d cursor, CX = columns left, SI = a, DX = len(a), BX = b cursor
// (column-advanced with DI), R8 = ldb in bytes; R9/R10/R11 walk a, the b
// column strip and the k count inside a chunk.
TEXT ·minPlusRowAVX2(SB), NOSPLIT, $0-80
	MOVQ d_base+0(FP), DI
	MOVQ d_len+8(FP), CX
	MOVQ a_base+24(FP), SI
	MOVQ a_len+32(FP), DX
	MOVQ b_base+48(FP), BX
	MOVQ ldb+72(FP), R8
	SHLQ $3, R8

chunk32:
	CMPQ CX, $32
	JLT  chunk4
	VMOVUPD 0(DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	VMOVUPD 128(DI), Y4
	VMOVUPD 160(DI), Y5
	VMOVUPD 192(DI), Y6
	VMOVUPD 224(DI), Y7
	MOVQ SI, R9
	MOVQ BX, R10
	MOVQ DX, R11

k32:
	VBROADCASTSD (R9), Y8
	VADDPD 0(R10), Y8, Y9
	VADDPD 32(R10), Y8, Y10
	VADDPD 64(R10), Y8, Y11
	VADDPD 96(R10), Y8, Y12
	VMINPD Y9, Y0, Y0
	VMINPD Y10, Y1, Y1
	VMINPD Y11, Y2, Y2
	VMINPD Y12, Y3, Y3
	VADDPD 128(R10), Y8, Y9
	VADDPD 160(R10), Y8, Y10
	VADDPD 192(R10), Y8, Y11
	VADDPD 224(R10), Y8, Y12
	VMINPD Y9, Y4, Y4
	VMINPD Y10, Y5, Y5
	VMINPD Y11, Y6, Y6
	VMINPD Y12, Y7, Y7
	ADDQ $8, R9
	ADDQ R8, R10
	DECQ R11
	JNZ  k32

	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 128(DI)
	VMOVUPD Y5, 160(DI)
	VMOVUPD Y6, 192(DI)
	VMOVUPD Y7, 224(DI)
	ADDQ $256, DI
	ADDQ $256, BX
	SUBQ $32, CX
	JMP  chunk32

chunk4:
	CMPQ CX, $4
	JLT  chunk1
	VMOVUPD (DI), Y0
	MOVQ SI, R9
	MOVQ BX, R10
	MOVQ DX, R11

k4:
	VBROADCASTSD (R9), Y8
	VADDPD (R10), Y8, Y9
	VMINPD Y9, Y0, Y0
	ADDQ $8, R9
	ADDQ R8, R10
	DECQ R11
	JNZ  k4

	VMOVUPD Y0, (DI)
	ADDQ $32, DI
	ADDQ $32, BX
	SUBQ $4, CX
	JMP  chunk4

chunk1:
	TESTQ CX, CX
	JZ    done
	VMOVSD (DI), X0
	MOVQ SI, R9
	MOVQ BX, R10
	MOVQ DX, R11

k1:
	VMOVSD (R9), X8
	VADDSD (R10), X8, X9
	VMINSD X9, X0, X0
	ADDQ $8, R9
	ADDQ R8, R10
	DECQ R11
	JNZ  k1

	VMOVSD X0, (DI)
	ADDQ $8, DI
	ADDQ $8, BX
	DECQ CX
	JMP  chunk1

done:
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
