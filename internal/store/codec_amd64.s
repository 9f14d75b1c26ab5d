//go:build amd64 && !purego

#include "textflag.h"

// The ivarint word steps (codec.go): eight cells and eight one-byte
// tokens at a time, in front of the scalar loops, which remain the one
// body for everything else — escapes, longer tokens, values the step does
// not take, the last few cells of a run — and on every other platform.
// Each step stops, storing nothing of it, at the first word it does not
// take and returns how many words it took; the scalar loop goes on from
// there with the same predecessor.
//
// Encoder. A token is the zigzag of the delta from the cell before, plus
// one. The cells before a word's eight are the word rotated by one lane
// (VPERMD by 7,0,1,…,6), lane 0 taken from the word before (VPBLENDD):
// that rotation's lane 0 is the word's last cell. A word is taken when
// every cell is below 2^31 (VPSRAD $31 is 0: this catches NoPath32 too)
// and every token below 128 (VPSRLD $7 is 0); the caller starts it from a
// predecessor below 2^31, so every delta is exact in 32 bits. The low
// byte of each token is packed with VPSHUFB and VPERMD and stored with
// VMOVQ: a legacy-SSE MOVQ among these AVX2 instructions, with the upper
// halves of the registers in use, pays an SSE/AVX transition on every
// word. Contiguous cells are loaded whole;
// the columns of a tile in lane order, step cells apart, are gathered
// (VPGATHERDD). float64 cells take the same body once each is shown to be
// a non-negative integer below 2^31: its sign bit clear, and its
// truncation to int32 converting back to itself.
//
// Decoder. Each word of src must be eight one-byte tokens, none of them
// the escape (every byte in [1, 127], the oneByteWord test); they widen to
// dwords (VPMOVZXBD), lose the one and the zigzag, and their running sum
// is two in-lane shifted adds (VPSLLDQ) and one add of the low lane's total
// to the high lane. The caller starts it from a predecessor below 2^31,
// so each of the eight values is in [-512, 2^31 + 504), and its 32-bit
// sign bit is set exactly when it is outside [0, 2^31): a word is taken
// when no sign bit is (VMOVMSKPS). A value outside is left to the scalar
// loop, which takes or refuses it exactly.

// Lane rotation for the predecessors, token byte gather, and the dword
// pick that brings both lanes' four bytes together.
DATA ivarintRotate<>+0x00(SB)/8, $0x0000000000000007
DATA ivarintRotate<>+0x08(SB)/8, $0x0000000200000001
DATA ivarintRotate<>+0x10(SB)/8, $0x0000000400000003
DATA ivarintRotate<>+0x18(SB)/8, $0x0000000600000005
GLOBL ivarintRotate<>(SB), RODATA|NOPTR, $32

DATA ivarintLowBytes<>+0x00(SB)/8, $0x808080800C080400
DATA ivarintLowBytes<>+0x08(SB)/8, $0x8080808080808080
DATA ivarintLowBytes<>+0x10(SB)/8, $0x808080800C080400
DATA ivarintLowBytes<>+0x18(SB)/8, $0x8080808080808080
GLOBL ivarintLowBytes<>(SB), RODATA|NOPTR, $32

DATA ivarintPack<>+0x00(SB)/8, $0x0000000400000000
DATA ivarintPack<>+0x08(SB)/8, $0
DATA ivarintPack<>+0x10(SB)/8, $0
DATA ivarintPack<>+0x18(SB)/8, $0
GLOBL ivarintPack<>(SB), RODATA|NOPTR, $32

DATA ivarintLanes<>+0x00(SB)/8, $0x0000000100000000
DATA ivarintLanes<>+0x08(SB)/8, $0x0000000300000002
DATA ivarintLanes<>+0x10(SB)/8, $0x0000000500000004
DATA ivarintLanes<>+0x18(SB)/8, $0x0000000700000006
GLOBL ivarintLanes<>(SB), RODATA|NOPTR, $32

// DI = dst, CX = words left, AX = words taken; Y0 = the word's cells,
// Y10 = the cells before the last word rotated (lane 0: its last cell),
// Y12 = all ones, Y13/Y14/Y15 = ivarintPack/LowBytes/Rotate.
#define ENCODE_SETUP \
	XORQ AX, AX; \
	VMOVD R8, X10; \
	VPCMPEQD Y12, Y12, Y12; \
	VMOVDQU ivarintPack<>(SB), Y13; \
	VMOVDQU ivarintLowBytes<>(SB), Y14; \
	VMOVDQU ivarintRotate<>(SB), Y15

#define TOKENS \
	VPERMD Y0, Y15, Y2; \
	VPBLENDD $1, Y10, Y2, Y3; \
	VMOVDQA Y2, Y10; \
	VPSUBD Y3, Y0, Y4; \
	VPSLLD $1, Y4, Y5; \
	VPSRAD $31, Y4, Y4; \
	VPXOR Y4, Y5, Y5; \
	VPSUBD Y12, Y5, Y5; \
	VPSRLD $7, Y5, Y6; \
	VPSRAD $31, Y0, Y7; \
	VPOR Y6, Y7, Y6; \
	VPTEST Y6, Y6; \
	JNZ done; \
	VPSHUFB Y14, Y5, Y5; \
	VPERMD Y5, Y13, Y5; \
	VMOVQ X5, (DI); \
	ADDQ $8, DI; \
	INCQ AX; \
	DECQ CX

// func encodeWords32(dst []byte, cells []uint32, step int, prev uint32) int
//
// Takes up to len(dst)/8 words of cells[0], cells[step], …; the caller
// guarantees that many cells and prev < 2^31. SI = the next word's first
// cell, DX = step in bytes, R9 = a word's stride in bytes, Y11 = the
// gather's lane offsets in cells.
TEXT ·encodeWords32(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ cells_base+24(FP), SI
	MOVQ step+48(FP), DX
	MOVL prev+56(FP), R8
	SHRQ $3, CX
	ENCODE_SETUP
	VMOVD DX, X11
	VPBROADCASTD X11, Y11
	MOVQ DX, R9
	SHLQ $5, R9
	SHLQ $2, DX
	VPMULLD ivarintLanes<>(SB), Y11, Y11
word32:
	TESTQ CX, CX
	JZ   done
	CMPQ DX, $4
	JNE  gather
	VMOVDQU (SI), Y0
	JMP  loaded
gather:
	VMOVDQA Y12, Y1
	VPGATHERDD Y1, (SI)(Y11*4), Y0
loaded:
	TOKENS
	ADDQ R9, SI
	JMP  word32
done:
	VZEROUPPER
	MOVQ AX, ret+64(FP)
	RET

// func encodeWords64(dst []byte, cells []float64, prev uint32) int
//
// Takes up to len(dst)/8 words of contiguous cells; the caller guarantees
// that many cells and prev < 2^31.
TEXT ·encodeWords64(SB), NOSPLIT, $0-64
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ cells_base+24(FP), SI
	MOVL prev+48(FP), R8
	SHRQ $3, CX
	ENCODE_SETUP
word64:
	TESTQ CX, CX
	JZ   done
	VMOVUPD (SI), Y0
	VMOVUPD 32(SI), Y1
	VMOVMSKPD Y0, R10
	VMOVMSKPD Y1, R11
	ORL  R11, R10
	JNZ  done
	VCVTTPD2DQY Y0, X2
	VCVTTPD2DQY Y1, X3
	VCVTDQ2PD X2, Y4
	VCVTDQ2PD X3, Y5
	VCMPPD $0, Y4, Y0, Y4
	VCMPPD $0, Y5, Y1, Y5
	VANDPD Y5, Y4, Y4
	VMOVMSKPD Y4, R10
	CMPL R10, $15
	JNE  done
	VINSERTI128 $1, X3, Y2, Y0
	TOKENS
	ADDQ $64, SI
	JMP  word64
done:
	VZEROUPPER
	MOVQ AX, ret+56(FP)
	RET

// func decodeWords32(dst []uint32, src []byte, prev uint32, words, run, gap int) int
//
// Takes up to words words of src, at most len(src)/8, into dst: run cells
// (a multiple of 8) one after the other, then gap cells skipped, and so
// on — a row of a tile in lane order, its lane groups gap apart, or with
// gap 0 a run of contiguous cells. The caller guarantees dst holds every
// cell that addresses and prev < 2^31. R9/R10 = the oneByteWord
// constants, R13 = cells left in the current run, R14 = run, R15 = gap in
// bytes, Y9 = the predecessor in every lane, Y12 = all ones, Y14 = 7 in
// every lane (the last value, for VPERMD).
TEXT ·decodeWords32(SB), NOSPLIT, $0-88
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), DX
	MOVL prev+48(FP), R8
	MOVQ words+56(FP), CX
	MOVQ run+64(FP), R14
	MOVQ gap+72(FP), R15
	SHLQ $2, R15
	MOVQ R14, R13
	SHRQ $3, DX
	CMPQ DX, CX
	CMOVQLT DX, CX
	XORQ AX, AX
	MOVQ $0x0101010101010101, R9
	MOVQ $0x8080808080808080, R10
	VMOVD R8, X9
	VPBROADCASTD X9, Y9
	VPCMPEQD Y12, Y12, Y12
	MOVL $7, R8
	VMOVD R8, X14
	VPBROADCASTD X14, Y14
loop:
	CMPQ AX, CX
	JGE  out
	MOVQ (SI), R11
	MOVQ R11, R12
	SUBQ R9, R12
	ORQ  R11, R12
	TESTQ R10, R12
	JNZ  out
	VPMOVZXBD (SI), Y0
	VPADDD Y12, Y0, Y0
	VPSLLD $31, Y0, Y1
	VPSRAD $31, Y1, Y1
	VPSRLD $1, Y0, Y0
	VPXOR Y1, Y0, Y0
	VPSLLDQ $4, Y0, Y1
	VPADDD Y1, Y0, Y0
	VPSLLDQ $8, Y0, Y1
	VPADDD Y1, Y0, Y0
	VPSHUFD $0xFF, Y0, Y1
	VPERM2I128 $0x08, Y1, Y1, Y1
	VPADDD Y1, Y0, Y0
	VPADDD Y9, Y0, Y0
	VMOVMSKPS Y0, R12
	TESTL R12, R12
	JNZ  out
	VMOVDQU Y0, (DI)
	VPERMD Y0, Y14, Y9
	ADDQ $8, SI
	ADDQ $32, DI
	INCQ AX
	SUBQ $8, R13
	JNZ  loop
	ADDQ R15, DI
	MOVQ R14, R13
	JMP  loop
out:
	VZEROUPPER
	MOVQ AX, ret+80(FP)
	RET
