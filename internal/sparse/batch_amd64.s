//go:build amd64 && !purego

#include "textflag.h"

// func batchSweepAVX2(d *uint32, dirty []byte, rowPtr []int32, arcs []arc) int
//
// One Gauss–Seidel sweep of the batched kernel (batch.go): every vertex
// whose dirty byte is set when the sweep reaches it, in index order, is
// visited once — clear the byte, fold d[to]+w over the vertex's arcs into
// its 16 lanes, and if any lane fell, store them and set the dirty byte of
// every neighbour. A neighbour above the vertex is therefore visited later
// in this sweep, one below it in the next. Returns the number of visits.
// Rows of d must be 32-byte aligned (they are 64), dirty bytes are 0 or 1
// and len(dirty) is a multiple of 32: the flags are scanned a word of
// eight at a time, after a vector test of each 32.
//
// DI = d, SI = dirty, R9 = rowPtr, R10 = arcs, R11 = first vertex of the
// current word of flags, R12 = visits, R14 = the vertex being visited;
// Y15 = 0xFF in every lane (an arc's weight byte).
// Per visit: AX = first arc, BX = end arc, CX = arc cursor, DX = &d[v],
// Y0:Y1 = the lanes as loaded, Y2:Y3 = the running minimum.
TEXT ·batchSweepAVX2(SB), NOSPLIT, $0-88
	MOVQ d+0(FP), DI
	MOVQ dirty_base+8(FP), SI
	MOVQ rowPtr_base+32(FP), R9
	MOVQ arcs_base+56(FP), R10
	XORQ R11, R11
	XORQ R12, R12
	VPCMPEQD Y15, Y15, Y15
	VPSRLD $24, Y15, Y15

word:
	CMPQ R11, dirty_len+16(FP)
	JGE  done
	TESTQ $31, R11
	JNZ  flags8
	VMOVDQU (SI)(R11*1), Y4     // 32 clean vertices are stepped over at once
	VPTEST Y4, Y4
	JNZ  flags8
	ADDQ $32, R11
	JMP  word

flags8:
	MOVQ (SI)(R11*1), BX
	TESTQ BX, BX
	JZ   nextword

pick:
	BSFQ BX, CX                 // 8 * (index of the first set byte)
	SHRQ $3, CX
	LEAQ (R11)(CX*1), R14

visit:
	MOVB $0, (SI)(R14*1)
	INCQ R12
	MOVLQSX (R9)(R14*4), AX
	MOVLQSX 4(R9)(R14*4), BX
	CMPQ AX, BX
	JGE  visited                // no arcs: nothing to fold, nothing to mark
	MOVQ R14, DX
	SHLQ $6, DX
	ADDQ DI, DX
	VMOVDQU (DX), Y0
	VMOVDQU 32(DX), Y1
	VMOVDQA Y0, Y2
	VMOVDQA Y1, Y3
	MOVQ AX, CX

fold:
	MOVL (R10)(CX*4), R8
	VPBROADCASTD (R10)(CX*4), Y4
	SHRL $8, R8
	SHLQ $6, R8                 // byte offset of d[to]
	VPAND Y15, Y4, Y4
	VPADDD (DI)(R8*1), Y4, Y5
	VPADDD 32(DI)(R8*1), Y4, Y6
	VPMINUD Y5, Y2, Y2
	VPMINUD Y6, Y3, Y3
	INCQ CX
	CMPQ CX, BX
	JLT  fold

	VPCMPEQD Y2, Y0, Y4
	VPCMPEQD Y3, Y1, Y5
	VPAND Y4, Y5, Y4
	VPMOVMSKB Y4, R8
	CMPL R8, $-1
	JEQ  visited                // every lane as it was
	VMOVDQU Y2, (DX)
	VMOVDQU Y3, 32(DX)

mark:
	MOVL (R10)(AX*4), R8
	SHRL $8, R8
	MOVB $1, (SI)(R8*1)
	INCQ AX
	CMPQ AX, BX
	JLT  mark

	// The next dirty vertex is most often v+1 (every vertex is dirty in the
	// early sweeps; a path or a grid in label order marks it each visit),
	// and its own byte can be read straight after a store to it, which the
	// word of eight cannot.
visited:
	LEAQ 1(R14), DX
	TESTQ $7, DX
	JZ   nextword
	CMPB (SI)(DX*1), $0
	JEQ  above
	MOVQ DX, R14
	JMP  visit

above:
	MOVQ DX, CX                 // v+1 is clean: the word's flags above it
	ANDQ $7, CX
	SHLQ $3, CX
	MOVQ $-256, BX
	SHLQ CX, BX
	ANDQ (SI)(R11*1), BX
	JNZ  pick

nextword:
	ADDQ $8, R11
	JMP  word

done:
	VZEROUPPER
	MOVQ R12, ret+80(FP)
	RET
