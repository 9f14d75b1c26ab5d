//go:build amd64 && !purego

#include "textflag.h"

// func batchSweep32(d unsafe.Pointer, dirty []byte, rowPtr []int32, arcs []arc, start int) int
// func batchSweep16(d unsafe.Pointer, dirty []byte, rowPtr []int32, arcs []arc, start int) int
//
// One Gauss–Seidel sweep of the batched kernel (batch.go): every vertex
// from start on whose dirty byte is set when the sweep reaches it, in
// index order, is visited once — clear the byte, fold d[to]+w over the
// vertex's arcs into its 64-byte line of lanes, and if any lane fell,
// store them and set the dirty byte of every neighbour. A neighbour above
// the vertex is therefore visited later in this sweep, one below it in the
// next; one below start is marked and never visited (a seeded batch's
// lanes there are final, and batch.go clears those bytes after the batch).
// Returns the number of visits. Rows of d must be 32-byte aligned (they
// are 64), dirty bytes are 0 or 1, start is a multiple of 8 and len(dirty)
// a multiple of 32: the flags are scanned a word of eight at a time, after
// a vector test of each 32 once the scan is 32-aligned.
//
// The two functions are one body, SWEEP, at two lane widths. A line is 16
// uint32 lanes (batchSweep32) or 32 uint16 lanes (batchSweep16); either
// way it is 64 bytes in two registers, so the loads, the stores, the flag
// scan and every address are the same and only four instructions differ:
//
//	        broadcast w    d[to]+w      running min   lanes changed?
//	SWEEP32 VPBROADCASTD   VPADDD       VPMINUD       VPCMPEQD
//	SWEEP16 VPBROADCASTW   VPADDUSW     VPMINUW       VPCMPEQW
//
// An arc is to<<8|w, so its low half-word carries w in its low byte as its
// low word does, and one mask (0xFF per lane, built by the caller in Y15)
// strips the rest. The 32-bit add cannot wrap (unreached sits 255 below
// the top, batch.go); the 16-bit add saturates, which keeps 0xFFFF
// absorbing and is what batch.go's range check is about. Argument loads
// and the result store stay in each TEXT block, where go vet's asmdecl
// checks their frame offsets; it does not look inside a macro.
//
// DI = d, SI = dirty, R13 = len(dirty), R9 = rowPtr, R10 = arcs, R11 =
// first vertex of the current word of flags, R12 = visits, R14 = the
// vertex being visited; Y15 = 0xFF in every lane (an arc's weight byte).
// Per visit: AX = first arc, BX = end arc, CX = arc cursor, DX = &d[v],
// Y0:Y1 = the lanes as loaded, Y2:Y3 = the running minimum.
//
// Inside the body: 32 clean vertices are stepped over at once (VPTEST);
// BSFQ gives 8 * (index of the first set byte); a vertex without arcs has
// nothing to fold and nothing to mark; R8<<6 is the byte offset of d[to].
// After a visit the next dirty vertex is most often v+1 (every vertex is
// dirty in the early sweeps; a path or a grid in label order marks it each
// visit), and its own byte can be read straight after a store to it, which
// the word of eight cannot — hence the byte test at "visited" before the
// word's remaining flags are looked at ("above").
//
// The fold loop is 54 bytes and is aligned to start a 64-byte line
// (PCALIGN also raises the function's own alignment to 64): the linker
// places a function on a 32-byte boundary, and with the loop straddling two
// lines the whole sparse solve measured 5-10 % slower — an unrelated change
// elsewhere in the binary was enough to move it.
#define SWEEP(BROADCAST, ADD, MIN, CMPEQ) \
word: \
	CMPQ R11, R13; \
	JGE  done; \
	TESTQ $31, R11; \
	JNZ  flags8; \
	VMOVDQU (SI)(R11*1), Y4; \
	VPTEST Y4, Y4; \
	JNZ  flags8; \
	ADDQ $32, R11; \
	JMP  word; \
flags8: \
	MOVQ (SI)(R11*1), BX; \
	TESTQ BX, BX; \
	JZ   nextword; \
pick: \
	BSFQ BX, CX; \
	SHRQ $3, CX; \
	LEAQ (R11)(CX*1), R14; \
visit: \
	MOVB $0, (SI)(R14*1); \
	INCQ R12; \
	MOVLQSX (R9)(R14*4), AX; \
	MOVLQSX 4(R9)(R14*4), BX; \
	CMPQ AX, BX; \
	JGE  visited; \
	MOVQ R14, DX; \
	SHLQ $6, DX; \
	ADDQ DI, DX; \
	VMOVDQU (DX), Y0; \
	VMOVDQU 32(DX), Y1; \
	VMOVDQA Y0, Y2; \
	VMOVDQA Y1, Y3; \
	MOVQ AX, CX; \
	PCALIGN $64; \
fold: \
	MOVL (R10)(CX*4), R8; \
	BROADCAST (R10)(CX*4), Y4; \
	SHRL $8, R8; \
	SHLQ $6, R8; \
	VPAND Y15, Y4, Y4; \
	ADD (DI)(R8*1), Y4, Y5; \
	ADD 32(DI)(R8*1), Y4, Y6; \
	MIN Y5, Y2, Y2; \
	MIN Y6, Y3, Y3; \
	INCQ CX; \
	CMPQ CX, BX; \
	JLT  fold; \
	CMPEQ Y2, Y0, Y4; \
	CMPEQ Y3, Y1, Y5; \
	VPAND Y4, Y5, Y4; \
	VPMOVMSKB Y4, R8; \
	CMPL R8, $-1; \
	JEQ  visited; \
	VMOVDQU Y2, (DX); \
	VMOVDQU Y3, 32(DX); \
mark: \
	MOVL (R10)(AX*4), R8; \
	SHRL $8, R8; \
	MOVB $1, (SI)(R8*1); \
	INCQ AX; \
	CMPQ AX, BX; \
	JLT  mark; \
visited: \
	LEAQ 1(R14), DX; \
	TESTQ $7, DX; \
	JZ   nextword; \
	CMPB (SI)(DX*1), $0; \
	JEQ  above; \
	MOVQ DX, R14; \
	JMP  visit; \
above: \
	MOVQ DX, CX; \
	ANDQ $7, CX; \
	SHLQ $3, CX; \
	MOVQ $-256, BX; \
	SHLQ CX, BX; \
	ANDQ (SI)(R11*1), BX; \
	JNZ  pick; \
nextword: \
	ADDQ $8, R11; \
	JMP  word; \
done: \
	VZEROUPPER

TEXT ·batchSweep32(SB), NOSPLIT, $0-96
	MOVQ d+0(FP), DI
	MOVQ dirty_base+8(FP), SI
	MOVQ dirty_len+16(FP), R13
	MOVQ rowPtr_base+32(FP), R9
	MOVQ arcs_base+56(FP), R10
	MOVQ start+80(FP), R11
	XORQ R12, R12
	VPCMPEQD Y15, Y15, Y15
	VPSRLD $24, Y15, Y15
	SWEEP(VPBROADCASTD, VPADDD, VPMINUD, VPCMPEQD)
	MOVQ R12, ret+88(FP)
	RET

TEXT ·batchSweep16(SB), NOSPLIT, $0-96
	MOVQ d+0(FP), DI
	MOVQ dirty_base+8(FP), SI
	MOVQ dirty_len+16(FP), R13
	MOVQ rowPtr_base+32(FP), R9
	MOVQ arcs_base+56(FP), R10
	MOVQ start+80(FP), R11
	XORQ R12, R12
	VPCMPEQW Y15, Y15, Y15
	VPSRLW $8, Y15, Y15
	SWEEP(VPBROADCASTW, VPADDUSW, VPMINUW, VPCMPEQW)
	MOVQ R12, ret+88(FP)
	RET
