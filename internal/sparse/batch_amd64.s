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

// func markLoose32(d unsafe.Pointer, rowPtr, upper []int32, arcs []arc, loose []uint64)
// func markLoose16(d unsafe.Pointer, rowPtr, upper []int32, arcs []arc, loose []uint64)
//
// The mark pass over a batch's lanes at its fixpoint (markLoose, batch.go):
// for every vertex u and every arc p = (u, v, w) with v > u — arcs
// upper[u] to rowPtr[u+1]-1, u's list being sorted by neighbour, walked
// down — it sets bit p of loose when some lane j has min(d_j[u], 255) +
// min(d_j[v], 255) < w. The clamp is Y15, the same 0xFF per lane that
// masks an arc's weight: it keeps every sum below 511, so the add never
// wraps, the compare can be the signed VPCMPGT, and an unreached lane (or
// a saturated uint16 one) is 255, which no weight exceeds. The sums of
// the two registers are folded lane for lane by their minimum, and w >
// sum in any lane is a loose arc; a zero weight never is.
//
// No branch depends on the outcome: NEG of the compare's byte mask sets
// the carry when the arc is loose and ADC shifts it into R11, so walking
// down from arc p, bit i of R11 is arc p+i. R11 goes to loose at the
// bottom of each 64-arc word and at the end of the vertex (shifted to
// the first arc it holds), as a LOCK OR of the bits the word does not
// hold yet — workers mark at once — and not at all when there are none.
// The two functions are one body, MARK, at two lane widths, as SWEEP is.
//
// DI = d, R9 = rowPtr, BX = upper, R10 = arcs, SI = loose, R13 = n, R14 =
// u, AX = u's first arc above it, CX = the arc cursor, R11 = the marks
// gathered; Y0:Y1 = d[u] clamped, Y4 = w in every lane, Y5:Y6 = the sums.
#define MARK(BROADCAST, ADD, MIN, CMPGT) \
	XORQ R14, R14; \
vertex: \
	CMPQ R14, R13; \
	JGE  marked; \
	MOVLQSX (BX)(R14*4), AX; \
	MOVLQSX 4(R9)(R14*4), CX; \
	MOVQ R14, DX; \
	SHLQ $6, DX; \
	MIN (DI)(DX*1), Y15, Y0; \
	MIN 32(DI)(DX*1), Y15, Y1; \
	XORL R11, R11; \
arc: \
	DECQ CX; \
	CMPQ CX, AX; \
	JLT  lastword; \
	MOVL (R10)(CX*4), R8; \
	SHRL $8, R8; \
	BROADCAST (R10)(CX*4), Y4; \
	SHLQ $6, R8; \
	VPAND Y15, Y4, Y4; \
	MIN (DI)(R8*1), Y15, Y5; \
	MIN 32(DI)(R8*1), Y15, Y6; \
	ADD Y0, Y5, Y5; \
	ADD Y1, Y6, Y6; \
	MIN Y5, Y6, Y5; \
	CMPGT Y5, Y4, Y6; \
	VPMOVMSKB Y6, R12; \
	NEGL R12; \
	ADCQ R11, R11; \
	TESTQ $63, CX; \
	JNZ  arc; \
	MOVQ CX, R8; \
	SHRQ $6, R8; \
	TESTQ R11, R11; \
	JZ   arc; \
	MOVQ (SI)(R8*8), R12; \
	NOTQ R12; \
	ANDQ R12, R11; \
	JZ   arc; \
	LOCK; \
	ORQ  R11, (SI)(R8*8); \
	XORL R11, R11; \
	JMP  arc; \
lastword: \
	INCQ R14; \
	TESTQ R11, R11; \
	JZ   vertex; \
	INCQ CX; \
	SHLQ CX, R11; \
	MOVQ CX, R8; \
	SHRQ $6, R8; \
	MOVQ (SI)(R8*8), R12; \
	NOTQ R12; \
	ANDQ R12, R11; \
	JZ   vertex; \
	LOCK; \
	ORQ  R11, (SI)(R8*8); \
	JMP  vertex; \
marked: \
	VZEROUPPER

TEXT ·markLoose32(SB), NOSPLIT, $0-104
	MOVQ d+0(FP), DI
	MOVQ rowPtr_base+8(FP), R9
	MOVQ rowPtr_len+16(FP), R13
	DECQ R13
	MOVQ upper_base+32(FP), BX
	MOVQ arcs_base+56(FP), R10
	MOVQ loose_base+80(FP), SI
	VPCMPEQD Y15, Y15, Y15
	VPSRLD $24, Y15, Y15
	MARK(VPBROADCASTD, VPADDD, VPMINUD, VPCMPGTD)
	RET

TEXT ·markLoose16(SB), NOSPLIT, $0-104
	MOVQ d+0(FP), DI
	MOVQ rowPtr_base+8(FP), R9
	MOVQ rowPtr_len+16(FP), R13
	DECQ R13
	MOVQ upper_base+32(FP), BX
	MOVQ arcs_base+56(FP), R10
	MOVQ loose_base+80(FP), SI
	VPCMPEQW Y15, Y15, Y15
	VPSRLW $8, Y15, Y15
	MARK(VPBROADCASTW, VPADDW, VPMINUW, VPCMPGTW)
	RET

// func seedLanes32(d []uint32, src []uint32) (reached int, ok bool)
// func seedLanes16(d []uint16, src []uint32) (reached int, ok bool)
//
// seedLanes' vector step (batch.go): 16 seeds a step, len(src)/16 steps,
// into d, which holds as many lanes. A seed is taken when it is below the
// lanes' exactBelow (VPMINUD with exactBelow-1 leaves it as it is) or is
// matrix.NoPath32, which becomes the unreached lane (VPBLENDVB); the
// first step with a seed of neither kind stores nothing and returns false.
// The two functions are one body, SEED, and differ in the lane constants
// and the store: 16 uint32 lanes as they are, or packed to uint16 lanes
// (VPACKUSDW, which saturates but meets nothing above 0xFFFF here, then
// VPERMQ to undo its lane interleave).
//
// DI = d, SI = src, CX = seeds, then steps left, AX = reached; Y13 = all ones
// (NoPath32), Y14 = the unreached lane, Y15 = exactBelow-1.
#define SEED \
	VMOVDQU (SI), Y0; \
	VMOVDQU 32(SI), Y1; \
	VPCMPEQD Y13, Y0, Y2; \
	VPCMPEQD Y13, Y1, Y3; \
	VPMINUD Y15, Y0, Y4; \
	VPCMPEQD Y4, Y0, Y4; \
	VPMINUD Y15, Y1, Y5; \
	VPCMPEQD Y5, Y1, Y5; \
	VPOR Y2, Y4, Y4; \
	VPOR Y3, Y5, Y5; \
	VPAND Y4, Y5, Y4; \
	VMOVMSKPS Y4, R8; \
	CMPL R8, $0xFF; \
	JNE  refused; \
	VPBLENDVB Y2, Y14, Y0, Y0; \
	VPBLENDVB Y3, Y14, Y1, Y1; \
	VMOVMSKPS Y2, R8; \
	VMOVMSKPS Y3, R9; \
	SHLL $8, R9; \
	ORL  R9, R8; \
	POPCNTL R8, R8; \
	ADDQ $16, AX; \
	SUBQ R8, AX; \
	ADDQ $64, SI

#define SEED_SETUP(INF, TOP) \
	SHRQ $4, CX; \
	XORQ AX, AX; \
	VPCMPEQD Y13, Y13, Y13; \
	MOVL INF, R8; \
	VMOVD R8, X14; \
	VPBROADCASTD X14, Y14; \
	MOVL TOP, R8; \
	VMOVD R8, X15; \
	VPBROADCASTD X15, Y15

TEXT ·seedLanes32(SB), NOSPLIT, $0-57
	MOVQ d_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), CX
	SEED_SETUP($0xFFFFFF00, $0xFFFFFEFF)
	TESTQ CX, CX
	JZ   seeded
seed32:
	SEED
	VMOVDQU Y0, (DI)
	VMOVDQU Y1, 32(DI)
	ADDQ $64, DI
	DECQ CX
	JNZ  seed32
seeded:
	VZEROUPPER
	MOVQ AX, reached+48(FP)
	MOVB $1, ok+56(FP)
	RET
refused:
	VZEROUPPER
	MOVQ $0, reached+48(FP)
	MOVB $0, ok+56(FP)
	RET

TEXT ·seedLanes16(SB), NOSPLIT, $0-57
	MOVQ d_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), CX
	SEED_SETUP($0xFFFF, $0xFEFF)
	TESTQ CX, CX
	JZ   seeded
seed16:
	SEED
	VPACKUSDW Y1, Y0, Y0
	VPERMQ $0xD8, Y0, Y0
	VMOVDQU Y0, (DI)
	ADDQ $32, DI
	DECQ CX
	JNZ  seed16
seeded:
	VZEROUPPER
	MOVQ AX, reached+48(FP)
	MOVB $1, ok+56(FP)
	RET
refused:
	VZEROUPPER
	MOVQ $0, reached+48(FP)
	MOVB $0, ok+56(FP)
	RET

DATA emitLines<>+0x00(SB)/8, $0x0000004000000000
DATA emitLines<>+0x08(SB)/8, $0x000000C000000080
DATA emitLines<>+0x10(SB)/8, $0x0000014000000100
DATA emitLines<>+0x18(SB)/8, $0x000001C000000180
GLOBL emitLines<>(SB), RODATA|NOPTR, $32

// func emitLanes(row []uint32, line unsafe.Pointer, shift uint64, mask, inf uint32) (reached int, top uint32)
//
// emitLane's vector step (batch.go) for uint32 cells, at either lane
// width: row[i] for i < len(row)/8*8 is lane j of vertex line i, which
// starts 64*i bytes past line. The four bytes at each line's offset are
// gathered eight lines at a time (VPGATHERDD), shifted right by shift and
// masked to the lane: a uint32 lane is the dword itself (shift 0, mask all
// ones), a uint16 lane half of the aligned dword that holds it (the caller
// steps line back to it and shifts the high half down), so no read leaves
// the line. A lane equal to inf becomes matrix.NoPath32 (all ones, an OR
// with the compare); the others are the distances, their maximum is top
// (VPMAXUD over them, the unreached ones zeroed) and their number reached
// (VMOVMSKPS and POPCNT count the unreached).
//
// DI = row, SI = the next eight lines, CX = steps left, AX = unreached;
// X8 = shift, Y9 = mask, Y10 = inf, Y11 = the lines' offsets, Y12 = all
// ones, Y7 = the running maximum.
TEXT ·emitLanes(SB), NOSPLIT, $0-60
	MOVQ row_base+0(FP), DI
	MOVQ row_len+8(FP), CX
	MOVQ line+24(FP), SI
	MOVQ shift+32(FP), R8
	MOVL mask+40(FP), R9
	MOVL inf+44(FP), R10
	SHRQ $3, CX
	MOVQ CX, R11
	SHLQ $3, R11
	XORQ AX, AX
	VMOVQ R8, X8
	VMOVD R9, X9
	VPBROADCASTD X9, Y9
	VMOVD R10, X10
	VPBROADCASTD X10, Y10
	VMOVDQU emitLines<>(SB), Y11
	VPCMPEQD Y12, Y12, Y12
	VPXOR Y7, Y7, Y7
	TESTQ CX, CX
	JZ   emitted
emit:
	VMOVDQA Y12, Y1
	VPGATHERDD Y1, (SI)(Y11*1), Y0
	VPSRLD X8, Y0, Y0
	VPAND Y9, Y0, Y0
	VPCMPEQD Y10, Y0, Y2
	VPANDN Y0, Y2, Y3
	VPMAXUD Y3, Y7, Y7
	VPOR Y2, Y0, Y0
	VMOVDQU Y0, (DI)
	VMOVMSKPS Y2, R8
	POPCNTL R8, R8
	ADDQ R8, AX
	ADDQ $512, SI
	ADDQ $32, DI
	DECQ CX
	JNZ  emit
emitted:
	VEXTRACTI128 $1, Y7, X6
	VPMAXUD X6, X7, X7
	VPSHUFD $0x4E, X7, X6
	VPMAXUD X6, X7, X7
	VPSHUFD $0xB1, X7, X6
	VPMAXUD X6, X7, X7
	VMOVD X7, R9
	VZEROUPPER
	SUBQ AX, R11
	MOVQ R11, reached+48(FP)
	MOVL R9, top+56(FP)
	RET
