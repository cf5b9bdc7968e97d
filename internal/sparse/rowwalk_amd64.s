//go:build !purego && !race

#include "textflag.h"

// func rowWalk2(dst []float64, ends []int, k int, val []float64, col []int, x []float64) (next int, ok bool)
//
// The CSR row walk of rowWalkGo, two rows per pass: rows i and i+1 run as two
// independent add chains X0 and X1, each summed from +0 in stored order with
// a scalar MULSD then ADDSD (no FMA, no reassociation). Row i+1 starts at
// max(cursor, ends[i]) and the pair ends the cursor at max(that, ends[i+1]),
// exactly where the Go loop's cursor would be. len(ends) is even and
// positive, len(dst) ≥ len(ends), k ≥ 0 and len(col) ≥ len(val).
//
// Checks: a pair that reads any entry needs its end cursor ≤ len(val), and
// every column index must be below len(x) (unsigned, so a negative one fails
// too). On a failed check it returns ok = false with dst partly written; the
// caller reruns the Go loop, which panics where it would have.
//
// Registers: DI dst cursor, R12 ends cursor, R13 ends end, SI val, DX col,
// R8 x, R9 len(x), AX row i's cursor, BX row i's end, CX row i+1's cursor,
// R10 row i+1's end, R11 the end of the paired stretch, R15 a column index.
TEXT ·rowWalk2(SB), NOSPLIT, $0-137
	MOVQ dst_base+0(FP), DI
	MOVQ ends_base+24(FP), R12
	MOVQ ends_len+32(FP), R13
	LEAQ (R12)(R13*8), R13
	MOVQ k+48(FP), AX
	MOVQ val_base+56(FP), SI
	MOVQ col_base+80(FP), DX
	MOVQ x_base+104(FP), R8
	MOVQ x_len+112(FP), R9

pair:
	XORPS X0, X0
	XORPS X1, X1
	// BX = max(ends[i], AX), CX = BX, R10 = max(ends[i+1], BX).
	MOVQ    0(R12), BX
	CMPQ    BX, AX
	CMOVQLT AX, BX
	MOVQ    8(R12), R10
	CMPQ    R10, BX
	CMOVQLT BX, R10
	CMPQ    R10, val_len+64(FP)
	JHI     fail
	MOVQ    BX, CX
	// R11 = AX + min(BX−AX, R10−CX): both rows have entries up to there.
	MOVQ    BX, R11
	SUBQ    AX, R11
	MOVQ    R10, R15
	SUBQ    CX, R15
	CMPQ    R15, R11
	CMOVQLT R15, R11
	ADDQ    AX, R11
	CMPQ    AX, R11
	JGE     tail0

both:
	MOVQ  (DX)(AX*8), R15
	CMPQ  R15, R9
	JCC   fail
	MOVSD (SI)(AX*8), X2
	MULSD (R8)(R15*8), X2
	ADDSD X2, X0
	MOVQ  (DX)(CX*8), R15
	CMPQ  R15, R9
	JCC   fail
	MOVSD (SI)(CX*8), X3
	MULSD (R8)(R15*8), X3
	ADDSD X3, X1
	INCQ  AX
	INCQ  CX
	CMPQ  AX, R11
	JLT   both

tail0:
	CMPQ AX, BX
	JGE  tail1

rest0:
	MOVQ  (DX)(AX*8), R15
	CMPQ  R15, R9
	JCC   fail
	MOVSD (SI)(AX*8), X2
	MULSD (R8)(R15*8), X2
	ADDSD X2, X0
	INCQ  AX
	CMPQ  AX, BX
	JLT   rest0

tail1:
	CMPQ CX, R10
	JGE  store

rest1:
	MOVQ  (DX)(CX*8), R15
	CMPQ  R15, R9
	JCC   fail
	MOVSD (SI)(CX*8), X3
	MULSD (R8)(R15*8), X3
	ADDSD X3, X1
	INCQ  CX
	CMPQ  CX, R10
	JLT   rest1

store:
	MOVSD X0, 0(DI)
	MOVSD X1, 8(DI)
	ADDQ  $16, DI
	ADDQ  $16, R12
	MOVQ  R10, AX
	CMPQ  R12, R13
	JCS   pair
	MOVQ  AX, next+128(FP)
	MOVB  $1, ok+136(FP)
	RET

fail:
	MOVQ $0, next+128(FP)
	MOVB $0, ok+136(FP)
	RET

// func rowWalk2x2(d0, d1 []float64, ends []int, k int, val []float64, col []int, x0, x1 []float64) (next int, ok bool)
//
// rowWalk2 on two columns at once, the walk of mulRows2: each stored entry
// is multiplied into column 0's and column 1's sum of its row, so two rows per
// pass run four independent add chains (X0, X1 for row i; X2, X3 for row
// i+1). Same contract and checks as rowWalk2; len(x1) ≥ len(x0) and the
// column check is against len(x0).
//
// Registers as in rowWalk2, except: DI is the byte offset of row i in d0 and
// d1, whose bases are reloaded from the frame at each store, R8 and R14 are
// x0 and x1.
TEXT ·rowWalk2x2(SB), NOSPLIT, $0-185
	XORQ DI, DI
	MOVQ ends_base+48(FP), R12
	MOVQ ends_len+56(FP), R13
	LEAQ (R12)(R13*8), R13
	MOVQ k+72(FP), AX
	MOVQ val_base+80(FP), SI
	MOVQ col_base+104(FP), DX
	MOVQ x0_base+128(FP), R8
	MOVQ x0_len+136(FP), R9
	MOVQ x1_base+152(FP), R14

pair2:
	XORPS   X0, X0
	XORPS   X1, X1
	XORPS   X2, X2
	XORPS   X3, X3
	MOVQ    0(R12), BX
	CMPQ    BX, AX
	CMOVQLT AX, BX
	MOVQ    8(R12), R10
	CMPQ    R10, BX
	CMOVQLT BX, R10
	CMPQ    R10, val_len+88(FP)
	JHI     fail2
	MOVQ    BX, CX
	MOVQ    BX, R11
	SUBQ    AX, R11
	MOVQ    R10, R15
	SUBQ    CX, R15
	CMPQ    R15, R11
	CMOVQLT R15, R11
	ADDQ    AX, R11
	CMPQ    AX, R11
	JGE     tail02

both2:
	MOVQ  (DX)(AX*8), R15
	CMPQ  R15, R9
	JCC   fail2
	MOVSD (SI)(AX*8), X4
	MULSD (R8)(R15*8), X4
	ADDSD X4, X0
	MOVSD (SI)(AX*8), X5
	MULSD (R14)(R15*8), X5
	ADDSD X5, X1
	MOVQ  (DX)(CX*8), R15
	CMPQ  R15, R9
	JCC   fail2
	MOVSD (SI)(CX*8), X6
	MULSD (R8)(R15*8), X6
	ADDSD X6, X2
	MOVSD (SI)(CX*8), X7
	MULSD (R14)(R15*8), X7
	ADDSD X7, X3
	INCQ  AX
	INCQ  CX
	CMPQ  AX, R11
	JLT   both2

tail02:
	CMPQ AX, BX
	JGE  tail12

rest02:
	MOVQ  (DX)(AX*8), R15
	CMPQ  R15, R9
	JCC   fail2
	MOVSD (SI)(AX*8), X4
	MULSD (R8)(R15*8), X4
	ADDSD X4, X0
	MOVSD (SI)(AX*8), X5
	MULSD (R14)(R15*8), X5
	ADDSD X5, X1
	INCQ  AX
	CMPQ  AX, BX
	JLT   rest02

tail12:
	CMPQ CX, R10
	JGE  store2

rest12:
	MOVQ  (DX)(CX*8), R15
	CMPQ  R15, R9
	JCC   fail2
	MOVSD (SI)(CX*8), X6
	MULSD (R8)(R15*8), X6
	ADDSD X6, X2
	MOVSD (SI)(CX*8), X7
	MULSD (R14)(R15*8), X7
	ADDSD X7, X3
	INCQ  CX
	CMPQ  CX, R10
	JLT   rest12

store2:
	MOVQ  d0_base+0(FP), R15
	MOVSD X0, 0(R15)(DI*1)
	MOVSD X2, 8(R15)(DI*1)
	MOVQ  d1_base+24(FP), R15
	MOVSD X1, 0(R15)(DI*1)
	MOVSD X3, 8(R15)(DI*1)
	ADDQ  $16, DI
	ADDQ  $16, R12
	MOVQ  R10, AX
	CMPQ  R12, R13
	JCS   pair2
	MOVQ  AX, next+176(FP)
	MOVB  $1, ok+184(FP)
	RET

fail2:
	MOVQ $0, next+176(FP)
	MOVB $0, ok+184(FP)
	RET
