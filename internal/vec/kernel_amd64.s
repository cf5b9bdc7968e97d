//go:build !purego

#include "textflag.h"

// AVX2 twins of the Go reference kernels in kernel.go. Only VMULPD, VADDPD
// and VSUBPD do arithmetic: no FMA anywhere, so every product is rounded
// before it is added, exactly as the reference does. Operand order follows
// the reference expression (first source = left operand). n is a positive
// multiple of four; AX counts rows.

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func dotLanesAVX2(a, b *float64, n int, lanes *[4]float64)
// lanes[l] = Σ_{i ≡ l mod 4} a[i]·b[i], summed in index order from +0.
TEXT ·dotLanesAVX2(SB), NOSPLIT, $0-32
	MOVQ a+0(FP), SI
	MOVQ b+8(FP), DI
	MOVQ n+16(FP), CX
	MOVQ lanes+24(FP), DX
	VXORPD Y0, Y0, Y0
	XORQ AX, AX
dotloop:
	VMOVUPD (SI)(AX*8), Y1
	VMULPD (DI)(AX*8), Y1, Y1
	VADDPD Y1, Y0, Y0
	ADDQ $4, AX
	CMPQ AX, CX
	JLT dotloop
	VMOVUPD Y0, (DX)
	VZEROUPPER
	RET

// func gram2x4AVX2(x0, x1, y0, y1, y2, y3 *float64, n int, lanes *[32]float64)
// Eight accumulators Y0..Y7: Y(4i+j) holds the lanes of x_i·y_j. Six loads
// feed sixteen multiply-adds per four rows.
TEXT ·gram2x4AVX2(SB), NOSPLIT, $0-64
	MOVQ x0+0(FP), R8
	MOVQ x1+8(FP), R9
	MOVQ y0+16(FP), R10
	MOVQ y1+24(FP), R11
	MOVQ y2+32(FP), R12
	MOVQ y3+40(FP), R13
	MOVQ n+48(FP), CX
	MOVQ lanes+56(FP), DX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	XORQ AX, AX
gramloop:
	VMOVUPD (R8)(AX*8), Y8
	VMOVUPD (R9)(AX*8), Y9
	VMOVUPD (R10)(AX*8), Y10
	VMOVUPD (R11)(AX*8), Y11
	VMULPD Y10, Y8, Y12
	VMULPD Y10, Y9, Y13
	VMULPD Y11, Y8, Y14
	VMULPD Y11, Y9, Y15
	VADDPD Y12, Y0, Y0
	VADDPD Y13, Y4, Y4
	VADDPD Y14, Y1, Y1
	VADDPD Y15, Y5, Y5
	VMOVUPD (R12)(AX*8), Y10
	VMOVUPD (R13)(AX*8), Y11
	VMULPD Y10, Y8, Y12
	VMULPD Y10, Y9, Y13
	VMULPD Y11, Y8, Y14
	VMULPD Y11, Y9, Y15
	VADDPD Y12, Y2, Y2
	VADDPD Y13, Y6, Y6
	VADDPD Y14, Y3, Y3
	VADDPD Y15, Y7, Y7
	ADDQ $4, AX
	CMPQ AX, CX
	JLT gramloop
	VMOVUPD Y0, 0(DX)
	VMOVUPD Y1, 32(DX)
	VMOVUPD Y2, 64(DX)
	VMOVUPD Y3, 96(DX)
	VMOVUPD Y4, 128(DX)
	VMOVUPD Y5, 160(DX)
	VMOVUPD Y6, 192(DX)
	VMOVUPD Y7, 224(DX)
	VZEROUPPER
	RET

// func axpyAVX2(alpha float64, x, y *float64, n int)
// y[i] = y[i] + alpha·x[i]
TEXT ·axpyAVX2(SB), NOSPLIT, $0-32
	VBROADCASTSD alpha+0(FP), Y15
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DI
	MOVQ n+24(FP), CX
	XORQ AX, AX
axpyloop:
	VMULPD (SI)(AX*8), Y15, Y0
	VMOVUPD (DI)(AX*8), Y1
	VADDPD Y0, Y1, Y1
	VMOVUPD Y1, (DI)(AX*8)
	ADDQ $4, AX
	CMPQ AX, CX
	JLT axpyloop
	VZEROUPPER
	RET

// func xpayAVX2(dst, x *float64, alpha float64, y *float64, n int)
// dst[i] = x[i] + alpha·y[i]
TEXT ·xpayAVX2(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	VBROADCASTSD alpha+16(FP), Y15
	MOVQ y+24(FP), BX
	MOVQ n+32(FP), CX
	XORQ AX, AX
xpayloop:
	VMULPD (BX)(AX*8), Y15, Y0
	VMOVUPD (SI)(AX*8), Y1
	VADDPD Y0, Y1, Y1
	VMOVUPD Y1, (DI)(AX*8)
	ADDQ $4, AX
	CMPQ AX, CX
	JLT xpayloop
	VZEROUPPER
	RET

// func subAVX2(dst, a, b *float64, n int)
// dst[i] = a[i] − b[i]
TEXT ·subAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), BX
	MOVQ n+24(FP), CX
	XORQ AX, AX
subloop:
	VMOVUPD (SI)(AX*8), Y0
	VSUBPD (BX)(AX*8), Y0, Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ $4, AX
	CMPQ AX, CX
	JLT subloop
	VZEROUPPER
	RET

// func threeTermAVX2(dst *float64, rho float64, x *float64, gamma float64, y *float64, omr float64, w *float64, n int)
// dst[i] = rho·(x[i] − gamma·y[i]) + omr·w[i]
TEXT ·threeTermAVX2(SB), NOSPLIT, $0-64
	MOVQ dst+0(FP), DI
	VBROADCASTSD rho+8(FP), Y13
	MOVQ x+16(FP), SI
	VBROADCASTSD gamma+24(FP), Y14
	MOVQ y+32(FP), BX
	VBROADCASTSD omr+40(FP), Y15
	MOVQ w+48(FP), DX
	MOVQ n+56(FP), CX
	XORQ AX, AX
threetermloop:
	VMULPD (BX)(AX*8), Y14, Y0
	VMOVUPD (SI)(AX*8), Y1
	VSUBPD Y0, Y1, Y1
	VMULPD Y1, Y13, Y1
	VMULPD (DX)(AX*8), Y15, Y2
	VADDPD Y2, Y1, Y1
	VMOVUPD Y1, (DI)(AX*8)
	ADDQ $4, AX
	CMPQ AX, CX
	JLT threetermloop
	VZEROUPPER
	RET

// func combineInit2AVX2(d, x0, x1 *float64, c0, c1 float64, n int)
// d[r] = c0·x0[r] + c1·x1[r]
TEXT ·combineInit2AVX2(SB), NOSPLIT, $0-48
	MOVQ d+0(FP), DI
	MOVQ x0+8(FP), R8
	MOVQ x1+16(FP), R9
	VBROADCASTSD c0+24(FP), Y12
	VBROADCASTSD c1+32(FP), Y13
	MOVQ n+40(FP), CX
	XORQ AX, AX
init2loop:
	VMULPD (R8)(AX*8), Y12, Y0
	VMULPD (R9)(AX*8), Y13, Y1
	VADDPD Y1, Y0, Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ $4, AX
	CMPQ AX, CX
	JLT init2loop
	VZEROUPPER
	RET

// func combine2AVX2(d, x0, x1 *float64, c0, c1 float64, n int)
// d[r] = d[r] + (c0·x0[r] + c1·x1[r])
TEXT ·combine2AVX2(SB), NOSPLIT, $0-48
	MOVQ d+0(FP), DI
	MOVQ x0+8(FP), R8
	MOVQ x1+16(FP), R9
	VBROADCASTSD c0+24(FP), Y12
	VBROADCASTSD c1+32(FP), Y13
	MOVQ n+40(FP), CX
	XORQ AX, AX
combine2loop:
	VMULPD (R8)(AX*8), Y12, Y0
	VMULPD (R9)(AX*8), Y13, Y1
	VADDPD Y1, Y0, Y0
	VMOVUPD (DI)(AX*8), Y4
	VADDPD Y0, Y4, Y4
	VMOVUPD Y4, (DI)(AX*8)
	ADDQ $4, AX
	CMPQ AX, CX
	JLT combine2loop
	VZEROUPPER
	RET

// func combine3AVX2(d, x0, x1, x2 *float64, c0, c1, c2 float64, n int)
// d[r] = d[r] + ((c0·x0[r] + c1·x1[r]) + c2·x2[r])
TEXT ·combine3AVX2(SB), NOSPLIT, $0-64
	MOVQ d+0(FP), DI
	MOVQ x0+8(FP), R8
	MOVQ x1+16(FP), R9
	MOVQ x2+24(FP), R10
	VBROADCASTSD c0+32(FP), Y12
	VBROADCASTSD c1+40(FP), Y13
	VBROADCASTSD c2+48(FP), Y14
	MOVQ n+56(FP), CX
	XORQ AX, AX
combine3loop:
	VMULPD (R8)(AX*8), Y12, Y0
	VMULPD (R9)(AX*8), Y13, Y1
	VMULPD (R10)(AX*8), Y14, Y2
	VADDPD Y1, Y0, Y0
	VADDPD Y2, Y0, Y0
	VMOVUPD (DI)(AX*8), Y4
	VADDPD Y0, Y4, Y4
	VMOVUPD Y4, (DI)(AX*8)
	ADDQ $4, AX
	CMPQ AX, CX
	JLT combine3loop
	VZEROUPPER
	RET

// func combine4AVX2(d, x0, x1, x2, x3 *float64, c0, c1, c2, c3 float64, n int)
// d[r] = d[r] + (((c0·x0[r] + c1·x1[r]) + c2·x2[r]) + c3·x3[r])
TEXT ·combine4AVX2(SB), NOSPLIT, $0-80
	MOVQ d+0(FP), DI
	MOVQ x0+8(FP), R8
	MOVQ x1+16(FP), R9
	MOVQ x2+24(FP), R10
	MOVQ x3+32(FP), R11
	VBROADCASTSD c0+40(FP), Y12
	VBROADCASTSD c1+48(FP), Y13
	VBROADCASTSD c2+56(FP), Y14
	VBROADCASTSD c3+64(FP), Y15
	MOVQ n+72(FP), CX
	XORQ AX, AX
combine4loop:
	VMULPD (R8)(AX*8), Y12, Y0
	VMULPD (R9)(AX*8), Y13, Y1
	VMULPD (R10)(AX*8), Y14, Y2
	VMULPD (R11)(AX*8), Y15, Y3
	VADDPD Y1, Y0, Y0
	VADDPD Y2, Y0, Y0
	VADDPD Y3, Y0, Y0
	VMOVUPD (DI)(AX*8), Y4
	VADDPD Y0, Y4, Y4
	VMOVUPD Y4, (DI)(AX*8)
	ADDQ $4, AX
	CMPQ AX, CX
	JLT combine4loop
	VZEROUPPER
	RET

// func hadamardAVX2(dst, a, b *float64, n int)
// dst[i] = a[i]·b[i]
TEXT ·hadamardAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), BX
	MOVQ n+24(FP), CX
	XORQ AX, AX
hadamardloop:
	VMOVUPD (SI)(AX*8), Y0
	VMULPD (BX)(AX*8), Y0, Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ $4, AX
	CMPQ AX, CX
	JLT hadamardloop
	VZEROUPPER
	RET
