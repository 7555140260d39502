//go:build amd64 && !purego

#include "textflag.h"

// AVX2 twin of wenoMinus (weno.go), four lanes per iteration. Every vector
// instruction is one of wenoMinus's float64 operations on the same operands
// in the same order, with no FMA, so each lane is bitwise equal to the Go
// function (NaN payloads aside). 2*x is computed as x+x, as the Go compiler
// does. The constants are the exact float64 bit patterns of the Go
// constants, each splatted over the four lanes of a 32-byte entry.

// 4
DATA wenoc<>+0(SB)/8, $0x4010000000000000
DATA wenoc<>+8(SB)/8, $0x4010000000000000
DATA wenoc<>+16(SB)/8, $0x4010000000000000
DATA wenoc<>+24(SB)/8, $0x4010000000000000
// 3
DATA wenoc<>+32(SB)/8, $0x4008000000000000
DATA wenoc<>+40(SB)/8, $0x4008000000000000
DATA wenoc<>+48(SB)/8, $0x4008000000000000
DATA wenoc<>+56(SB)/8, $0x4008000000000000
// 13/12
DATA wenoc<>+64(SB)/8, $0x3FF1555555555555
DATA wenoc<>+72(SB)/8, $0x3FF1555555555555
DATA wenoc<>+80(SB)/8, $0x3FF1555555555555
DATA wenoc<>+88(SB)/8, $0x3FF1555555555555
// 1/4
DATA wenoc<>+96(SB)/8, $0x3FD0000000000000
DATA wenoc<>+104(SB)/8, $0x3FD0000000000000
DATA wenoc<>+112(SB)/8, $0x3FD0000000000000
DATA wenoc<>+120(SB)/8, $0x3FD0000000000000
// wenoEps = 1e-6
DATA wenoc<>+128(SB)/8, $0x3EB0C6F7A0B5ED8D
DATA wenoc<>+136(SB)/8, $0x3EB0C6F7A0B5ED8D
DATA wenoc<>+144(SB)/8, $0x3EB0C6F7A0B5ED8D
DATA wenoc<>+152(SB)/8, $0x3EB0C6F7A0B5ED8D
// d0 = 0.1
DATA wenoc<>+160(SB)/8, $0x3FB999999999999A
DATA wenoc<>+168(SB)/8, $0x3FB999999999999A
DATA wenoc<>+176(SB)/8, $0x3FB999999999999A
DATA wenoc<>+184(SB)/8, $0x3FB999999999999A
// d1 = 0.6
DATA wenoc<>+192(SB)/8, $0x3FE3333333333333
DATA wenoc<>+200(SB)/8, $0x3FE3333333333333
DATA wenoc<>+208(SB)/8, $0x3FE3333333333333
DATA wenoc<>+216(SB)/8, $0x3FE3333333333333
// d2 = 0.3
DATA wenoc<>+224(SB)/8, $0x3FD3333333333333
DATA wenoc<>+232(SB)/8, $0x3FD3333333333333
DATA wenoc<>+240(SB)/8, $0x3FD3333333333333
DATA wenoc<>+248(SB)/8, $0x3FD3333333333333
// 1
DATA wenoc<>+256(SB)/8, $0x3FF0000000000000
DATA wenoc<>+264(SB)/8, $0x3FF0000000000000
DATA wenoc<>+272(SB)/8, $0x3FF0000000000000
DATA wenoc<>+280(SB)/8, $0x3FF0000000000000
// 5
DATA wenoc<>+288(SB)/8, $0x4014000000000000
DATA wenoc<>+296(SB)/8, $0x4014000000000000
DATA wenoc<>+304(SB)/8, $0x4014000000000000
DATA wenoc<>+312(SB)/8, $0x4014000000000000
// 7
DATA wenoc<>+320(SB)/8, $0x401C000000000000
DATA wenoc<>+328(SB)/8, $0x401C000000000000
DATA wenoc<>+336(SB)/8, $0x401C000000000000
DATA wenoc<>+344(SB)/8, $0x401C000000000000
// 11
DATA wenoc<>+352(SB)/8, $0x4026000000000000
DATA wenoc<>+360(SB)/8, $0x4026000000000000
DATA wenoc<>+368(SB)/8, $0x4026000000000000
DATA wenoc<>+376(SB)/8, $0x4026000000000000
// 1/6
DATA wenoc<>+384(SB)/8, $0x3FC5555555555555
DATA wenoc<>+392(SB)/8, $0x3FC5555555555555
DATA wenoc<>+400(SB)/8, $0x3FC5555555555555
DATA wenoc<>+408(SB)/8, $0x3FC5555555555555
GLOBL wenoc<>(SB), RODATA|NOPTR, $416

#define FOUR wenoc<>+0(SB)
#define THREE wenoc<>+32(SB)
#define K1312 wenoc<>+64(SB)
#define QUARTER wenoc<>+96(SB)
#define EPS wenoc<>+128(SB)
#define D0 wenoc<>+160(SB)
#define D1 wenoc<>+192(SB)
#define D2 wenoc<>+224(SB)
#define ONE wenoc<>+256(SB)
#define FIVE wenoc<>+288(SB)
#define SEVEN wenoc<>+320(SB)
#define ELEVEN wenoc<>+352(SB)
#define SIXTH wenoc<>+384(SB)

// func wenoRowAVX2(out, a, b, c, d, e *float64, n int)
// n is a positive multiple of 4; every operand holds at least n values.
TEXT ·wenoRowAVX2(SB), NOSPLIT, $0-56
	MOVQ out+0(FP), DI
	MOVQ a+8(FP), R8
	MOVQ b+16(FP), R9
	MOVQ c+24(FP), R10
	MOVQ d+32(FP), R11
	MOVQ e+40(FP), SI
	MOVQ n+48(FP), CX
	XORQ AX, AX

loop:
	VMOVUPD (R8)(AX*8), Y0 // a
	VMOVUPD (R9)(AX*8), Y1 // b
	VMOVUPD (R10)(AX*8), Y2 // c
	VMOVUPD (R11)(AX*8), Y3 // d
	VMOVUPD (SI)(AX*8), Y4 // e

	// b0 = 13/12*t1*t1 + 0.25*t2*t2, t1 = a - 2*b + c, t2 = a - 4*b + 3*c
	VADDPD Y1, Y1, Y5
	VSUBPD Y5, Y0, Y5
	VADDPD Y2, Y5, Y5
	VMULPD FOUR, Y1, Y6
	VSUBPD Y6, Y0, Y6
	VMULPD THREE, Y2, Y7
	VADDPD Y7, Y6, Y6
	VMULPD K1312, Y5, Y7
	VMULPD Y5, Y7, Y7
	VMULPD QUARTER, Y6, Y8
	VMULPD Y6, Y8, Y8
	VADDPD Y8, Y7, Y5

	// b1: t1 = b - 2*c + d, t2 = b - d
	VADDPD Y2, Y2, Y6
	VSUBPD Y6, Y1, Y6
	VADDPD Y3, Y6, Y6
	VSUBPD Y3, Y1, Y7
	VMULPD K1312, Y6, Y8
	VMULPD Y6, Y8, Y8
	VMULPD QUARTER, Y7, Y9
	VMULPD Y7, Y9, Y9
	VADDPD Y9, Y8, Y6

	// b2: t1 = c - 2*d + e, t2 = 3*c - 4*d + e
	VADDPD Y3, Y3, Y7
	VSUBPD Y7, Y2, Y7
	VADDPD Y4, Y7, Y7
	VMULPD THREE, Y2, Y8
	VMULPD FOUR, Y3, Y9
	VSUBPD Y9, Y8, Y8
	VADDPD Y4, Y8, Y8
	VMULPD K1312, Y7, Y9
	VMULPD Y7, Y9, Y9
	VMULPD QUARTER, Y8, Y10
	VMULPD Y8, Y10, Y10
	VADDPD Y10, Y9, Y7

	// q0 = (2*a - 7*b + 11*c) * (1/6)
	VADDPD Y0, Y0, Y8
	VMULPD SEVEN, Y1, Y9
	VSUBPD Y9, Y8, Y8
	VMULPD ELEVEN, Y2, Y9
	VADDPD Y9, Y8, Y8
	VMULPD SIXTH, Y8, Y8

	// q1 = (-b + 5*c + 2*d) * (1/6); -b + x is x - b exactly
	VMULPD FIVE, Y2, Y9
	VSUBPD Y1, Y9, Y9
	VADDPD Y3, Y3, Y10
	VADDPD Y10, Y9, Y9
	VMULPD SIXTH, Y9, Y9

	// q2 = (2*c + 5*d - e) * (1/6)
	VADDPD Y2, Y2, Y10
	VMULPD FIVE, Y3, Y11
	VADDPD Y11, Y10, Y10
	VSUBPD Y4, Y10, Y10
	VMULPD SIXTH, Y10, Y10

	// wk = dk / ((eps + bk) * (eps + bk))
	VADDPD EPS, Y5, Y5
	VMULPD Y5, Y5, Y5
	VMOVUPD D0, Y11
	VDIVPD Y5, Y11, Y5
	VADDPD EPS, Y6, Y6
	VMULPD Y6, Y6, Y6
	VMOVUPD D1, Y11
	VDIVPD Y6, Y11, Y6
	VADDPD EPS, Y7, Y7
	VMULPD Y7, Y7, Y7
	VMOVUPD D2, Y11
	VDIVPD Y7, Y11, Y7

	// inv = 1 / (w0 + w1 + w2); wk *= inv
	VADDPD Y6, Y5, Y11
	VADDPD Y7, Y11, Y11
	VMOVUPD ONE, Y12
	VDIVPD Y11, Y12, Y11
	VMULPD Y11, Y5, Y5
	VMULPD Y11, Y6, Y6
	VMULPD Y11, Y7, Y7

	// w0*q0 + w1*q1 + w2*q2
	VMULPD Y8, Y5, Y5
	VMULPD Y9, Y6, Y6
	VMULPD Y10, Y7, Y7
	VADDPD Y6, Y5, Y5
	VADDPD Y7, Y5, Y5
	VMOVUPD Y5, (DI)(AX*8)

	ADDQ $4, AX
	CMPQ AX, CX
	JLT  loop
	VZEROUPPER
	RET

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

// func xgetbv() (eax uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET
