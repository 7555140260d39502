//go:build amd64 && !purego

#include "textflag.h"

// AVX2 twin of updateRow's Go loop (update.go), four values per iteration:
//
//	r = a*reg + dt*rhs; reg = float32(r); u = float32(u + b*r)
//
// VCVTPS2PD widens exactly, VCVTPD2PS narrows under the MXCSR rounding
// mode (round to nearest even, as Go's float32 conversion), and every
// arithmetic instruction is one of the Go loop's float64 operations on the
// same operands in the same order, with no FMA, so each lane is bitwise
// equal to the Go loop (NaN payloads aside). reg is stored before u is
// read, as in the Go loop.

// func updateRowAVX2(u, reg, rhs *float32, n int, a, b, dt float64)
// n is a positive multiple of 4; u, reg and rhs hold at least n values.
TEXT ·updateRowAVX2(SB), NOSPLIT, $0-56
	MOVQ         u+0(FP), DI
	MOVQ         reg+8(FP), SI
	MOVQ         rhs+16(FP), DX
	MOVQ         n+24(FP), CX
	VBROADCASTSD a+32(FP), Y13
	VBROADCASTSD b+40(FP), Y14
	VBROADCASTSD dt+48(FP), Y15
	XORQ         AX, AX

loop:
	// r = a*reg + dt*rhs
	VCVTPS2PD (SI)(AX*4), Y0
	VMULPD    Y0, Y13, Y0
	VCVTPS2PD (DX)(AX*4), Y1
	VMULPD    Y1, Y15, Y1
	VADDPD    Y1, Y0, Y0
	VCVTPD2PSY Y0, X1
	VMOVUPS   X1, (SI)(AX*4)

	// u = u + b*r
	VCVTPS2PD (DI)(AX*4), Y2
	VMULPD    Y0, Y14, Y0
	VADDPD    Y0, Y2, Y2
	VCVTPD2PSY Y2, X2
	VMOVUPS   X2, (DI)(AX*4)

	ADDQ $4, AX
	CMPQ AX, CX
	JLT  loop
	VZEROUPPER
	RET
