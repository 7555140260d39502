//go:build amd64 && !purego

#include "textflag.h"

// AVX2 twin of sumRow's Go loop (sumrow.go), four cells per iteration.
// Every arithmetic instruction is one of the Go loop's float64 operations
// on the same operands in the same order, with no FMA, so each lane is
// bitwise equal to the Go loop (NaN payloads aside):
//
//	du = hi.ustar - lo.ustar
//	acc_k -= hi_k - lo_k                  for mass, momenta and energy
//	acc_k -= (hi_k - lo_k) - φ*du         for Γ and Π, φ the cell's Γ or Π

// sumRowArgs field offsets: the seven accumulator rows, the eight low-face
// and the eight high-face flux rows (fr, fun, fut1, fut2, fe, fg, fpi,
// ustar), and the cells' Γ and Π rows.
#define ARGACC 0
#define ARGLO 56
#define ARGHI 120
#define ARGG 184
#define ARGPI 192

// DIFF sets Y1 to hi - lo of the flux component at byte offset k of a row
// pointer group.
#define DIFF(k) \
	MOVQ (ARGHI+k)(BX), R8; \
	VMOVUPD (R8)(AX*8), Y1; \
	MOVQ (ARGLO+k)(BX), R8; \
	VSUBPD (R8)(AX*8), Y1, Y1

// NONCONS sets Y1 to Y1 - φ*du, φ the row at R and du in Y0.
#define NONCONS(R) \
	VMULPD (R)(AX*8), Y0, Y2; \
	VSUBPD Y2, Y1, Y1

// SUB subtracts Y1 from the accumulator row at R.
#define SUB(R) \
	VMOVUPD (R)(AX*8), Y2; \
	VSUBPD Y1, Y2, Y2; \
	VMOVUPD Y2, (R)(AX*8)

// func sumRowAVX2(a *sumRowArgs, n int)
// n is a positive multiple of 4; every row of a holds at least n values.
// The accumulator rows and Γ, Π stay in registers; the flux row pointers
// are read from a as they are needed.
TEXT ·sumRowAVX2(SB), NOSPLIT, $0-16
	MOVQ a+0(FP), BX
	MOVQ n+8(FP), CX
	MOVQ (ARGACC+0)(BX), DX
	MOVQ (ARGACC+8)(BX), SI
	MOVQ (ARGACC+16)(BX), DI
	MOVQ (ARGACC+24)(BX), R9
	MOVQ (ARGACC+32)(BX), R10
	MOVQ (ARGACC+40)(BX), R11
	MOVQ (ARGACC+48)(BX), R12
	MOVQ ARGG(BX), R13
	MOVQ ARGPI(BX), R14
	XORQ AX, AX

loop:
	// du = hi.ustar - lo.ustar
	DIFF(56)
	VMOVUPD Y1, Y0

	DIFF(0)
	SUB(DX)
	DIFF(8)
	SUB(SI)
	DIFF(16)
	SUB(DI)
	DIFF(24)
	SUB(R9)
	DIFF(32)
	SUB(R10)
	DIFF(40)
	NONCONS(R13)
	SUB(R11)
	DIFF(48)
	NONCONS(R14)
	SUB(R12)

	ADDQ $4, AX
	CMPQ AX, CX
	JLT  loop
	VZEROUPPER
	RET
