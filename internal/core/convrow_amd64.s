//go:build amd64 && !purego

#include "textflag.h"

// AVX2 twin of convRow's Go loop (slices.go), four cells per iteration.
// Quantity q of the four consecutive AoS cells (stride 7 float32) is
// gathered into one float32 lane per cell by a load and three blends from
// memory: the 16 bytes at src + 24i + 4q hold cell i's quantity q in lane
// i, so each blend takes lane i from there and no shuffle is needed, and
// the last cell's loads end at the group's last byte. The lanes are widened
// exactly to float64. The equation of state then runs with every
// arithmetic instruction one of the Go loop's float64 operations on the
// same operands in the same order, with no FMA: the same two divisions,
// inv = 1/ρ and p = ((E - ke) - Π)/Γ, so each lane is bitwise equal to the
// Go loop (NaN payloads aside).

// 1
DATA convc<>+0(SB)/8, $0x3FF0000000000000
DATA convc<>+8(SB)/8, $0x3FF0000000000000
DATA convc<>+16(SB)/8, $0x3FF0000000000000
DATA convc<>+24(SB)/8, $0x3FF0000000000000
// 0.5
DATA convc<>+32(SB)/8, $0x3FE0000000000000
DATA convc<>+40(SB)/8, $0x3FE0000000000000
DATA convc<>+48(SB)/8, $0x3FE0000000000000
DATA convc<>+56(SB)/8, $0x3FE0000000000000
GLOBL convc<>(SB), RODATA|NOPTR, $64

// func convRowAVX2(r, u, v, w, p, gam, pi *float64, src *float32, n int)
// n is a positive multiple of 4; src holds at least 7n values and every
// destination row at least n.
TEXT ·convRowAVX2(SB), NOSPLIT, $0-72
	MOVQ    r+0(FP), R8
	MOVQ    u+8(FP), R9
	MOVQ    v+16(FP), R10
	MOVQ    w+24(FP), R11
	MOVQ    p+32(FP), R12
	MOVQ    gam+40(FP), R13
	MOVQ    pi+48(FP), DX
	MOVQ    src+56(FP), SI
	MOVQ    n+64(FP), CX
	VMOVUPD convc<>+0(SB), Y14
	VMOVUPD convc<>+32(SB), Y15
	XORQ    AX, AX

// GATHER sets Y to quantity q (byte offset 4q in a cell) of the four cells
// at SI, widened to float64.
#define GATHER(q, X, Y) \
	VMOVUPS   (4*q)(SI), X; \
	VBLENDPS  $2, (24+4*q)(SI), X, X; \
	VBLENDPS  $4, (48+4*q)(SI), X, X; \
	VBLENDPS  $8, (72+4*q)(SI), X, X; \
	VCVTPS2PD X, Y

loop:
	GATHER(0, X0, Y0)
	GATHER(1, X1, Y1)
	GATHER(2, X2, Y2)
	GATHER(3, X3, Y3)
	GATHER(4, X4, Y4)
	GATHER(5, X5, Y5)
	GATHER(6, X6, Y6)

	// inv = 1/r; u, v, w = ρu*inv, ρv*inv, ρw*inv
	VDIVPD Y0, Y14, Y7
	VMULPD Y7, Y1, Y1
	VMULPD Y7, Y2, Y2
	VMULPD Y7, Y3, Y3

	// ke = 0.5*r * ((u*u + v*v) + w*w); p = ((E - ke) - Π) / Γ
	VMULPD Y0, Y15, Y8
	VMULPD Y1, Y1, Y9
	VMULPD Y2, Y2, Y10
	VADDPD Y10, Y9, Y9
	VMULPD Y3, Y3, Y10
	VADDPD Y10, Y9, Y9
	VMULPD Y9, Y8, Y8
	VSUBPD Y8, Y4, Y4
	VSUBPD Y6, Y4, Y4
	VDIVPD Y5, Y4, Y4

	VMOVUPD Y0, (R8)(AX*8)
	VMOVUPD Y1, (R9)(AX*8)
	VMOVUPD Y2, (R10)(AX*8)
	VMOVUPD Y3, (R11)(AX*8)
	VMOVUPD Y4, (R12)(AX*8)
	VMOVUPD Y5, (R13)(AX*8)
	VMOVUPD Y6, (DX)(AX*8)

	ADDQ $112, SI
	ADDQ $4, AX
	CMPQ AX, CX
	JLT  loop
	VZEROUPPER
	RET
