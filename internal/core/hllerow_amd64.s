//go:build amd64 && !purego

#include "textflag.h"

// AVX2 twin of hlleRow's Go loop (hllerow.go), four faces per iteration:
// the physical check and first-order fallback, then hlleFace (hlle.go).
// Every arithmetic instruction is one of the Go code's float64 operations
// on the same operands in the same order, with no FMA, so each lane is
// bitwise equal to the Go loop (NaN payloads aside). The Go branches become
// ordered compares, false on NaN as in Go, and blends:
//
//   - physical's three tests are GT_OQ masks, and a lane whose
//     reconstructed state fails them takes the adjacent cell's state;
//   - soundSpeed's c2 < 0 → 0 clears the square root under an LT_OQ mask;
//   - min (max) is the OR (AND) of VMINPD (VMAXPD) in both operand orders,
//     which gives -0 (+0) for zeros of both signs and a NaN when either
//     operand is one (max ORs in an unordered mask for that), as the Go
//     builtins do;
//   - the sm > 0, sp < 0 clamps clear a lane under a mask, and the
//     sp-sm < 1e-12 widening blends in ±5e-13.
//
// The constants are the exact float64 bit patterns of the Go constants,
// each splatted over the four lanes of a 32-byte entry.

// 1
DATA hllec<>+0(SB)/8, $0x3FF0000000000000
DATA hllec<>+8(SB)/8, $0x3FF0000000000000
DATA hllec<>+16(SB)/8, $0x3FF0000000000000
DATA hllec<>+24(SB)/8, $0x3FF0000000000000
// 0.5
DATA hllec<>+32(SB)/8, $0x3FE0000000000000
DATA hllec<>+40(SB)/8, $0x3FE0000000000000
DATA hllec<>+48(SB)/8, $0x3FE0000000000000
DATA hllec<>+56(SB)/8, $0x3FE0000000000000
// 1e-12, the degenerate-fan threshold
DATA hllec<>+64(SB)/8, $0x3D719799812DEA11
DATA hllec<>+72(SB)/8, $0x3D719799812DEA11
DATA hllec<>+80(SB)/8, $0x3D719799812DEA11
DATA hllec<>+88(SB)/8, $0x3D719799812DEA11
// 5e-13, the widened fan's sp
DATA hllec<>+96(SB)/8, $0x3D619799812DEA11
DATA hllec<>+104(SB)/8, $0x3D619799812DEA11
DATA hllec<>+112(SB)/8, $0x3D619799812DEA11
DATA hllec<>+120(SB)/8, $0x3D619799812DEA11
// -5e-13, the widened fan's sm
DATA hllec<>+128(SB)/8, $0xBD619799812DEA11
DATA hllec<>+136(SB)/8, $0xBD619799812DEA11
DATA hllec<>+144(SB)/8, $0xBD619799812DEA11
DATA hllec<>+152(SB)/8, $0xBD619799812DEA11
GLOBL hllec<>(SB), RODATA|NOPTR, $160

#define ONE hllec<>+0(SB)
#define HALF hllec<>+32(SB)
#define TINY hllec<>+64(SB)
#define WIDE hllec<>+96(SB)
#define NWIDE hllec<>+128(SB)

// The blended face states live in the frame, one 32-byte lane group per
// quantity: the minus state at 0…192(SP), the plus state at 224…416(SP),
// each in faceState order (r, un, ut1, ut2, p, g, pi).
#define MRHO 0(SP)
#define MUN 32(SP)
#define MUT1 64(SP)
#define MUT2 96(SP)
#define MP 128(SP)
#define MG 160(SP)
#define MPI 192(SP)
#define PRHO 224(SP)
#define PUN 256(SP)
#define PUT1 288(SP)
#define PUT2 320(SP)
#define PP 352(SP)
#define PG 384(SP)
#define PPI 416(SP)

// hlleRowArgs field offsets: the row pointers of the reconstructed minus
// and plus states, of the cells left and right of the faces, and of the
// eight outputs (fr, fun, fut1, fut2, fe, fg, fpi, ustar).
#define ARGM 0
#define ARGP 56
#define ARGCM 112
#define ARGCP 168
#define ARGOUT 224

// PHYS sets Y5 to physical(s) for the state whose row pointers start at
// args offset base: r > 0 && (g+1)*p + pi > 0 && g > 0. Y15 holds zeros.
#define PHYS(base) \
	MOVQ (base+0)(BX), R8; \
	VMOVUPD (R8)(AX*8), Y0; \
	MOVQ (base+32)(BX), R8; \
	VMOVUPD (R8)(AX*8), Y1; \
	MOVQ (base+40)(BX), R8; \
	VMOVUPD (R8)(AX*8), Y2; \
	MOVQ (base+48)(BX), R8; \
	VADDPD ONE, Y2, Y3; \
	VMULPD Y1, Y3, Y3; \
	VADDPD (R8)(AX*8), Y3, Y3; \
	VCMPPD $0x1e, Y15, Y0, Y0; \
	VCMPPD $0x1e, Y15, Y3, Y3; \
	VCMPPD $0x1e, Y15, Y2, Y2; \
	VANDPD Y3, Y0, Y0; \
	VANDPD Y2, Y0, Y5

// SELECT stores to the frame slot scr the reconstructed lanes (row pointer
// at args offset row) where Y5 is set and the cell lanes (args offset
// cell) elsewhere.
#define SELECT(row, cell, scr) \
	MOVQ row(BX), R8; \
	MOVQ cell(BX), R9; \
	VMOVUPD (R9)(AX*8), Y6; \
	VBLENDVPD Y5, (R8)(AX*8), Y6, Y6; \
	VMOVUPD Y6, scr(SP)

// SIDE blends one side's face state into the frame slots from scr on.
#define SIDE(row, cell, scr) \
	PHYS(row); \
	SELECT(row+0, cell+0, scr+0); \
	SELECT(row+8, cell+8, scr+32); \
	SELECT(row+16, cell+16, scr+64); \
	SELECT(row+24, cell+24, scr+96); \
	SELECT(row+32, cell+32, scr+128); \
	SELECT(row+40, cell+40, scr+160); \
	SELECT(row+48, cell+48, scr+192)

// SOUND sets C to soundSpeed of the state at frame slots R, P, G, PI:
// c2 = ((g+1)*p + pi) / (g*r), and 0 where c2 < 0. T0 and T1 are clobbered.
#define SOUND(R, P, G, PI, C, T0, T1) \
	VMOVUPD G, C; \
	VADDPD ONE, C, T0; \
	VMULPD P, T0, T0; \
	VADDPD PI, T0, T0; \
	VMULPD R, C, T1; \
	VDIVPD T1, T0, T0; \
	VCMPPD $0x11, Y15, T0, T1; \
	VSQRTPD T0, T0; \
	VANDNPD T0, T1, C

// COMBINE stores ((sp*fl - sm*fr) + (sp*sm)*(ur-ul)) * inv to the output
// row at args offset out. Y12 = sp, Y13 = sm, Y11 = sp*sm, Y14 = inv; UR is
// a register, the other operands may be frame slots. Clobbers Y9 and Y10.
#define COMBINE(FL, FR, UL, UR, out) \
	VMULPD FL, Y12, Y9; \
	VMULPD FR, Y13, Y10; \
	VSUBPD Y10, Y9, Y9; \
	VSUBPD UL, UR, Y10; \
	VMULPD Y10, Y11, Y10; \
	VADDPD Y10, Y9, Y9; \
	VMULPD Y14, Y9, Y9; \
	MOVQ out(BX), R8; \
	VMOVUPD Y9, (R8)(AX*8)

// func hlleRowAVX2(a *hlleRowArgs, n int)
// n is a positive multiple of 4; every row of a holds at least n values.
TEXT ·hlleRowAVX2(SB), NOSPLIT, $448-16
	MOVQ a+0(FP), BX
	MOVQ n+8(FP), CX
	XORQ AX, AX
	VXORPD Y15, Y15, Y15

loop:
	// The face states, with the first-order fallback.
	SIDE(ARGM, ARGCM, 0)
	SIDE(ARGP, ARGCP, 224)

	// Sound speeds cm (Y0) and cp (Y1).
	SOUND(MRHO, MP, MG, MPI, Y0, Y2, Y3)
	SOUND(PRHO, PP, PG, PPI, Y1, Y2, Y3)

	// Davis estimates: sm = min(m.un-cm, p.un-cp) into Y13 and
	// sp = max(m.un+cm, p.un+cp) into Y12.
	VMOVUPD MUN, Y2
	VSUBPD  Y0, Y2, Y4
	VADDPD  Y0, Y2, Y5
	VMOVUPD PUN, Y3
	VSUBPD  Y1, Y3, Y6
	VADDPD  Y1, Y3, Y7
	VMINPD  Y6, Y4, Y0
	VMINPD  Y4, Y6, Y1
	VORPD   Y1, Y0, Y13
	VMAXPD  Y7, Y5, Y0
	VMAXPD  Y5, Y7, Y1
	VANDPD  Y1, Y0, Y0
	VCMPPD  $0x03, Y7, Y5, Y1
	VORPD   Y1, Y0, Y12

	// if sm > 0 { sm = 0 }; if sp < 0 { sp = 0 }
	VCMPPD  $0x1e, Y15, Y13, Y0
	VANDNPD Y13, Y0, Y13
	VCMPPD  $0x11, Y15, Y12, Y0
	VANDNPD Y12, Y0, Y12

	// if sp-sm < 1e-12 { sp, sm = 5e-13, -5e-13 }
	VSUBPD    Y13, Y12, Y0
	VCMPPD    $0x11, TINY, Y0, Y0
	VBLENDVPD Y0, WIDE, Y12, Y12
	VBLENDVPD Y0, NWIDE, Y13, Y13

	// inv = 1 / (sp - sm); Y11 = sp*sm
	VSUBPD  Y13, Y12, Y0
	VMOVUPD ONE, Y14
	VDIVPD  Y0, Y14, Y14
	VMULPD  Y13, Y12, Y11

	// Mass: fl = m.r*m.un (Y2), fr = p.r*p.un (Y3), ul = m.r, ur = p.r.
	VMOVUPD MRHO, Y0
	VMOVUPD PRHO, Y1
	VMULPD  MUN, Y0, Y2
	VMULPD  PUN, Y1, Y3
	COMBINE(Y2, Y3, Y0, Y1, ARGOUT+0)

	// Normal momentum: fl = m.r*m.un*m.un + m.p, ul = m.r*m.un.
	VMULPD MUN, Y2, Y4
	VADDPD MP, Y4, Y4
	VMULPD PUN, Y3, Y5
	VADDPD PP, Y5, Y5
	COMBINE(Y4, Y5, Y2, Y3, ARGOUT+8)

	// Tangential momenta: fl = m.r*m.un*m.ut, ul = m.r*m.ut.
	VMULPD MUT1, Y2, Y4
	VMULPD PUT1, Y3, Y5
	VMULPD MUT1, Y0, Y6
	VMULPD PUT1, Y1, Y7
	COMBINE(Y4, Y5, Y6, Y7, ARGOUT+16)
	VMULPD MUT2, Y2, Y4
	VMULPD PUT2, Y3, Y5
	VMULPD MUT2, Y0, Y6
	VMULPD PUT2, Y1, Y7
	COMBINE(Y4, Y5, Y6, Y7, ARGOUT+24)

	// Energy: ke = 0.5*r * ((un*un + ut1*ut1) + ut2*ut2),
	// e = (g*p + pi) + ke, fl = (e + p)*un, ul = e.
	VMOVUPD MUN, Y4
	VMULPD  Y4, Y4, Y4
	VMOVUPD MUT1, Y5
	VMULPD  Y5, Y5, Y5
	VADDPD  Y5, Y4, Y4
	VMOVUPD MUT2, Y5
	VMULPD  Y5, Y5, Y5
	VADDPD  Y5, Y4, Y4
	VMULPD  HALF, Y0, Y5
	VMULPD  Y4, Y5, Y4
	VMOVUPD MG, Y5
	VMULPD  MP, Y5, Y5
	VADDPD  MPI, Y5, Y5
	VADDPD  Y4, Y5, Y5
	VADDPD  MP, Y5, Y6
	VMULPD  MUN, Y6, Y6
	VMOVUPD PUN, Y2
	VMULPD  Y2, Y2, Y2
	VMOVUPD PUT1, Y3
	VMULPD  Y3, Y3, Y3
	VADDPD  Y3, Y2, Y2
	VMOVUPD PUT2, Y3
	VMULPD  Y3, Y3, Y3
	VADDPD  Y3, Y2, Y2
	VMULPD  HALF, Y1, Y3
	VMULPD  Y2, Y3, Y2
	VMOVUPD PG, Y7
	VMULPD  PP, Y7, Y7
	VADDPD  PPI, Y7, Y7
	VADDPD  Y2, Y7, Y7
	VADDPD  PP, Y7, Y8
	VMULPD  PUN, Y8, Y8
	COMBINE(Y6, Y8, Y5, Y7, ARGOUT+32)

	// Γ and Π: fl = φ*un, ul = φ.
	VMOVUPD MG, Y4
	VMULPD  MUN, Y4, Y4
	VMOVUPD PG, Y6
	VMULPD  PUN, Y6, Y5
	COMBINE(Y4, Y5, MG, Y6, ARGOUT+40)
	VMOVUPD MPI, Y4
	VMULPD  MUN, Y4, Y4
	VMOVUPD PPI, Y6
	VMULPD  PUN, Y6, Y5
	COMBINE(Y4, Y5, MPI, Y6, ARGOUT+48)

	// ustar = (sp*m.un - sm*p.un) * inv
	VMULPD  MUN, Y12, Y4
	VMULPD  PUN, Y13, Y5
	VSUBPD  Y5, Y4, Y4
	VMULPD  Y14, Y4, Y4
	MOVQ    (ARGOUT+56)(BX), R8
	VMOVUPD Y4, (R8)(AX*8)

	ADDQ $4, AX
	CMPQ AX, CX
	JLT  loop
	VZEROUPPER
	RET
