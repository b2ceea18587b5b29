//go:build !purego

#include "textflag.h"

// The kernels keep every element's operations and their order exactly as
// the Go loops in mlp.go: multiply, then add, never fused. They also take
// each operation's operands in the order the compiled Go loops do (the
// element before the constant, the product before the running sum), since
// when both operands are NaN the first one's payload is the result. Go's
// operand order is reversed from Intel's: VMULPD b, a, dst is a*b with a
// first, VSUBPD b, a, dst is a-b, and VBLENDVPD mask, ifSet, ifClear, dst.
//
// A row's columns go four to a vector; the last len%4 go one at a time
// through the same code, loaded with VMOVSD (the other lanes read 0) and
// stored with VMOVSD. A masked 32-byte store there would overlap the next
// row's first load and stall it.

// func cpuHasAVX2() bool
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	MOVL $0, AX
	CPUID
	CMPL AX, $7
	JLT  no
	MOVL $1, AX
	CPUID
	ANDL $0x18000000, CX // OSXSAVE (bit 27) and AVX (bit 28)
	CMPL CX, $0x18000000
	JNE  no
	MOVL $0, CX
	XGETBV
	ANDL $6, AX // the OS saves XMM and YMM state
	CMPL AX, $6
	JNE  no
	MOVL $7, AX
	MOVL $0, CX
	CPUID
	ANDL $0x20, BX // AVX2 (leaf 7, EBX bit 5)
	JZ   no
	MOVB $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET

// COLUMNS keeps the row width in CX as R12, puts the columns in whole
// vectors in R11 and turns CX into the row stride in bytes.
#define COLUMNS \
	MOVQ CX, R12; \
	MOVQ CX, R11; \
	ANDQ $-4, R11; \
	SHLQ $3, CX

// NEXTROW moves to the next row and loops to label while rows remain.
#define NEXTROW(label) \
	ADDQ $8, DX; \
	ADDQ CX, R9; \
	ADDQ CX, R10; \
	DECQ R8; \
	JNZ  label

// BACKPROP computes, for w in Y0, p in Y1, m in Y2, nextDelta in Y4 and d
// in Y13, the new nextDelta into Y4 (w*d + nextDelta), m into Y6
// (m*momentum - (p*d)*lr) and w into Y0 (w + m).
#define BACKPROP \
	VMULPD Y13, Y0, Y3; \
	VADDPD Y4, Y3, Y4; \
	VMULPD Y13, Y1, Y5; \
	VMULPD Y14, Y5, Y5; \
	VMULPD Y15, Y2, Y6; \
	VSUBPD Y5, Y6, Y6; \
	VADDPD Y6, Y0, Y0

// func backpropAVX2(nextDelta, prev, delta, w, m []float64, lr, momentum float64)
//
// For every row j (d = delta[j]) and column i (p = prev[i]):
//	nextDelta[i] = nextDelta[i] + w*d
//	m = momentum*m - lr*(d*p)
//	w = w + m
TEXT ·backpropAVX2(SB), NOSPLIT, $0-136
	MOVQ         nextDelta_base+0(FP), DI
	MOVQ         prev_base+24(FP), SI
	MOVQ         prev_len+32(FP), CX
	MOVQ         delta_base+48(FP), DX
	MOVQ         delta_len+56(FP), R8
	MOVQ         w_base+72(FP), R9
	MOVQ         m_base+96(FP), R10
	VBROADCASTSD lr+120(FP), Y14
	VBROADCASTSD momentum+128(FP), Y15
	TESTQ        R8, R8
	JZ           bpdone
	COLUMNS

bprow:
	VBROADCASTSD (DX), Y13 // d
	XORQ         AX, AX
	CMPQ         AX, R11
	JEQ          bptail

bpcol:
	VMOVUPD (R9)(AX*8), Y0  // w
	VMOVUPD (SI)(AX*8), Y1  // p
	VMOVUPD (R10)(AX*8), Y2 // m
	VMOVUPD (DI)(AX*8), Y4  // nextDelta
	BACKPROP
	VMOVUPD Y4, (DI)(AX*8)
	VMOVUPD Y6, (R10)(AX*8)
	VMOVUPD Y0, (R9)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, R11
	JLT     bpcol

bptail:
	CMPQ   AX, R12
	JEQ    bpnext
	VMOVSD (R9)(AX*8), X0
	VMOVSD (SI)(AX*8), X1
	VMOVSD (R10)(AX*8), X2
	VMOVSD (DI)(AX*8), X4
	BACKPROP
	VMOVSD X4, (DI)(AX*8)
	VMOVSD X6, (R10)(AX*8)
	VMOVSD X0, (R9)(AX*8)
	INCQ   AX
	JMP    bptail

bpnext:
	NEXTROW(bprow)

bpdone:
	VZEROUPPER
	RET

// PLAINUPDATE computes the update of p in Y1, m in Y2 and w in Y0, with d
// in Y13, into Y8 (m*momentum - (p*d)*lr) and Y0 (w + m).
#define PLAINUPDATE \
	VMULPD Y13, Y1, Y7; \
	VMULPD Y14, Y7, Y7; \
	VMULPD Y15, Y2, Y8; \
	VSUBPD Y7, Y8, Y8; \
	VADDPD Y8, Y0, Y0

// SKIPMASK narrows Y3 (the lanes whose input p is ±0) to the lanes whose
// update changes nothing, for m in Y2 and w in Y0: bits(m)&^sign <= k
// without m being -0, and |w| >= 2^-1000 (GE_OQ, so false for NaN). It
// clobbers Y4 and Y5.
#define SKIPMASK \
	VPANDN   Y2, Y11, Y5; \
	VPCMPGTQ Y5, Y12, Y5; \
	VPCMPEQQ Y11, Y2, Y4; \
	VPANDN   Y5, Y4, Y4; \
	VANDNPD  Y0, Y11, Y5; \
	VCMPPD   $0x1d, Y10, Y5, Y5; \
	VANDPD   Y4, Y3, Y3; \
	VANDPD   Y5, Y3, Y3

// SKIPUPDATE is PLAINUPDATE into Y8 (m) and Y7 (w) that keeps the old m
// in the lanes of mask Y3. Those lanes multiply a zeroed m, so no
// subnormal reaches a multiply (each costs a microcode assist). Their new
// m is then +0 (k > 0 means 0.5 < momentum < 1.5 with d and lr finite, and
// +0 - ±0 = +0), and w + +0 = w for the |w| >= 2^-1000 the mask requires,
// so only m needs its old value put back. It clobbers Y6.
#define SKIPUPDATE \
	VBLENDVPD Y3, Y9, Y2, Y6; \
	VMULPD    Y13, Y1, Y7; \
	VMULPD    Y14, Y7, Y7; \
	VMULPD    Y15, Y6, Y8; \
	VSUBPD    Y7, Y8, Y8; \
	VADDPD    Y8, Y0, Y7; \
	VBLENDVPD Y3, Y2, Y8, Y8

// func updateInputAVX2(x, delta, w, m []float64, lr, momentum float64, k uint64)
//
// For every row j (d = delta[j]) and column i (p = x[i]):
//	m = momentum*m - lr*(d*p)
//	w = w + m
// except, when k > 0, where p == 0, bits(m) is 0 or 1 <= bits(m)&^sign <= k,
// and |w| >= 2^-1000: there w and m stay.
TEXT ·updateInputAVX2(SB), NOSPLIT, $0-120
	MOVQ         x_base+0(FP), SI
	MOVQ         x_len+8(FP), CX
	MOVQ         delta_base+24(FP), DX
	MOVQ         delta_len+32(FP), R8
	MOVQ         w_base+48(FP), R9
	MOVQ         m_base+72(FP), R10
	VBROADCASTSD lr+96(FP), Y14
	VBROADCASTSD momentum+104(FP), Y15
	TESTQ        R8, R8
	JZ           updone
	COLUMNS
	MOVQ         k+112(FP), BX
	TESTQ        BX, BX
	JZ           plainrow

	INCQ         BX
	VMOVQ        BX, X12
	VPBROADCASTQ X12, Y12 // k+1
	MOVQ         $0x8000000000000000, BX
	VMOVQ        BX, X11
	VPBROADCASTQ X11, Y11 // the sign bit, and -0
	MOVQ         $0x0170000000000000, BX
	VMOVQ        BX, X10
	VPBROADCASTQ X10, Y10 // 2^-1000
	VXORPD       Y9, Y9, Y9

skiprow:
	VBROADCASTSD (DX), Y13 // d
	XORQ         AX, AX
	CMPQ         AX, R11
	JEQ          skiptail

skipcol:
	VMOVUPD   (SI)(AX*8), Y1    // p
	VMOVUPD   (R10)(AX*8), Y2   // m
	VMOVUPD   (R9)(AX*8), Y0    // w
	VCMPPD    $0x00, Y9, Y1, Y3 // p == 0 (EQ_OQ)
	VMOVMSKPD Y3, BX
	TESTQ     BX, BX
	JNZ       skipzero
	PLAINUPDATE
	VMOVUPD   Y8, (R10)(AX*8)
	VMOVUPD   Y0, (R9)(AX*8)
	JMP       skipnext

skipzero:
	SKIPMASK
	VMOVMSKPD Y3, BX
	CMPQ      BX, $15
	JEQ       skipnext // all four updates change nothing
	SKIPUPDATE
	VMOVUPD   Y8, (R10)(AX*8)
	VMOVUPD   Y7, (R9)(AX*8)

skipnext:
	ADDQ $4, AX
	CMPQ AX, R11
	JLT  skipcol

skiptail:
	CMPQ   AX, R12
	JEQ    skiprowend
	VMOVSD (SI)(AX*8), X1
	VMOVSD (R10)(AX*8), X2
	VMOVSD (R9)(AX*8), X0
	VCMPPD $0x00, Y9, Y1, Y3
	SKIPMASK // the unused lanes read w = 0, so they never skip
	SKIPUPDATE
	VMOVSD X8, (R10)(AX*8)
	VMOVSD X7, (R9)(AX*8)
	INCQ   AX
	JMP    skiptail

skiprowend:
	NEXTROW(skiprow)
	JMP updone

plainrow:
	VBROADCASTSD (DX), Y13 // d
	XORQ         AX, AX
	CMPQ         AX, R11
	JEQ          plaintail

plaincol:
	VMOVUPD (SI)(AX*8), Y1
	VMOVUPD (R10)(AX*8), Y2
	VMOVUPD (R9)(AX*8), Y0
	PLAINUPDATE
	VMOVUPD Y8, (R10)(AX*8)
	VMOVUPD Y0, (R9)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, R11
	JLT     plaincol

plaintail:
	CMPQ   AX, R12
	JEQ    plainrowend
	VMOVSD (SI)(AX*8), X1
	VMOVSD (R10)(AX*8), X2
	VMOVSD (R9)(AX*8), X0
	PLAINUPDATE
	VMOVSD X8, (R10)(AX*8)
	VMOVSD X0, (R9)(AX*8)
	INCQ   AX
	JMP    plaintail

plainrowend:
	NEXTROW(plainrow)

updone:
	VZEROUPPER
	RET
