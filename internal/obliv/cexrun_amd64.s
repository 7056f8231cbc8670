#include "textflag.h"

// The AVX-512 chunk loops of the raw plane comparator and replay (see
// planeRun and replayRun in cexrun.go, their portable reference) and the
// CPUID / XGETBV stubs that detect them. A chunk of cnt <= 64 pairs is
// walked 8 lanes at a time; lane mask K6 is the low byte of the chunk mask
// ones(cnt) shifted right by the group offset, so the last partial group
// loads zeroed lanes and stores none of them. The only conditional jumps
// are loop control on public counts and tests of the public mode (a
// second key plane, a carried plane, a record).

// func planeRunAVX512(k0, k1, v []uint64, lo, stride, u0, u1, period int, desc uint64, rec []uint64, q int)
TEXT ·planeRunAVX512(SB), NOSPLIT, $0-152
	MOVQ u0+88(FP), SI // SI: the chunk's first pair u

chunk:
	CMPQ SI, u1+96(FP)
	JGE  done

	// off := u & (stride-1); cnt := min(stride-off, u1-u, 64-(q+u)&63).
	MOVQ    stride+80(FP), R9
	LEAQ    -1(R9), AX
	ANDQ    SI, AX
	MOVQ    R9, DX
	SUBQ    AX, DX
	MOVQ    u1+96(FP), R8
	SUBQ    SI, R8
	CMPQ    R8, DX
	CMOVQLT R8, DX
	MOVQ    q+144(FP), R8
	ADDQ    SI, R8
	ANDQ    $63, R8
	MOVQ    $64, R10
	SUBQ    R8, R10
	CMPQ    R10, DX
	CMOVQLT R10, DX

	// i0 := (u-off)<<1; K7 := the direction, desc flipped when i0&period != 0.
	MOVQ  SI, R10
	SUBQ  AX, R10
	SHLQ  $1, R10
	MOVQ  R10, R11
	ANDQ  period+104(FP), R11
	NEGQ  R11
	SBBQ  R11, R11
	XORQ  desc+112(FP), R11
	KMOVB R11, K7

	// i := lo + i0 + off. R8, R9: &k0[i], &k0[i+stride]; R10, R11: the same
	// in k1; R12, R13: in v.
	ADDQ lo+72(FP), R10
	ADDQ AX, R10
	SHLQ $3, R9
	MOVQ k0_base+0(FP), R8
	LEAQ (R8)(R10*8), R8
	MOVQ v_base+48(FP), R12
	LEAQ (R12)(R10*8), R12
	LEAQ (R12)(R9*1), R13
	MOVQ k1_base+24(FP), R11
	LEAQ (R11)(R10*8), R10
	LEAQ (R10)(R9*1), R11
	LEAQ (R8)(R9*1), R9

	// BX := ones(cnt), the chunk mask; CX: the group offset t; DI: the
	// chunk's swap bits r.
	MOVQ $64, CX
	SUBQ DX, CX
	MOVQ $-1, BX
	SHRQ CX, BX
	XORL CX, CX
	XORL DI, DI

group:
	MOVQ  BX, AX
	SHRQ  CX, AX
	KMOVB AX, K6
	VMOVDQU64.Z (R8)(CX*8), K6, Z0
	VMOVDQU64.Z (R9)(CX*8), K6, Z1
	VPCMPUQ     $6, Z1, Z0, K1 // x0 > y0
	CMPQ        k1_base+24(FP), $0
	JEQ         after
	VMOVDQU64.Z (R10)(CX*8), K6, Z2
	VMOVDQU64.Z (R11)(CX*8), K6, Z3
	VPCMPUQ     $0, Z1, Z0, K2     // x0 == y0
	VPCMPUQ     $6, Z3, Z2, K2, K3 // and x1 > y1
	KORB        K3, K1, K1

after:
	// K1: x sorts after y, flipped by the direction — the swap mask.
	KXORB     K7, K1, K1
	VPBLENDMQ Z1, Z0, K1, Z4
	VPBLENDMQ Z0, Z1, K1, Z5
	VMOVDQU64 Z4, K6, (R8)(CX*8)
	VMOVDQU64 Z5, K6, (R9)(CX*8)
	CMPQ      k1_base+24(FP), $0
	JEQ       carried
	VPBLENDMQ Z3, Z2, K1, Z4
	VPBLENDMQ Z2, Z3, K1, Z5
	VMOVDQU64 Z4, K6, (R10)(CX*8)
	VMOVDQU64 Z5, K6, (R11)(CX*8)

carried:
	CMPQ        v_base+48(FP), $0
	JEQ         bits
	VMOVDQU64.Z (R12)(CX*8), K6, Z2
	VMOVDQU64.Z (R13)(CX*8), K6, Z3
	VPBLENDMQ   Z3, Z2, K1, Z4
	VPBLENDMQ   Z2, Z3, K1, Z5
	VMOVDQU64   Z4, K6, (R12)(CX*8)
	VMOVDQU64   Z5, K6, (R13)(CX*8)

bits:
	KMOVB K1, AX
	SHLQ  CX, AX
	ORQ   AX, DI
	ADDQ  $8, CX
	CMPQ  CX, DX
	JLT   group

	// rec[b>>6] takes r as its bits b&63 .. +cnt-1, b = q+u.
	MOVQ  rec_base+120(FP), AX
	TESTQ AX, AX
	JEQ   next
	MOVQ  q+144(FP), CX
	ADDQ  SI, CX
	MOVQ  CX, R8
	SHRQ  $6, R8
	LEAQ  (AX)(R8*8), AX
	ANDQ  BX, DI
	SHLQ  CX, BX
	SHLQ  CX, DI
	NOTQ  BX
	ANDQ  (AX), BX
	ORQ   DI, BX
	MOVQ  BX, (AX)

next:
	ADDQ DX, SI
	JMP  chunk

done:
	VZEROUPPER
	RET

// func replayRunAVX512(p []uint64, lo, stride, u0, u1 int, rec []uint64, q int)
TEXT ·replayRunAVX512(SB), NOSPLIT, $0-88
	MOVQ u0+40(FP), SI // SI: the chunk's first pair u

chunk:
	CMPQ SI, u1+48(FP)
	JGE  done

	// off := u & (stride-1); cnt := min(stride-off, u1-u, 64-b&63), b = q+u.
	MOVQ    stride+32(FP), R9
	LEAQ    -1(R9), AX
	ANDQ    SI, AX
	MOVQ    R9, DX
	SUBQ    AX, DX
	MOVQ    u1+48(FP), R8
	SUBQ    SI, R8
	CMPQ    R8, DX
	CMOVQLT R8, DX
	MOVQ    q+80(FP), CX
	ADDQ    SI, CX
	MOVQ    CX, R8
	ANDQ    $63, R8
	MOVQ    $64, R10
	SUBQ    R8, R10
	CMPQ    R10, DX
	CMOVQLT R10, DX

	// DI := rec[b>>6] >> (b&63), the chunk's swap bits.
	MOVQ CX, R8
	SHRQ $6, R8
	MOVQ rec_base+56(FP), R10
	MOVQ (R10)(R8*8), DI
	SHRQ CX, DI

	// R8, R9: &p[i], &p[i+stride], i = lo + (u-off)<<1 + off.
	LEAQ (SI)(SI*1), R10
	SUBQ AX, R10
	ADDQ lo+24(FP), R10
	MOVQ p_base+0(FP), R8
	LEAQ (R8)(R10*8), R8
	LEAQ (R8)(R9*8), R9

	// BX := ones(cnt); CX: the group offset t.
	MOVQ $64, CX
	SUBQ DX, CX
	MOVQ $-1, BX
	SHRQ CX, BX
	XORL CX, CX

group:
	MOVQ        BX, AX
	SHRQ        CX, AX
	KMOVB       AX, K6
	MOVQ        DI, AX
	SHRQ        CX, AX
	KMOVB       AX, K1
	VMOVDQU64.Z (R8)(CX*8), K6, Z0
	VMOVDQU64.Z (R9)(CX*8), K6, Z1
	VPBLENDMQ   Z1, Z0, K1, Z2
	VPBLENDMQ   Z0, Z1, K1, Z3
	VMOVDQU64   Z2, K6, (R8)(CX*8)
	VMOVDQU64   Z3, K6, (R9)(CX*8)
	ADDQ        $8, CX
	CMPQ        CX, DX
	JLT         group

	ADDQ DX, SI
	JMP  chunk

done:
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

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
