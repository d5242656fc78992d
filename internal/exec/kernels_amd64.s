#include "textflag.h"

// MASK8 leaves in R the verdicts on the eight uint32 at off(SI), one per
// bit, lane 0 at bit 0: u-lo <= width as min(u-lo, width) == u-lo, with
// lo broadcast in Y0 and width in Y1. V and T are clobbered.
#define MASK8(off, V, T, R) \
	VMOVDQU   off(SI), V; \
	VPSUBD    Y0, V, V; \
	VPMINUD   Y1, V, T; \
	VPCMPEQD  T, V, V; \
	VMOVMSKPS V, R

// MASK8AT ORs the verdicts on the eight uint32 at off(SI) into R8 at bit
// shift.
#define MASK8AT(off, V, T, shift) \
	MASK8(off, V, T, R9); \
	SHLQ $shift, R9; \
	ORQ  R9, R8

// func markWords32(vals *uint32, dst *uint64, words int, lo, width uint32) int64
TEXT ·markWords32(SB), NOSPLIT, $0-40
	MOVQ         vals+0(FP), SI
	MOVQ         dst+8(FP), DI
	MOVQ         words+16(FP), CX
	MOVL         lo+24(FP), AX
	MOVQ         AX, X0
	VPBROADCASTD X0, Y0
	MOVL         width+28(FP), AX
	MOVQ         AX, X1
	VPBROADCASTD X1, Y1
	XORQ         AX, AX
	TESTQ        CX, CX
	JZ           done

loop:
	MASK8(0, Y2, Y3, R8)
	MASK8AT(32, Y4, Y5, 8)
	MASK8AT(64, Y6, Y7, 16)
	MASK8AT(96, Y8, Y9, 24)
	MASK8AT(128, Y10, Y11, 32)
	MASK8AT(160, Y12, Y13, 40)
	MASK8AT(192, Y14, Y15, 48)
	MASK8AT(224, Y2, Y3, 56)
	MOVQ         R8, (DI)
	POPCNTQ      R8, R8
	ADDQ         R8, AX
	ADDQ         $256, SI
	ADDQ         $8, DI
	DECQ         CX
	JNZ          loop

done:
	VZEROUPPER
	MOVQ AX, ret+32(FP)
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL   $0, CX
	XGETBV
	MOVL   AX, eax+0(FP)
	MOVL   DX, edx+4(FP)
	RET
