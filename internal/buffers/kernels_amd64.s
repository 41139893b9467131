//go:build !race

#include "textflag.h"

// SUMLOOP adds the 32-byte vectors of src (SI) into dst (DI), CX bytes
// of each, CX a multiple of 32: four vectors an iteration, then one at a
// time. Loads and stores are unaligned; VOP is the lane add of one
// element type.
#define SUMLOOP(VOP) \
	SHRQ $5, CX; \
	JZ   done; \
loop4: \
	CMPQ    CX, $4; \
	JB      loop1; \
	VMOVDQU 0(DI), Y0; \
	VMOVDQU 32(DI), Y1; \
	VMOVDQU 64(DI), Y2; \
	VMOVDQU 96(DI), Y3; \
	VOP     0(SI), Y0, Y0; \
	VOP     32(SI), Y1, Y1; \
	VOP     64(SI), Y2, Y2; \
	VOP     96(SI), Y3, Y3; \
	VMOVDQU Y0, 0(DI); \
	VMOVDQU Y1, 32(DI); \
	VMOVDQU Y2, 64(DI); \
	VMOVDQU Y3, 96(DI); \
	ADDQ    $128, DI; \
	ADDQ    $128, SI; \
	SUBQ    $4, CX; \
	JMP     loop4; \
loop1: \
	TESTQ   CX, CX; \
	JZ      zero; \
	VMOVDQU 0(DI), Y0; \
	VOP     0(SI), Y0, Y0; \
	VMOVDQU Y0, 0(DI); \
	ADDQ    $32, DI; \
	ADDQ    $32, SI; \
	DECQ    CX; \
	JMP     loop1; \
zero: \
	VZEROUPPER; \
done: \
	RET

// func sumInt32x8(dst, src []byte)
TEXT ·sumInt32x8(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	SUMLOOP(VPADDD)

// func sumInt64x4(dst, src []byte)
TEXT ·sumInt64x4(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	SUMLOOP(VPADDQ)

// func sumFloat32x8(dst, src []byte)
TEXT ·sumFloat32x8(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	SUMLOOP(VADDPS)

// func sumFloat64x4(dst, src []byte)
TEXT ·sumFloat64x4(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	SUMLOOP(VADDPD)

// func hasAVX2() bool
//
// CPUID leaf 1 reports AVX and OSXSAVE (ECX bits 28 and 27), XGETBV
// reports that the OS saves the XMM and YMM state (XCR0 bits 1 and 2),
// and CPUID leaf 7 reports AVX2 (EBX bit 5).
TEXT ·hasAVX2(SB), NOSPLIT, $0-1
	MOVB  $0, ret+0(FP)
	XORL  AX, AX
	CPUID
	CMPL  AX, $7
	JB    no
	MOVL  $1, AX
	XORL  CX, CX
	CPUID
	ANDL  $(1<<27|1<<28), CX
	CMPL  CX, $(1<<27|1<<28)
	JNE   no
	XORL  CX, CX
	XGETBV
	ANDL  $6, AX
	CMPL  AX, $6
	JNE   no
	MOVL  $7, AX
	XORL  CX, CX
	CPUID
	BTL   $5, BX
	JCC   no
	MOVB  $1, ret+0(FP)
no:
	RET
