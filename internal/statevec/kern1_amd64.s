#include "textflag.h"

// func kern1AVX2(amp []complex128, bit, lo, hi int, u *[4]complex128)
//
// The AVX2 form of kern1Go. Every complex product x*y is formed the way
// the Go compiler lowers it at GOAMD64=v1 — re = xr*yr - xi*yi and
// im = xr*yi + xi*yr, each product and each sum rounded on its own — so
// the result is bit-identical:
//
//	VMULPD    a       * bcast(ur)  -> [ar*ur, ai*ur]
//	VMULPD    swap(a) * bcast(ui)  -> [ai*ui, ar*ui]
//	VADDSUBPD                      -> [ar*ur - ai*ui, ai*ur + ar*ui]
//
// followed by VADDPD for u00*a0 + u01*a1. No FMA anywhere.
//
// u holds u00, u01, u10, u11: byte offsets 0/8 (re/im of u00), 16/24,
// 32/40 and 48/56. The caller bounds-checks amp.
TEXT ·kern1AVX2(SB), NOSPLIT, $0-56
	MOVQ amp_base+0(FP), SI
	MOVQ bit+24(FP), BX
	MOVQ lo+32(FP), CX
	MOVQ hi+40(FP), DX
	MOVQ u+48(FP), DI

	MOVQ DX, R9
	SUBQ CX, R9              // R9 = units to sweep
	JLE  done
	MOVQ BX, R8
	SHLQ $4, R8              // R8 = bit*16: bytes in half a block
	MOVQ CX, AX
	IMULQ R8, AX
	SHLQ $1, AX
	ADDQ SI, AX              // AX = &amp[lo*2*bit]
	CMPQ BX, $1
	JEQ  bit1

	// bit >= 2: a block's halves are amp[base:base+bit] and
	// amp[base+bit:base+2*bit]; each iteration takes two pairs, one
	// 256-bit load from each half.
	VBROADCASTSD 0(DI), Y8   // u00 re
	VBROADCASTSD 8(DI), Y9   // u00 im
	VBROADCASTSD 16(DI), Y10 // u01 re
	VBROADCASTSD 24(DI), Y11 // u01 im
	VBROADCASTSD 32(DI), Y12 // u10 re
	VBROADCASTSD 40(DI), Y13 // u10 im
	VBROADCASTSD 48(DI), Y14 // u11 re
	VBROADCASTSD 56(DI), Y15 // u11 im

block:
	LEAQ (AX)(R8*1), R10     // R10 = end of the lower half

pairs:
	VMOVUPD   (AX), Y0       // a0 of two pairs
	VMOVUPD   (AX)(R8*1), Y1 // a1 of the same two pairs
	VPERMILPD $5, Y0, Y2     // swap re/im in each complex
	VPERMILPD $5, Y1, Y3

	VMULPD    Y8, Y0, Y4
	VMULPD    Y9, Y2, Y5
	VADDSUBPD Y5, Y4, Y4     // u00*a0
	VMULPD    Y10, Y1, Y5
	VMULPD    Y11, Y3, Y6
	VADDSUBPD Y6, Y5, Y5     // u01*a1
	VADDPD    Y5, Y4, Y4     // u00*a0 + u01*a1

	VMULPD    Y12, Y0, Y5
	VMULPD    Y13, Y2, Y6
	VADDSUBPD Y6, Y5, Y5     // u10*a0
	VMULPD    Y14, Y1, Y6
	VMULPD    Y15, Y3, Y7
	VADDSUBPD Y7, Y6, Y6     // u11*a1
	VADDPD    Y6, Y5, Y5     // u10*a0 + u11*a1

	VMOVUPD Y4, (AX)
	VMOVUPD Y5, (AX)(R8*1)
	ADDQ    $32, AX
	CMPQ    AX, R10
	JB      pairs

	ADDQ R8, AX              // skip the upper half
	DECQ R9
	JNZ  block
	JMP  done

bit1:
	// bit == 1: a block is one pair, [a0 | a1] in a single register.
	// Lay the matrix out by lane so one pass forms both rows:
	//   diag  = [u00 | u11] against [a0 | a1]
	//   cross = [u01 | u10] against [a1 | a0]
	// and row sums u00*a0 + u01*a1 | u11*a1 + u10*a0 (addition commutes
	// exactly, so the second lane equals Go's u10*a0 + u11*a1).
	VMOVDDUP     0(DI), X8
	VMOVDDUP     48(DI), X4
	VINSERTF128  $1, X4, Y8, Y8   // [u00 re x2 | u11 re x2]
	VMOVDDUP     8(DI), X9
	VMOVDDUP     56(DI), X4
	VINSERTF128  $1, X4, Y9, Y9   // [u00 im x2 | u11 im x2]
	VMOVDDUP     16(DI), X10
	VMOVDDUP     32(DI), X4
	VINSERTF128  $1, X4, Y10, Y10 // [u01 re x2 | u10 re x2]
	VMOVDDUP     24(DI), X11
	VMOVDDUP     40(DI), X4
	VINSERTF128  $1, X4, Y11, Y11 // [u01 im x2 | u10 im x2]

onepair:
	VMOVUPD    (AX), Y0          // [a0 | a1]
	VPERM2F128 $1, Y0, Y0, Y1    // [a1 | a0]
	VPERMILPD  $5, Y0, Y2
	VPERMILPD  $5, Y1, Y3

	VMULPD    Y8, Y0, Y4
	VMULPD    Y9, Y2, Y5
	VADDSUBPD Y5, Y4, Y4         // [u00*a0 | u11*a1]
	VMULPD    Y10, Y1, Y5
	VMULPD    Y11, Y3, Y6
	VADDSUBPD Y6, Y5, Y5         // [u01*a1 | u10*a0]
	VADDPD    Y5, Y4, Y4

	VMOVUPD Y4, (AX)
	ADDQ    $32, AX
	DECQ    R9
	JNZ     onepair

done:
	VZEROUPPER
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

// func xgetbv0() uint32
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET
