//go:build amd64 && !purego

// GF(256) bulk kernels, amd64. The SSSE3 and AVX2 multiply kernels use
// the PSHUFB nibble-table technique: tab points at a 32-byte table pair
// — 16 low-nibble products c·x, then 16 high-nibble products c·(x<<4) —
// and each input byte b yields lo[b&15] ^ hi[b>>4] = c·b, 16 lanes at a
// time (32 with AVX2). The GFNI kernels below multiply by a bit matrix
// instead. n is a positive multiple of the block size; the Go wrappers
// mask slice lengths before calling, and the generic word-wide loop
// handles the tail.

#include "textflag.h"

DATA nibMask<>+0x00(SB)/8, $0x0f0f0f0f0f0f0f0f
DATA nibMask<>+0x08(SB)/8, $0x0f0f0f0f0f0f0f0f
GLOBL nibMask<>(SB), RODATA|NOPTR, $16

// func gfMulSSSE3(tab *[32]byte, src, dst *byte, n int)
TEXT ·gfMulSSSE3(SB), NOSPLIT, $0-32
	MOVQ  tab+0(FP), AX
	MOVQ  src+8(FP), SI
	MOVQ  dst+16(FP), DI
	MOVQ  n+24(FP), CX
	MOVOU (AX), X0           // low-nibble product table
	MOVOU 16(AX), X1         // high-nibble product table
	MOVOU nibMask<>(SB), X2  // 0x0f per lane

ssse3MulLoop:
	MOVOU  (SI), X3
	MOVOU  X3, X4
	PSRLW  $4, X4
	PAND   X2, X3            // low nibbles
	PAND   X2, X4            // high nibbles
	MOVOU  X0, X5
	PSHUFB X3, X5            // lo[b&15]
	MOVOU  X1, X6
	PSHUFB X4, X6            // hi[b>>4]
	PXOR   X6, X5
	MOVOU  X5, (DI)
	ADDQ   $16, SI
	ADDQ   $16, DI
	SUBQ   $16, CX
	JNZ    ssse3MulLoop
	RET

// func gfMulAddSSSE3(tab *[32]byte, src, dst *byte, n int)
TEXT ·gfMulAddSSSE3(SB), NOSPLIT, $0-32
	MOVQ  tab+0(FP), AX
	MOVQ  src+8(FP), SI
	MOVQ  dst+16(FP), DI
	MOVQ  n+24(FP), CX
	MOVOU (AX), X0
	MOVOU 16(AX), X1
	MOVOU nibMask<>(SB), X2

ssse3MulAddLoop:
	MOVOU  (SI), X3
	MOVOU  X3, X4
	PSRLW  $4, X4
	PAND   X2, X3
	PAND   X2, X4
	MOVOU  X0, X5
	PSHUFB X3, X5
	MOVOU  X1, X6
	PSHUFB X4, X6
	PXOR   X6, X5
	MOVOU  (DI), X7
	PXOR   X7, X5            // accumulate into dst
	MOVOU  X5, (DI)
	ADDQ   $16, SI
	ADDQ   $16, DI
	SUBQ   $16, CX
	JNZ    ssse3MulAddLoop
	RET

// func gfMulAVX2(tab *[32]byte, src, dst *byte, n int)
TEXT ·gfMulAVX2(SB), NOSPLIT, $0-32
	MOVQ           tab+0(FP), AX
	MOVQ           src+8(FP), SI
	MOVQ           dst+16(FP), DI
	MOVQ           n+24(FP), CX
	VBROADCASTI128 (AX), Y0
	VBROADCASTI128 16(AX), Y1
	VBROADCASTI128 nibMask<>(SB), Y2
	CMPQ           CX, $64
	JB             avx2MulTail

avx2MulLoop64:
	VMOVDQU (SI), Y3
	VMOVDQU 32(SI), Y8
	VPSRLW  $4, Y3, Y4
	VPSRLW  $4, Y8, Y9
	VPAND   Y2, Y3, Y3
	VPAND   Y2, Y4, Y4
	VPAND   Y2, Y8, Y8
	VPAND   Y2, Y9, Y9
	VPSHUFB Y3, Y0, Y5
	VPSHUFB Y4, Y1, Y6
	VPSHUFB Y8, Y0, Y10
	VPSHUFB Y9, Y1, Y11
	VPXOR   Y6, Y5, Y5
	VPXOR   Y11, Y10, Y10
	VMOVDQU Y5, (DI)
	VMOVDQU Y10, 32(DI)
	ADDQ    $64, SI
	ADDQ    $64, DI
	SUBQ    $64, CX
	CMPQ    CX, $64
	JAE     avx2MulLoop64

avx2MulTail:
	TESTQ CX, CX
	JZ    avx2MulDone

	// exactly one 32-byte block remains (n is a multiple of 32)
	VMOVDQU (SI), Y3
	VPSRLW  $4, Y3, Y4
	VPAND   Y2, Y3, Y3
	VPAND   Y2, Y4, Y4
	VPSHUFB Y3, Y0, Y5
	VPSHUFB Y4, Y1, Y6
	VPXOR   Y6, Y5, Y5
	VMOVDQU Y5, (DI)

avx2MulDone:
	VZEROUPPER
	RET

// func gfMulAddAVX2(tab *[32]byte, src, dst *byte, n int)
TEXT ·gfMulAddAVX2(SB), NOSPLIT, $0-32
	MOVQ           tab+0(FP), AX
	MOVQ           src+8(FP), SI
	MOVQ           dst+16(FP), DI
	MOVQ           n+24(FP), CX
	VBROADCASTI128 (AX), Y0
	VBROADCASTI128 16(AX), Y1
	VBROADCASTI128 nibMask<>(SB), Y2
	CMPQ           CX, $64
	JB             avx2MulAddTail

avx2MulAddLoop64:
	VMOVDQU (SI), Y3
	VMOVDQU 32(SI), Y8
	VPSRLW  $4, Y3, Y4
	VPSRLW  $4, Y8, Y9
	VPAND   Y2, Y3, Y3
	VPAND   Y2, Y4, Y4
	VPAND   Y2, Y8, Y8
	VPAND   Y2, Y9, Y9
	VPSHUFB Y3, Y0, Y5
	VPSHUFB Y4, Y1, Y6
	VPSHUFB Y8, Y0, Y10
	VPSHUFB Y9, Y1, Y11
	VPXOR   Y6, Y5, Y5
	VPXOR   Y11, Y10, Y10
	VPXOR   (DI), Y5, Y5
	VPXOR   32(DI), Y10, Y10
	VMOVDQU Y5, (DI)
	VMOVDQU Y10, 32(DI)
	ADDQ    $64, SI
	ADDQ    $64, DI
	SUBQ    $64, CX
	CMPQ    CX, $64
	JAE     avx2MulAddLoop64

avx2MulAddTail:
	TESTQ CX, CX
	JZ    avx2MulAddDone

	VMOVDQU (SI), Y3
	VPSRLW  $4, Y3, Y4
	VPAND   Y2, Y3, Y3
	VPAND   Y2, Y4, Y4
	VPSHUFB Y3, Y0, Y5
	VPSHUFB Y4, Y1, Y6
	VPXOR   Y6, Y5, Y5
	VPXOR   (DI), Y5, Y5
	VMOVDQU Y5, (DI)

avx2MulAddDone:
	VZEROUPPER
	RET

// func gfXorSSE2(src, dst *byte, n int)
TEXT ·gfXorSSE2(SB), NOSPLIT, $0-24
	MOVQ src+0(FP), SI
	MOVQ dst+8(FP), DI
	MOVQ n+16(FP), CX

sse2XorLoop:
	MOVOU (SI), X0
	MOVOU (DI), X1
	PXOR  X1, X0
	MOVOU X0, (DI)
	ADDQ  $16, SI
	ADDQ  $16, DI
	SUBQ  $16, CX
	JNZ   sse2XorLoop
	RET

// func gfXorAVX2(src, dst *byte, n int)
TEXT ·gfXorAVX2(SB), NOSPLIT, $0-24
	MOVQ src+0(FP), SI
	MOVQ dst+8(FP), DI
	MOVQ n+16(FP), CX
	CMPQ CX, $64
	JB   avx2XorTail

avx2XorLoop64:
	VMOVDQU (SI), Y0
	VMOVDQU 32(SI), Y1
	VPXOR   (DI), Y0, Y0
	VPXOR   32(DI), Y1, Y1
	VMOVDQU Y0, (DI)
	VMOVDQU Y1, 32(DI)
	ADDQ    $64, SI
	ADDQ    $64, DI
	SUBQ    $64, CX
	CMPQ    CX, $64
	JAE     avx2XorLoop64

avx2XorTail:
	TESTQ CX, CX
	JZ    avx2XorDone

	VMOVDQU (SI), Y0
	VPXOR   (DI), Y0, Y0
	VMOVDQU Y0, (DI)

avx2XorDone:
	VZEROUPPER
	RET

// GFNI kernels. VGF2P8AFFINEQB multiplies every byte of a register by
// an 8×8 bit matrix over GF(2); mat points at the matrix of one
// coefficient (gfniMatrices), so one instruction yields 64 products.
// n is a positive multiple of 64.

// func gfMulGFNI(mat *uint64, src, dst *byte, n int)
TEXT ·gfMulGFNI(SB), NOSPLIT, $0-32
	MOVQ         mat+0(FP), AX
	MOVQ         src+8(FP), SI
	MOVQ         dst+16(FP), DI
	MOVQ         n+24(FP), CX
	VPBROADCASTQ (AX), Z8
	CMPQ         CX, $128
	JB           gfniMulTail

gfniMulLoop128:
	VMOVDQU64      (SI), Z0
	VMOVDQU64      64(SI), Z1
	VGF2P8AFFINEQB $0, Z8, Z0, Z0
	VGF2P8AFFINEQB $0, Z8, Z1, Z1
	VMOVDQU64      Z0, (DI)
	VMOVDQU64      Z1, 64(DI)
	ADDQ           $128, SI
	ADDQ           $128, DI
	SUBQ           $128, CX
	CMPQ           CX, $128
	JAE            gfniMulLoop128

gfniMulTail:
	TESTQ CX, CX
	JZ    gfniMulDone

	// exactly one 64-byte block remains (n is a multiple of 64)
	VMOVDQU64      (SI), Z0
	VGF2P8AFFINEQB $0, Z8, Z0, Z0
	VMOVDQU64      Z0, (DI)

gfniMulDone:
	VZEROUPPER
	RET

// func gfMulAddGFNI(mat *uint64, src, dst *byte, n int)
TEXT ·gfMulAddGFNI(SB), NOSPLIT, $0-32
	MOVQ         mat+0(FP), AX
	MOVQ         src+8(FP), SI
	MOVQ         dst+16(FP), DI
	MOVQ         n+24(FP), CX
	VPBROADCASTQ (AX), Z8
	CMPQ         CX, $128
	JB           gfniMulAddTail

gfniMulAddLoop128:
	VMOVDQU64      (SI), Z0
	VMOVDQU64      64(SI), Z1
	VGF2P8AFFINEQB $0, Z8, Z0, Z0
	VGF2P8AFFINEQB $0, Z8, Z1, Z1
	VPXORQ         (DI), Z0, Z0
	VPXORQ         64(DI), Z1, Z1
	VMOVDQU64      Z0, (DI)
	VMOVDQU64      Z1, 64(DI)
	ADDQ           $128, SI
	ADDQ           $128, DI
	SUBQ           $128, CX
	CMPQ           CX, $128
	JAE            gfniMulAddLoop128

gfniMulAddTail:
	TESTQ CX, CX
	JZ    gfniMulAddDone

	VMOVDQU64      (SI), Z0
	VGF2P8AFFINEQB $0, Z8, Z0, Z0
	VPXORQ         (DI), Z0, Z0
	VMOVDQU64      Z0, (DI)

gfniMulAddDone:
	VZEROUPPER
	RET

// func gfMulSumGFNI(mats *[256]uint64, coefs *byte, srcs *[]byte, k int, dst *byte, n int)
//
// dst[:n] = Σᵢ coefs[i]·srcs[i][:n] over the k ≥ 1 sources: each 256
// bytes of dst (64 at the end) are summed in registers over every
// source and stored once, so each source is read once and dst is
// written once. A zero coefficient skips its source.
TEXT ·gfMulSumGFNI(SB), NOSPLIT, $0-48
	MOVQ mats+0(FP), AX
	MOVQ coefs+8(FP), BX
	MOVQ k+24(FP), DX
	MOVQ dst+32(FP), DI
	MOVQ n+40(FP), CX
	XORQ R8, R8                 // byte offset into dst and every source

gfniSumBlock256:
	MOVQ CX, R9
	SUBQ R8, R9
	CMPQ R9, $256
	JB   gfniSumBlock64
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	MOVQ srcs+16(FP), SI        // the current source's slice header
	XORQ R9, R9                 // source index

gfniSumSource256:
	MOVBQZX        (BX)(R9*1), R10
	TESTQ          R10, R10
	JZ             gfniSumNext256
	VPBROADCASTQ   (AX)(R10*8), Z8
	MOVQ           (SI), R11
	ADDQ           R8, R11
	VMOVDQU64      (R11), Z4
	VMOVDQU64      64(R11), Z5
	VMOVDQU64      128(R11), Z6
	VMOVDQU64      192(R11), Z7
	VGF2P8AFFINEQB $0, Z8, Z4, Z4
	VGF2P8AFFINEQB $0, Z8, Z5, Z5
	VGF2P8AFFINEQB $0, Z8, Z6, Z6
	VGF2P8AFFINEQB $0, Z8, Z7, Z7
	VPXORQ         Z4, Z0, Z0
	VPXORQ         Z5, Z1, Z1
	VPXORQ         Z6, Z2, Z2
	VPXORQ         Z7, Z3, Z3

gfniSumNext256:
	ADDQ $24, SI
	INCQ R9
	CMPQ R9, DX
	JB   gfniSumSource256
	VMOVDQU64 Z0, (DI)(R8*1)
	VMOVDQU64 Z1, 64(DI)(R8*1)
	VMOVDQU64 Z2, 128(DI)(R8*1)
	VMOVDQU64 Z3, 192(DI)(R8*1)
	ADDQ      $256, R8
	JMP       gfniSumBlock256

gfniSumBlock64:
	CMPQ   R8, CX
	JAE    gfniSumDone
	VPXORQ Z0, Z0, Z0
	MOVQ   srcs+16(FP), SI
	XORQ   R9, R9

gfniSumSource64:
	MOVBQZX        (BX)(R9*1), R10
	TESTQ          R10, R10
	JZ             gfniSumNext64
	VPBROADCASTQ   (AX)(R10*8), Z8
	MOVQ           (SI), R11
	VMOVDQU64      (R11)(R8*1), Z4
	VGF2P8AFFINEQB $0, Z8, Z4, Z4
	VPXORQ         Z4, Z0, Z0

gfniSumNext64:
	ADDQ $24, SI
	INCQ R9
	CMPQ R9, DX
	JB   gfniSumSource64
	VMOVDQU64 Z0, (DI)(R8*1)
	ADDQ      $64, R8
	JMP       gfniSumBlock64

gfniSumDone:
	VZEROUPPER
	RET

// func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidex(SB), NOSPLIT, $0-24
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
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
