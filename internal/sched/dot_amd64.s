#include "go_asm.h"
#include "textflag.h"

// The fused 2 x 2 block on AVX2 lanes, four int64 lanes to a Y register:
// packedDot2x2FinishAsm dots two packed slot pairs with two rows, as the Go
// loop packedDot2x2 in program.go does, bit for bit, then runs finishRow's
// epilogue on the four sums and stores the lanes packed.
//
// A packed lane splits as X = a + b<<32 with a = int32(X) in [-2^31, 2^31),
// so X*w = a*w + (b*w)<<32 (mod 2^64), and only b mod 2^32 matters. VPMULDQ
// multiplies the low signed dwords of two quadwords into an exact int64: a*w
// is VPMULDQ of X itself, and b*w is VPMULDQ of SPLIT's B, the high dword of
// X + 2^31 — which is (a + 2^31) + b<<32 with the low part in [0, 2^32), so
// its high dword is b mod 2^32 (the raw high dword, plus one when a < 0).
// Each row keeps its a-products (lo) and its b-products (hi) in lanes of
// their own; the end folds them to lo + hi<<32 over the four lanes. The last
// len%4 products are the Go loop's own IMULQ, added to the sums.

// SPLIT sets B's low dwords to the b of X's quadwords; H holds 2^31 in
// each quadword.
#define SPLIT(X, B, H) \
	VPADDQ H, X, B; \
	VPSRLQ $32, B, B

// MAC adds the product of the low dwords of X and W to ACC; T is scratch.
#define MAC(W, X, ACC, T) \
	VPMULDQ W, X, T; \
	VPADDQ  T, ACC, ACC

// FOLD sets LO's lanes to LO + HI<<32.
#define FOLD(LO, HI) \
	VPSLLQ $32, HI, HI; \
	VPADDQ HI, LO, LO

// PAIR sets D's lanes to [A0+A1, B0+B1, A2+A3, B2+B3]; T is scratch.
#define PAIR(A, B, D, T) \
	VPUNPCKLQDQ B, A, D; \
	VPUNPCKHQDQ B, A, T; \
	VPADDQ      T, D, D

// SRAQ shifts V's quadwords right arithmetically by the count in X: AVX2 has
// no VPSRAQ, so the shift is logical between two flips by the sign mask, T
// (Z holds zero).
#define SRAQ(X, V, Z, T) \
	VPCMPGTQ V, Z, T; \
	VPXOR    T, V, V; \
	VPSRLQ   X, V, V; \
	VPXOR    T, V, V

// func packedDot2x2FinishAsm(x0, x1 []int64, w0, w1 []int32, f *finisher, b0, b1 int32, d0, d1 *[2]int64)
//
// The packed dots [a00, a01, a10, a11] of pairs x0 and x1 with rows w0 and
// w1 into Y0, then finishRow of rows r and r+1 (biases b0, b1) for the two
// full pairs through f's floor, rescale and clamp, one dword a slot: d0 gets
// [row r, row r+1] of pair x0 packed, d1 those of pair x1.
TEXT ·packedDot2x2FinishAsm(SB), NOSPLIT, $0-128
	MOVQ  x0_base+0(FP), SI
	MOVQ  x0_len+8(FP), CX
	MOVQ  x1_base+24(FP), DI
	MOVQ  w0_base+48(FP), R8
	MOVQ  w1_base+72(FP), R9

	// Y6 holds 2^31 in each quadword, the bias SPLIT adds.
	MOVQ         $0x80000000, DX
	VMOVQ        DX, X6
	VPBROADCASTQ X6, Y6
	VPXOR Y8, Y8, Y8
	VPXOR Y9, Y9, Y9
	VPXOR Y10, Y10, Y10
	VPXOR Y11, Y11, Y11
	VPXOR Y12, Y12, Y12
	VPXOR Y13, Y13, Y13
	VPXOR Y14, Y14, Y14
	VPXOR Y15, Y15, Y15
	XORQ  AX, AX
	MOVQ  CX, BX
	ANDQ  $-4, BX
	JZ    fold

loop:
	VMOVDQU   (SI)(AX*8), Y0
	VMOVDQU   (DI)(AX*8), Y2
	VPMOVSXDQ (R8)(AX*4), Y4
	VPMOVSXDQ (R9)(AX*4), Y5
	SPLIT(Y0, Y1, Y6)
	SPLIT(Y2, Y3, Y6)
	MAC(Y4, Y0, Y8, Y7)
	MAC(Y4, Y1, Y9, Y7)
	MAC(Y4, Y2, Y10, Y7)
	MAC(Y4, Y3, Y11, Y7)
	MAC(Y5, Y0, Y12, Y7)
	MAC(Y5, Y1, Y13, Y7)
	MAC(Y5, Y2, Y14, Y7)
	MAC(Y5, Y3, Y15, Y7)
	ADDQ      $4, AX
	CMPQ      AX, BX
	JB        loop

fold:
	FOLD(Y8, Y9)
	FOLD(Y10, Y11)
	FOLD(Y12, Y13)
	FOLD(Y14, Y15)
	PAIR(Y8, Y10, Y0, Y1)
	PAIR(Y12, Y14, Y2, Y3)
	VPERM2I128 $0x21, Y2, Y0, Y1
	VPBLENDD   $0xf0, Y2, Y0, Y0
	VPADDQ     Y1, Y0, Y0
	CMPQ       AX, CX
	JAE        dotted
	XORQ       R10, R10
	XORQ       R11, R11
	XORQ       R12, R12
	XORQ       R13, R13

tail:
	MOVLQSX (R8)(AX*4), DX
	MOVQ    (SI)(AX*8), BX
	IMULQ   DX, BX
	ADDQ    BX, R10
	MOVQ    (DI)(AX*8), BX
	IMULQ   DX, BX
	ADDQ    BX, R11
	MOVLQSX (R9)(AX*4), DX
	MOVQ    (SI)(AX*8), BX
	IMULQ   DX, BX
	ADDQ    BX, R12
	MOVQ    (DI)(AX*8), BX
	IMULQ   DX, BX
	ADDQ    BX, R13
	INCQ    AX
	CMPQ    AX, CX
	JB      tail
	VMOVQ       R10, X1
	VPINSRQ     $1, R11, X1, X1
	VMOVQ       R12, X2
	VPINSRQ     $1, R13, X2, X2
	VINSERTI128 $1, X2, Y1, Y1
	VPADDQ      Y1, Y0, Y0

dotted:
	MOVQ f+96(FP), DX
	VPERMQ $0xd8, Y0, Y0

	// The high half of acc = lo + hi<<32 is its odd dword plus one where lo < 0.
	VPSRLD $31, Y0, Y1
	VPSLLQ $32, Y1, Y1
	VPADDD Y1, Y0, Y0

	// sat32(v + b): where v and b share a sign s = v + b does not, saturate to
	// v's side, (v>>31) ^ MaxInt32.
	MOVL         b0+104(FP), AX
	MOVL         b1+108(FP), BX
	SHLQ         $32, BX
	ORQ          BX, AX
	VMOVQ        AX, X1
	VPBROADCASTQ X1, Y1
	VPSHUFD      $0x50, Y1, Y1
	VPADDD       Y1, Y0, Y2
	VPXOR        Y2, Y0, Y3
	VPXOR        Y2, Y1, Y1
	VPAND        Y1, Y3, Y3
	VPCMPEQD     Y4, Y4, Y4
	VPSRLD       $1, Y4, Y4
	VPSRAD       $31, Y0, Y1
	VPXOR        Y4, Y1, Y1
	VBLENDVPS    Y3, Y1, Y2, Y0

	// The floor, then (v*m0 + half) >> sh of the even dwords in Y0 and of
	// the odd ones in Y3, as int64s.
	VPBROADCASTD finisher_floor(DX), Y1
	VPMAXSD      Y1, Y0, Y0
	VPBROADCASTQ finisher_m0(DX), Y1
	VPBROADCASTQ finisher_half(DX), Y2
	VPSRLQ       $32, Y0, Y3
	VPMULDQ      Y1, Y0, Y0
	VPMULDQ      Y1, Y3, Y3
	VPADDQ       Y2, Y0, Y0
	VPADDQ       Y2, Y3, Y3
	VMOVQ        finisher_sh(DX), X1
	VPXOR        Y2, Y2, Y2
	SRAQ(X1, Y0, Y2, Y4)
	SRAQ(X1, Y3, Y2, Y4)

	// int32 of each, clamped to [lo, hi], and packed: the odd dword takes the
	// even one's borrow, int64(lo) + int64(hi)<<32.
	VPSLLQ       $32, Y3, Y3
	VPBLENDD     $0xaa, Y3, Y0, Y0
	VPBROADCASTD finisher_lo(DX), Y1
	VPBROADCASTD finisher_hi(DX), Y2
	VPMAXSD      Y1, Y0, Y0
	VPMINSD      Y2, Y0, Y0
	VPSRAD       $31, Y0, Y1
	VPSLLQ       $32, Y1, Y1
	VPADDD       Y1, Y0, Y0
	MOVQ         d0+112(FP), AX
	MOVQ         d1+120(FP), BX
	VMOVDQU      X0, (AX)
	VEXTRACTI128 $1, Y0, (BX)
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

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL   $0, CX
	XGETBV
	MOVL   AX, eax+0(FP)
	MOVL   DX, edx+4(FP)
	RET
