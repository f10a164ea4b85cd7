package sched

// haveAVX2 is whether this CPU runs AVX2 and its OS saves the YMM registers
// across context switches, asked once of CPUID and XGETBV: the module has no
// dependencies, so no x/sys/cpu.
var haveAVX2 = cpuHasAVX2()

func cpuHasAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	const xmmYmmState = 1<<1 | 1<<2
	if xcr0, _ := xgetbv(); xcr0&xmmYmmState != xmmYmmState {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

// The AVX2 kernels (dot_amd64.s) are the Go loops of the same name without
// the suffix, bit for bit. Each wrapper reslices every operand to len(x0) —
// a length that does not fit panics here, in Go — and the assembly reads
// nothing past it.

func packedDot2x2AVX2(x0, x1 []int64, w0, w1 []int32) (a00, a01, a10, a11 int64) {
	n := len(x0)
	return packedDot2x2Asm(x0, x1[:n], w0[:n], w1[:n])
}

func packedDot1x2AVX2(x0, x1 []int64, w []int32) (a0, a1 int64) {
	n := len(x0)
	return packedDot1x2Asm(x0, x1[:n], w[:n])
}

func packedDot2AVX2(x []int64, w0, w1 []int32) (acc0, acc1 int64) {
	n := len(x)
	return packedDot2Asm(x, w0[:n], w1[:n])
}

func packedDotAVX2(x []int64, w []int32) int64 {
	return packedDotAsm(x, w[:len(x)])
}

// packedDot2x2Finish is packedDot2x2, then finishRow of rows r and r+1 for
// pairs q and q+1, in one AVX2 kernel: for a finisher that matVec fuses
// (a floor and a requant into packed lanes) and two full pairs, 2q+3 < n.
func packedDot2x2Finish(f *finisher, n, r, q int, x0, x1 []int64, w0, w1 []int32, b0, b1 int64) {
	k, j := len(x0), q*f.step+r
	packedDot2x2FinishAsm(x0, x1[:k], w0[:k], w1[:k], f, int32(b0), int32(b1), (*[2]int64)(f.packed[j:]), (*[2]int64)(f.packed[j+f.step:]))
}

//go:noescape
func packedDot2x2Asm(x0, x1 []int64, w0, w1 []int32) (a00, a01, a10, a11 int64)

//go:noescape
func packedDot2x2FinishAsm(x0, x1 []int64, w0, w1 []int32, f *finisher, b0, b1 int32, d0, d1 *[2]int64)

//go:noescape
func packedDot1x2Asm(x0, x1 []int64, w []int32) (a0, a1 int64)

//go:noescape
func packedDot2Asm(x []int64, w0, w1 []int32) (acc0, acc1 int64)

//go:noescape
func packedDotAsm(x []int64, w []int32) (acc int64)

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
