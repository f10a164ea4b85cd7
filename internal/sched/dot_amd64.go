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

// packedDot2x2Finish is packedDot2x2, then finishRow of rows r and r+1 for
// pairs q and q+1, in one AVX2 kernel (dot_amd64.s), bit for bit: for a
// finisher that matVec fuses (a floor and a requant into packed lanes) and
// two full pairs, 2q+3 < n. It reslices every operand to len(x0) — a length
// that does not fit panics here, in Go — and the assembly reads nothing past
// it.
func packedDot2x2Finish(f *finisher, n, r, q int, x0, x1 []int64, w0, w1 []int32, b0, b1 int64) {
	k, j := len(x0), q*f.step+r
	packedDot2x2FinishAsm(x0, x1[:k], w0[:k], w1[:k], f, int32(b0), int32(b1), (*[2]int64)(f.packed[j:]), (*[2]int64)(f.packed[j+f.step:]))
}

//go:noescape
func packedDot2x2FinishAsm(x0, x1 []int64, w0, w1 []int32, f *finisher, b0, b1 int32, d0, d1 *[2]int64)

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
