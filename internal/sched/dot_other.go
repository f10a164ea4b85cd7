//go:build !amd64

package sched

// haveAVX2 is false off amd64: matVec runs the Go loops at every width, and
// the AVX2 names below are those loops.
const haveAVX2 = false

func packedDot2x2AVX2(x0, x1 []int64, w0, w1 []int32) (a00, a01, a10, a11 int64) {
	return packedDot2x2(x0, x1, w0, w1)
}

func packedDot2x2Finish(f *finisher, n, r, q int, x0, x1 []int64, w0, w1 []int32, b0, b1 int64) {
	a00, a01, a10, a11 := packedDot2x2(x0, x1, w0, w1)
	f.finishRow(n, r, q, a00, a01, b0)
	f.finishRow(n, r+1, q, a10, a11, b1)
}

func packedDot1x2AVX2(x0, x1 []int64, w []int32) (a0, a1 int64) {
	return packedDot1x2(x0, x1, w)
}

func packedDot2AVX2(x []int64, w0, w1 []int32) (acc0, acc1 int64) {
	return packedDot2(x, w0, w1)
}

func packedDotAVX2(x []int64, w []int32) int64 { return packedDot(x, w) }
