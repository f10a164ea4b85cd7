//go:build !amd64

package sched

// haveAVX2 is false off amd64: matVec runs the Go loops and the Go finisher,
// and packedDot2x2Finish below is its own specification.
const haveAVX2 = false

func packedDot2x2Finish(f *finisher, n, r, q int, x0, x1 []int64, w0, w1 []int32, b0, b1 int64) {
	a00, a01, a10, a11 := packedDot2x2(x0, x1, w0, w1)
	f.finishRow(n, r, q, a00, a01, b0)
	f.finishRow(n, r+1, q, a10, a11, b1)
}
