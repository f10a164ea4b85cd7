package sched

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"

	"taurus/internal/fixed"
)

// dotWeights are the weights a draw picks from: the int32 extremes, the
// values next to them, and small ones.
var dotWeights = []int32{math.MinInt32, math.MinInt32 + 1, math.MaxInt32, math.MaxInt32 - 1, -1, 0, 1, 127, -128, 1 << 16}

// dotLane draws a packed lane over the full int64 range: uniform bits, or
// a pair of halves from the int32 extremes, so low halves of both signs
// borrow from high halves that sit at their own extremes.
func dotLane(rng *rand.Rand) int64 {
	if rng.Intn(2) == 0 {
		return int64(rng.Uint64())
	}
	lo := int64(dotWeights[rng.Intn(len(dotWeights))])
	hi := int64(dotWeights[rng.Intn(len(dotWeights))])
	return lo + hi<<32
}

func dotWeight(rng *rand.Rand) int32 {
	if rng.Intn(2) == 0 {
		return int32(rng.Uint32())
	}
	return dotWeights[rng.Intn(len(dotWeights))]
}

// wrapDot is a packed dot spelled in uint64, where Go's multiply and add
// wrap by definition: the sum the int64 loops must give.
func wrapDot(x []int64, w []int32) int64 {
	var acc uint64
	for i, xv := range x {
		acc += uint64(xv) * uint64(int64(w[i]))
	}
	return int64(acc)
}

// checkPackedDots holds each Go dot loop — the kernels of every block
// packedDot2x2Finish does not take — to wrapDot of each (pair, row) on the
// same operands, all of x0's length.
func checkPackedDots(t *testing.T, x0, x1 []int64, w0, w1 []int32) {
	t.Helper()
	check := func(kernel string, got, want []int64) {
		t.Helper()
		if !slices.Equal(got, want) {
			t.Fatalf("width %d: %s gives %v, the wrapping sum %v (x0 %v, x1 %v, w0 %v, w1 %v)",
				len(x0), kernel, got, want, x0, x1, w0, w1)
		}
	}
	d00, d01, d10, d11 := wrapDot(x0, w0), wrapDot(x1, w0), wrapDot(x0, w1), wrapDot(x1, w1)
	a00, a01, a10, a11 := packedDot2x2(x0, x1, w0, w1)
	check("packedDot2x2", []int64{a00, a01, a10, a11}, []int64{d00, d01, d10, d11})
	a0, a1 := packedDot1x2(x0, x1, w0)
	check("packedDot1x2", []int64{a0, a1}, []int64{d00, d01})
	a0, a1 = packedDot2(x0, w0, w1)
	check("packedDot2", []int64{a0, a1}, []int64{d00, d10})
	check("packedDot", []int64{packedDot(x1, w1)}, []int64{d11})
}

// TestPackedDotKernels: every Go dot loop returns the wrapping sum of its
// (pair, row) products at every width from 0 to 70, on full-range lanes
// against int32 weight extremes, and on the lanes that make every product
// wrap.
func TestPackedDotKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for width := 0; width <= 70; width++ {
		for range 200 {
			x0, x1 := make([]int64, width), make([]int64, width)
			w0, w1 := make([]int32, width), make([]int32, width)
			for i := range width {
				x0[i], x1[i] = dotLane(rng), dotLane(rng)
				w0[i], w1[i] = dotWeight(rng), dotWeight(rng)
			}
			checkPackedDots(t, x0, x1, w0, w1)
		}
		x0, x1 := make([]int64, width), make([]int64, width)
		w0, w1 := make([]int32, width), make([]int32, width)
		for i := range width {
			x0[i], x1[i] = math.MinInt64, math.MaxInt64
			w0[i], w1[i] = math.MinInt32, math.MaxInt32
		}
		checkPackedDots(t, x0, x1, w0, w1)
		checkPackedDots(t, x1, x0, w1, w0)
	}
}

// FuzzPackedDot: the Go dot loops against the wrapping sum on lanes and
// weights read from the fuzzer's bytes, 8 bytes a lane and 4 a weight, two
// of each per element.
func FuzzPackedDot(f *testing.F) {
	f.Add([]byte{})
	f.Add(make([]byte, 24*5))
	edge := make([]byte, 24*19)
	for i := range edge {
		edge[i] = byte(0x80 ^ i*37)
	}
	f.Add(edge)
	f.Fuzz(func(t *testing.T, data []byte) {
		x0, x1, w0, w1 := dotOperands(data)
		checkPackedDots(t, x0, x1, w0, w1)
	})
}

// dotOperands reads two pairs' lanes and two rows' weights from data, 24
// bytes an element: x0, x1 (8 bytes each), then w0, w1 (4 bytes each).
func dotOperands(data []byte) (x0, x1 []int64, w0, w1 []int32) {
	width := len(data) / 24
	x0, x1 = make([]int64, width), make([]int64, width)
	w0, w1 = make([]int32, width), make([]int32, width)
	for i := range width {
		e := data[i*24:]
		x0[i] = int64(binary.LittleEndian.Uint64(e))
		x1[i] = int64(binary.LittleEndian.Uint64(e[8:]))
		w0[i] = int32(binary.LittleEndian.Uint32(e[16:]))
		w1[i] = int32(binary.LittleEndian.Uint32(e[20:]))
	}
	return x0, x1, w0, w1
}

func skipWithoutAVX2(t testing.TB) {
	if !haveAVX2 {
		t.Skip("this CPU has no AVX2 (or its OS does not save YMM state): only the Go loops run here")
	}
}

// checkPackedDotFinish holds packedDot2x2Finish to its specification —
// packedDot2x2, then finishRow of both rows — on a requant layer of two
// rows handed over packed, as matVec resolves it (finishFor): floor 0 for a
// ReLU, MinInt32 without, multiplier m, two full pairs in a sweep of four
// slots. Both write every lane of the two pairs and their bounds.
func checkPackedDotFinish(t *testing.T, x0, x1 []int64, w0, w1 []int32, b0, b1 int32, relu bool, m fixed.Multiplier) {
	t.Helper()
	ins := &Instr{Op: OpMatVec, W: 2, DStride: 3, Quant: OpRequant, Packed: true}
	if relu {
		ins.Act = OpRelu
	}
	var f finisher
	f.finishFor(ins, &Image{mults: []fixed.Multiplier{m}}, &Arena{packed: make([]int64, 2*ins.DStride)}, 4)
	want := f
	want.packed = slices.Clone(f.packed)
	packedDot2x2Finish(&f, 4, 0, 0, x0, x1, w0, w1, int64(b0), int64(b1))
	a00, a01, a10, a11 := packedDot2x2(x0, x1, w0, w1)
	want.finishRow(4, 0, 0, a00, a01, int64(b0))
	want.finishRow(4, 1, 0, a10, a11, int64(b1))
	if !slices.Equal(f.packed, want.packed) {
		t.Fatalf("width %d, biases %d %d, relu %v, %+v: packedDot2x2Finish stores %#x, packedDot2x2 and finishRow %#x (x0 %v, x1 %v, w0 %v, w1 %v)",
			len(x0), b0, b1, relu, m, f.packed, want.packed, x0, x1, w0, w1)
	}
}

// TestPackedDotFinish: the fused AVX2 kernel stores what packedDot2x2 and
// finishRow store, at every width from 0 to 70, on full-range lanes and
// weights, biases from the int32 extremes, with and without a ReLU's floor,
// for multipliers at every shift NewMultiplier makes (1 to 62) and at the
// shifts of 63 and more that rescale everything to 0, and on the lanes that
// make every product wrap. Each of its steps —
// the high half's carry, the saturating bias, the floor, the arithmetic
// shift and the repack's borrow — dropped fails here.
func TestPackedDotFinish(t *testing.T) {
	skipWithoutAVX2(t)
	rng := rand.New(rand.NewSource(43))
	for width := 0; width <= 70; width++ {
		for k := range 120 {
			x0, x1 := make([]int64, width), make([]int64, width)
			w0, w1 := make([]int32, width), make([]int32, width)
			for i := range width {
				x0[i], x1[i] = dotLane(rng), dotLane(rng)
				w0[i], w1[i] = dotWeight(rng), dotWeight(rng)
			}
			m := fixed.Multiplier{M0: 1<<30 + rng.Int31n(1<<30), Shift: 1 + k%62}
			if k%20 == 0 {
				m.Shift = 63 + rng.Intn(8)
			}
			checkPackedDotFinish(t, x0, x1, w0, w1, dotWeight(rng), dotWeight(rng), k%2 == 0, m)
		}
		x0, x1 := make([]int64, width), make([]int64, width)
		w0, w1 := make([]int32, width), make([]int32, width)
		for i := range width {
			x0[i], x1[i] = math.MinInt64, math.MaxInt64
			w0[i], w1[i] = math.MinInt32, math.MaxInt32
		}
		m := fixed.Multiplier{M0: 1 << 30, Shift: 31}
		checkPackedDotFinish(t, x0, x1, w0, w1, 0, 0, false, m)
		checkPackedDotFinish(t, x1, x0, w1, w0, 0, 0, true, m)
	}
}

// FuzzPackedDotFinish: the fused kernel against packedDot2x2 and finishRow
// on operands read from the fuzzer's bytes: the biases (4 bytes each), the
// multiplier's M0 in [2^30, 2^31) (4 bytes) and Shift in [1, 70] (1 byte),
// the floor (1 byte), then the lanes and weights as FuzzPackedDot reads them.
func FuzzPackedDotFinish(f *testing.F) {
	f.Add(make([]byte, 14))
	f.Add(append([]byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0x80, 0xff, 0xff, 0xff, 0xff, 61, 1}, make([]byte, 24*6)...))
	edge := make([]byte, 14+24*19)
	for i := range edge {
		edge[i] = byte(0x80 ^ i*37)
	}
	f.Add(edge)
	f.Fuzz(func(t *testing.T, data []byte) {
		skipWithoutAVX2(t)
		if len(data) < 14 {
			return
		}
		b0, b1 := int32(binary.LittleEndian.Uint32(data)), int32(binary.LittleEndian.Uint32(data[4:]))
		m := fixed.Multiplier{M0: int32(1<<30 | binary.LittleEndian.Uint32(data[8:])&(1<<30-1)), Shift: 1 + int(data[12])%70}
		relu := data[13]&1 != 0
		x0, x1, w0, w1 := dotOperands(data[14:])
		checkPackedDotFinish(t, x0, x1, w0, w1, b0, b1, relu, m)
	})
}
