package fixed

import (
	"fmt"
	"math"
)

// Quantizer maps float32 tensors to symmetric int8 with a per-tensor scale:
// real ≈ Scale * int8. This is the quantisation scheme behind Table 3
// ("TensorFlow Lite" 8-bit post-training quantisation): weights and
// activations become 8-bit, accumulation is 32-bit, and cross-layer rescaling
// is an integer multiply+shift (see Multiplier).
type Quantizer struct {
	Scale float64
}

// NewQuantizer builds a symmetric quantizer covering [-absMax, absMax].
// A zero or negative absMax yields a unit-scale quantizer so that quantising
// an all-zero tensor is well defined.
func NewQuantizer(absMax float64) Quantizer {
	if absMax <= 0 || math.IsNaN(absMax) || math.IsInf(absMax, 0) {
		return Quantizer{Scale: 1.0 / 127}
	}
	return Quantizer{Scale: absMax / 127}
}

// QuantizerFor computes a quantizer from the observed dynamic range of vs.
func QuantizerFor(vs []float32) Quantizer {
	var m float64
	for _, v := range vs {
		if a := math.Abs(float64(v)); a > m {
			m = a
		}
	}
	return NewQuantizer(m)
}

// Quantize converts a real value to int8 with round-to-nearest, saturating.
// NaN quantises to 0: converting it to int8 is implementation-defined in Go.
func (q Quantizer) Quantize(v float32) int8 {
	r := math.RoundToEven(float64(v) / q.Scale)
	switch {
	case r >= -128 && r <= 127:
		return int8(r)
	case r > 127:
		return 127
	case r < -128:
		return -128
	default: // NaN
		return 0
	}
}

// Dequantize recovers the real value of an int8 code.
func (q Quantizer) Dequantize(v int8) float32 { return float32(float64(v) * q.Scale) }

// QuantizeSlice quantises a whole tensor.
func (q Quantizer) QuantizeSlice(vs []float32) []int8 {
	out := make([]int8, len(vs))
	for i, v := range vs {
		out[i] = q.Quantize(v)
	}
	return out
}

// DequantizeSlice recovers a whole tensor.
func (q Quantizer) DequantizeSlice(vs []int8) []float32 {
	out := make([]float32, len(vs))
	for i, v := range vs {
		out[i] = q.Dequantize(v)
	}
	return out
}

// Multiplier is a positive real factor encoded as M0 * 2^-Shift with
// M0 in [2^30, 2^31): the integer "requantisation multiplier" hardware uses
// to rescale a 32-bit accumulator into the next layer's 8-bit domain without
// floating point.
type Multiplier struct {
	M0    int32
	Shift int // right shift applied after the 32x32->64 multiply
}

// NewMultiplier encodes f (must be > 0) as an integer multiplier.
func NewMultiplier(f float64) (Multiplier, error) {
	if f <= 0 || math.IsNaN(f) || math.IsInf(f, 0) {
		return Multiplier{}, fmt.Errorf("fixed: multiplier must be positive and finite, got %v", f)
	}
	frac, exp := math.Frexp(f) // f = frac * 2^exp, frac in [0.5, 1)
	m0 := int64(math.RoundToEven(frac * (1 << 31)))
	if m0 == 1<<31 { // rounding overflow: 1.0 * 2^31
		m0 /= 2
		exp++
	}
	shift := 31 - exp // f = M0 * 2^-shift
	if shift <= 0 {
		return Multiplier{}, fmt.Errorf("fixed: multiplier %v too large to encode", f)
	}
	return Multiplier{M0: int32(m0), Shift: shift}, nil
}

// Apply rescales a 32-bit accumulator: round(acc * M0 * 2^-Shift)
// = round(acc * f), returned as int32 so callers can pick their saturation
// point.
func (m Multiplier) Apply(acc int32) int32 {
	prod := int64(acc) * int64(m.M0) // up to 63 bits
	sh := uint(m.Shift)
	if sh >= 63 {
		// Shift amounts this large only arise for degenerately small
		// multipliers; everything rounds to zero.
		return 0
	}
	// Round-half-up: add half an LSB, then arithmetic shift (floor). This is
	// correct for both signs.
	prod += int64(1) << (sh - 1)
	return int32(prod >> sh)
}

// ApplySat8 rescales and saturates to int8.
func (m Multiplier) ApplySat8(acc int32) int8 {
	v := m.Apply(acc)
	switch {
	case v > 127:
		return 127
	case v < -128:
		return -128
	default:
		return int8(v)
	}
}

// Float returns the real factor the multiplier encodes (for diagnostics).
func (m Multiplier) Float() float64 {
	return float64(m.M0) * math.Ldexp(1, -m.Shift)
}
