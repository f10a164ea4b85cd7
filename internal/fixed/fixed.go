// Package fixed implements the reduced-precision fixed-point arithmetic used
// by the Taurus MapReduce block (§4, §5.1.1 of the paper): the datapath
// widths of the design space (Precision), and symmetric per-tensor
// quantisation (Quantizer), the TensorFlow-Lite style scheme the paper uses
// to demonstrate that 8-bit inference loses almost no accuracy (Table 3).
// Values are int8, accumulation is int32 (the CU reduce tree accumulates
// wider than a lane, as real SIMD datapaths do), and rescaling between
// layers uses an integer multiplier+shift so the whole pipeline is
// expressible on an 8-bit fixed-point datapath.
package fixed

import "fmt"

// Precision enumerates the datapath widths explored in the paper's design
// space (Table 4).
type Precision int

const (
	// Fix8 is the 8-bit datapath chosen for the final Taurus ASIC.
	Fix8 Precision = 8
	// Fix16 is the 16-bit alternative (about 2x area/power of Fix8).
	Fix16 Precision = 16
	// Fix32 is the 32-bit alternative (about 4x area/power of Fix8).
	Fix32 Precision = 32
)

// String returns the paper's name for the precision (e.g. "fix8").
func (p Precision) String() string { return fmt.Sprintf("fix%d", int(p)) }

// Valid reports whether p is one of the supported datapath widths.
func (p Precision) Valid() bool { return p == Fix8 || p == Fix16 || p == Fix32 }

// Min returns the smallest representable raw integer for the precision.
func (p Precision) Min() int32 {
	return -(int32(1) << (uint(p) - 1))
}

// Max returns the largest representable raw integer for the precision.
func (p Precision) Max() int32 {
	return int32(1)<<(uint(p)-1) - 1
}

// Saturate clamps a wide intermediate value to the representable range of p.
// Saturating (rather than wrapping) arithmetic is the standard choice for
// fixed-point ML datapaths: overflow clips instead of flipping sign.
func (p Precision) Saturate(v int64) int32 {
	lo, hi := int64(p.Min()), int64(p.Max())
	if v < lo {
		return int32(lo)
	}
	if v > hi {
		return int32(hi)
	}
	return int32(v)
}
