package pisa

import "math/bits"

// FastMod reduces a uint32 modulo a divisor fixed at construction, without a
// divide: Lemire, Kaser and Kurz, "Faster remainder by direct computation"
// (2019). One 64-bit magic number, computed once from the divisor, turns
// x mod d into two multiplies, exact for every uint32 x and every divisor in
// [1, 2^32). A hash unit reduces an index the same way: the table size is
// configuration, and the packet pays only the multiplies.
type FastMod struct {
	m uint64
	d uint32
}

// NewFastMod precomputes the reduction modulo d. The zero divisor has no
// remainder; its FastMod reduces every x to 0.
func NewFastMod(d uint32) FastMod {
	if d == 0 {
		return FastMod{}
	}
	return FastMod{m: ^uint64(0)/uint64(d) + 1, d: d}
}

// Mod returns x % d.
func (f FastMod) Mod(x uint32) uint32 {
	hi, _ := bits.Mul64(f.m*uint64(x), uint64(f.d))
	return uint32(hi)
}
