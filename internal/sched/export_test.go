package sched

import "math"

// Test-only views of a Program's internals, for the external tests that
// corrupt a tape's input staging or an image's row sums to see Verify refuse
// it (TestMutationKill), or that audit an image against its own lanes
// (TestImageSums), and the switch that runs the tape-equivalence tests on
// each dot kernel. Nothing outside the package reads them.

func (p *Program) InputOperand(i int) Operand { return p.tape.ins[i] }
func (img *Image) Lanes() []int32             { return img.lanes }
func (img *Image) Sums() []int64              { return img.sums }

// SelectDots makes matVec run the AVX2 dots at every input width (avx2) or
// the Go loops at every width, until restore puts back the CPU's own
// selection. It reports false, and changes nothing, when avx2 is asked of a
// CPU without it.
func SelectDots(avx2 bool) (restore func(), ok bool) {
	if avx2 && !haveAVX2 {
		return func() {}, false
	}
	simdWidth, fuseFinish = math.MaxInt, avx2
	if avx2 {
		simdWidth = 0
	}
	return func() { simdWidth, fuseFinish = defaultSIMDWidth(), haveAVX2 }, true
}
