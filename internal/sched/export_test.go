package sched

// Test-only views of a Program's internals, for the external tests that
// corrupt a tape's input staging or an image's row sums to see Verify refuse
// it (TestMutationKill), or that audit an image against its own lanes
// (TestImageSums), and the switch that runs the tape-equivalence tests on
// each dot kernel. Nothing outside the package reads them.

func (p *Program) InputOperand(i int) Operand { return p.tape.ins[i] }
func (img *Image) Lanes() []int32             { return img.lanes }
func (img *Image) Sums() []int64              { return img.sums }

// SelectDots makes matVec run the fused AVX2 kernel on the blocks it takes
// (avx2) — the CPU's own selection where it has AVX2 — or the Go loops and
// the Go finisher on every block, until restore puts back the CPU's own
// selection. It reports false, and changes nothing, when avx2 is asked of a
// CPU without it.
func SelectDots(avx2 bool) (restore func(), ok bool) {
	if avx2 && !haveAVX2 {
		return func() {}, false
	}
	fuseFinish = avx2
	return func() { fuseFinish = haveAVX2 }, true
}
