package sched

// Test-only views of a Program's internals, for the external tests that
// corrupt a tape's input staging or an image's row sums to see Verify refuse
// it (TestMutationKill), or that audit an image against its own lanes
// (TestImageSums). Nothing outside the package reads them.

func (p *Program) InputOperand(i int) Operand { return p.tape.ins[i] }
func (img *Image) Lanes() []int32             { return img.lanes }
func (img *Image) Sums() []int64              { return img.sums }
