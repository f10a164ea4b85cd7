package sched

import (
	"taurus/internal/graphcheck"
	mr "taurus/internal/mapreduce"
)

// opClass groups opcodes by how RunBatch addresses their operands: which
// operands are read, over how many lanes, and how many destination lanes
// are written.
type opClass int

const (
	classBinary opClass = iota // reads a[0:W], b[0:W] (or b[0] broadcast); writes W lanes
	classUnary                 // reads a[0:W]; writes W lanes (unary, requant, scale, lut, copy)
	classReduce                // reads a[0:A.W]; writes lane 0
	classDot                   // reads a[0:A.W], b likewise (or broadcast); writes lane 0
	classDotAdd                // classDot plus c[0]
	classMatVec                // reads a[0:A.W], W constant rows (plus W constant biases) and W row sums; writes W lanes
	classBad
)

func classOf(op Opcode) opClass {
	switch op {
	case OpAdd, OpSub, OpMul, OpMin, OpMax:
		return classBinary
	case OpRelu, OpLeaky, OpNeg, OpAbs,
		OpRequant, OpScale, OpLUT, OpCopy:
		return classUnary
	case OpSum, OpRedMin, OpRedMax, OpArgMin, OpArgMax:
		return classReduce
	case OpDot, OpSqDist:
		return classDot
	case OpDotAdd:
		return classDotAdd
	case OpMatVec:
		return classMatVec
	default:
		return classBad
	}
}

// matVecBiased reports whether an OpMatVec's Rows holds a bias per row after
// its W weight rows; ok is false when it holds neither W nor 2*W operands,
// which no analysis can address.
func matVecBiased(ins *Instr) (biased, ok bool) {
	return len(ins.Rows) == 2*ins.W, len(ins.Rows) == ins.W || len(ins.Rows) == 2*ins.W
}

// bounds is the arena/liveness analysis. It proves the structure-of-arrays
// addressing discipline RunBatch relies on: every operand and destination
// window lies inside the arena for every batch slot, widths agree with the
// opcode's addressing, no cell is read before an earlier instruction (or the
// input staging) defines it, no two instructions write the same cell, and —
// the cross-slot invariant — every lane reads the same producer in every
// batch slot, so a corrupted stride cannot silently read a neighbouring
// packet's values. As a side effect it builds c.writer, which equiv() uses
// to attribute output cells to instructions.
func (c *checker) bounds() {
	c.writer = grown(&c.ws.writer, c.arena)
	for i := range c.writer {
		c.writer[i] = -1
	}

	// Input staging defines the declared input windows before the tape runs.
	for i := range c.g.Inputs {
		o := c.t.ins[i]
		if o.Const {
			continue // alias() flags this
		}
		if w := c.g.Node(c.g.Inputs[i]).Width; o.W != w {
			c.finding(-1, c.g.Inputs[i], graphcheck.SevError, CheckBounds,
				"declared input %d window is %d lanes, node is %d wide", i, o.W, w)
		}
		if !c.checkWindow(-1, c.g.Inputs[i], "input", o, o.W) {
			continue
		}
		for j := 0; j < c.batch; j++ {
			base := o.Off + j*o.Stride
			for l := 0; l < o.W; l++ {
				c.writer[base+l] = int32(-2 - i) // -2-i: staged by declared input i
			}
		}
	}

	for pc := range c.code {
		ins := &c.code[pc]
		cls := classOf(ins.Op)
		if cls == classBad {
			c.finding(pc, -1, graphcheck.SevError, CheckBounds, "unknown opcode %d", int(ins.Op))
			continue
		}
		if ins.W < 1 {
			c.finding(pc, -1, graphcheck.SevError, CheckBounds, "instruction width %d", ins.W)
			continue
		}

		// Width discipline per class, mirroring RunBatch's loops exactly: a
		// mismatch is an out-of-range panic or a silently truncated compute
		// at runtime.
		switch cls {
		case classBinary:
			if ins.A.W != ins.W {
				c.finding(pc, -1, graphcheck.SevError, CheckBounds,
					"operand a is %d lanes, instruction writes %d", ins.A.W, ins.W)
			}
			if ins.B.W != 1 && ins.B.W != ins.W {
				c.finding(pc, -1, graphcheck.SevError, CheckBounds,
					"operand b is %d lanes, want 1 (broadcast) or %d", ins.B.W, ins.W)
			}
		case classUnary:
			if ins.A.W != ins.W {
				c.finding(pc, -1, graphcheck.SevError, CheckBounds,
					"operand a is %d lanes, instruction writes %d", ins.A.W, ins.W)
			}
		case classReduce, classDot, classDotAdd:
			if ins.W != 1 {
				c.finding(pc, -1, graphcheck.SevError, CheckBounds,
					"reduction writes %d lanes, want 1", ins.W)
			}
			if ins.A.W < 1 {
				c.finding(pc, -1, graphcheck.SevError, CheckBounds,
					"reduction over %d lanes", ins.A.W)
			}
			if cls != classReduce && ins.B.W != 1 && ins.B.W != ins.A.W {
				c.finding(pc, -1, graphcheck.SevError, CheckBounds,
					"operand b is %d lanes, want 1 (broadcast) or %d", ins.B.W, ins.A.W)
			}
			if cls == classDotAdd && ins.C.W < 1 {
				c.finding(pc, -1, graphcheck.SevError, CheckBounds,
					"bias operand c is empty")
			}
		case classMatVec:
			// The kernel reads A.W lanes of the input per slot and of every
			// row, and lane 0 of every bias; a constant or narrower input
			// (a broadcast lane) is not something it can address.
			if ins.A.Const || ins.A.W < 1 {
				c.finding(pc, -1, graphcheck.SevError, CheckBounds,
					"matvec input is constant-backed or empty (%d lanes)", ins.A.W)
			}
			if _, ok := matVecBiased(ins); !ok {
				c.finding(pc, -1, graphcheck.SevError, CheckBounds,
					"matvec writes %d lanes from %d row operands, want %d (rows) or %d (rows and biases)",
					ins.W, len(ins.Rows), ins.W, 2*ins.W)
				continue
			}
			// The epilogue is a switch on two opcodes in the kernel; one it
			// does not know would pass the lanes through untouched.
			switch ins.Act {
			case OpNone, OpRelu, OpLeaky, OpNeg, OpAbs:
			default:
				c.finding(pc, -1, graphcheck.SevError, CheckBounds,
					"matvec epilogue activation is %v (opcode %d), want a unary or none", ins.Act, int(ins.Act))
			}
			switch ins.Quant {
			case OpNone, OpRequant, OpScale:
			default:
				c.finding(pc, -1, graphcheck.SevError, CheckBounds,
					"matvec epilogue rescale is %v (opcode %d), want requant, scale or none", ins.Quant, int(ins.Quant))
			}
			if n := len(c.img.sums); ins.Sum < 0 || ins.Sum+ins.W > n {
				c.finding(pc, -1, graphcheck.SevError, CheckBounds,
					"matvec reads row sums [%d,%d) of the image's %d", ins.Sum, ins.Sum+ins.W, n)
			}
			for r, o := range ins.Rows {
				if want := ins.A.W; r < ins.W && o.W != want {
					c.finding(pc, -1, graphcheck.SevError, CheckBounds,
						"row %d is %d lanes, input is %d", r, o.W, want)
				} else if r >= ins.W && o.W != 1 {
					c.finding(pc, -1, graphcheck.SevError, CheckBounds,
						"bias %d is %d lanes, want 1", r-ins.W, o.W)
				}
			}
		}

		// Reads, in RunBatch order.
		undefOnce, skewOnce := false, false
		switch cls {
		case classBinary:
			c.checkRead(pc, ins.A, min(ins.W, ins.A.W), &undefOnce, &skewOnce)
			bl := 1
			if ins.B.W != 1 {
				bl = min(ins.W, ins.B.W)
			}
			c.checkRead(pc, ins.B, bl, &undefOnce, &skewOnce)
		case classUnary:
			c.checkRead(pc, ins.A, min(ins.W, ins.A.W), &undefOnce, &skewOnce)
		case classReduce:
			c.checkRead(pc, ins.A, ins.A.W, &undefOnce, &skewOnce)
		case classDot, classDotAdd:
			c.checkRead(pc, ins.A, ins.A.W, &undefOnce, &skewOnce)
			bl := 1
			if ins.B.W != 1 {
				bl = ins.B.W
			}
			c.checkRead(pc, ins.B, bl, &undefOnce, &skewOnce)
			if cls == classDotAdd {
				c.checkRead(pc, ins.C, 1, &undefOnce, &skewOnce)
			}
		case classMatVec:
			c.checkRead(pc, ins.A, ins.A.W, &undefOnce, &skewOnce)
		}

		// Writes: W lanes for element ops, lane 0 for reductions.
		wl := ins.W
		if cls == classReduce || cls == classDot || cls == classDotAdd {
			wl = 1
		}
		dst := Operand{Off: ins.Dst, Stride: ins.DStride, W: ins.W}
		if !c.checkWindow(pc, -1, "destination", dst, wl) {
			continue
		}
		clobberOnce := false
		for j := 0; j < c.batch; j++ {
			base := ins.Dst + j*ins.DStride
			for l := 0; l < wl; l++ {
				idx := base + l
				switch {
				case c.writer[idx] >= 0 && !clobberOnce:
					clobberOnce = true
					c.finding(pc, -1, graphcheck.SevError, CheckBounds,
						"writes arena cell %d already written by pc %d (clobber)", idx, c.writer[idx])
				case c.writer[idx] <= -2 && !clobberOnce:
					clobberOnce = true
					c.finding(pc, -1, graphcheck.SevError, CheckBounds,
						"writes arena cell %d inside a caller-staged input window", idx)
				}
				c.writer[idx] = int32(pc)
			}
		}
	}

	// Every declared output must be fully computed in every batch slot.
	for i, id := range c.g.Outputs {
		o := c.t.outs[i]
		if o.Const {
			continue // alias() audits constant-backed outputs
		}
		if w := c.g.Node(id).Width; o.W != w {
			c.finding(-1, id, graphcheck.SevError, CheckBounds,
				"declared output %d window is %d lanes, node is %d wide", i, o.W, w)
		}
		if !c.checkWindow(-1, id, "output", o, o.W) {
			continue
		}
		reported := false
		for j := 0; j < c.batch && !reported; j++ {
			base := o.Off + j*o.Stride
			for l := 0; l < o.W; l++ {
				if c.writer[base+l] == -1 {
					reported = true
					c.finding(-1, id, graphcheck.SevError, CheckBounds,
						"declared output %d lane %d is never computed (arena cell %d)", i, l, base+l)
					break
				}
			}
		}
	}
}

// checkWindow proves an arena window [Off + j*Stride, +lanes) stays inside
// the arena for every batch slot and that the stride cannot make slots
// overlap. Returns false (after reporting) when the window is unusable.
func (c *checker) checkWindow(pc int, node mr.NodeID, what string, o Operand, lanes int) bool {
	if lanes < 1 {
		return false // width findings already reported by the caller
	}
	if o.Off < 0 || o.Stride < o.W || o.W < lanes {
		c.finding(pc, node, graphcheck.SevError, CheckBounds,
			"%s window malformed: off %d, stride %d, width %d", what, o.Off, o.Stride, o.W)
		return false
	}
	if end := o.Off + (c.batch-1)*o.Stride + lanes; end > c.arena {
		c.finding(pc, node, graphcheck.SevError, CheckBounds,
			"%s window [%d,%d) overruns the %d-lane arena at batch %d",
			what, o.Off, end, c.arena, c.batch)
		return false
	}
	return true
}

// checkRead proves `lanes` lanes of one operand are defined before this
// instruction and read the same producer in every batch slot.
func (c *checker) checkRead(pc int, o Operand, lanes int, undefOnce, skewOnce *bool) {
	if o.Const || lanes < 1 {
		return
	}
	if !c.checkWindow(pc, -1, "operand", o, lanes) {
		return
	}
	slot0 := c.writer[o.Off : o.Off+lanes]
	for l, w0 := range slot0 {
		if w0 == -1 {
			if !*undefOnce {
				*undefOnce = true
				c.finding(pc, -1, graphcheck.SevError, CheckBounds,
					"reads arena cell %d before any instruction writes it", o.Off+l)
			}
			continue
		}
		if c.batch == 1 || *skewOnce {
			continue
		}
		// Fast path: when the operand's stride matches its producer's and the
		// slot-0 cell sits inside the producer's slot-0 window, every batch
		// slot provably reads the same producer lane — no per-slot scan
		// needed. Anything else falls back to the exhaustive scan, which
		// either finds the skew witness or proves the layouts coincide.
		var pOff, pStride, pW int
		if w0 >= 0 {
			p := &c.code[w0]
			pOff, pStride, pW = p.Dst, p.DStride, p.W
			switch classOf(p.Op) {
			case classReduce, classDot, classDotAdd:
				pW = 1
			}
		} else {
			in := c.t.ins[-2-w0]
			pOff, pStride, pW = in.Off, in.Stride, in.W
		}
		if k := o.Off + l - pOff; o.Stride == pStride && k >= 0 && k < pW {
			continue
		}
		for j := 1; j < c.batch; j++ {
			if c.writer[o.Off+j*o.Stride+l] != w0 {
				*skewOnce = true
				c.finding(pc, -1, graphcheck.SevError, CheckBounds,
					"batch slot %d of operand lane %d reads a different producer than slot 0 (stride skew)", j, l)
				break
			}
		}
	}
}
