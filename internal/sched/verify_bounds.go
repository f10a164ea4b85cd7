package sched

import (
	"taurus/internal/graphcheck"
	mr "taurus/internal/mapreduce"
)

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
// packet's values. Packed lanes are cells of their own, after the arena's, a
// window's W lanes and its bound once per slot pair: only a matvec stores
// them, only a matvec reads them, and it reads one window whole, exactly as
// the layer that stored it laid it out; an input a matvec packs itself must
// fit the pack scratch. As a side effect it builds c.writer, which equiv()
// uses to attribute output cells to instructions.
func (c *checker) bounds() {
	c.writer = grown(&c.ws.writer, c.arena+c.packed)
	for i := range c.writer {
		c.writer[i] = -1
	}

	// Input staging defines the declared input windows before the tape runs.
	for i := range c.g.Inputs {
		o := c.t.ins[i]
		if o.Const {
			continue // alias() flags this
		}
		if o.Packed {
			c.finding(-1, c.g.Inputs[i], graphcheck.SevError, CheckBounds,
				"declared input %d addresses packed lanes, which the caller cannot stage", i)
			continue
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
		cls := ops[ins.Op].class
		if cls == classBad {
			c.finding(pc, -1, graphcheck.SevError, CheckBounds, "unknown opcode %d", int(ins.Op))
			continue
		}
		if ins.W < 1 {
			c.finding(pc, -1, graphcheck.SevError, CheckBounds, "instruction width %d", ins.W)
			continue
		}
		if cls != classMatVec && (ins.Packed || ins.A.Packed || ins.B.Packed) {
			c.finding(pc, -1, graphcheck.SevError, CheckBounds,
				"a %v addresses packed lanes, which only a matvec reads or stores", ins.Op)
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
		case classUnary, classRescale, classCopy:
			if ins.A.W != ins.W {
				c.finding(pc, -1, graphcheck.SevError, CheckBounds,
					"operand a is %d lanes, instruction writes %d", ins.A.W, ins.W)
			}
		case classReduce, classDist:
			if ins.W != 1 {
				c.finding(pc, -1, graphcheck.SevError, CheckBounds,
					"reduction writes %d lanes, want 1", ins.W)
			}
			if ins.A.W < 1 {
				c.finding(pc, -1, graphcheck.SevError, CheckBounds,
					"reduction over %d lanes", ins.A.W)
			}
			if cls == classDist && ins.B.W != 1 && ins.B.W != ins.A.W {
				c.finding(pc, -1, graphcheck.SevError, CheckBounds,
					"operand b is %d lanes, want 1 (broadcast) or %d", ins.B.W, ins.A.W)
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
			// The kernel resolves the epilogue from these two opcodes once
			// per sweep and applies it as it stores each lane: an
			// activation it does not know would pass the lanes through
			// untouched, a rescale it does not know would be taken for a
			// scale.
			if ins.Act != OpNone && ops[ins.Act].class != classUnary {
				c.finding(pc, -1, graphcheck.SevError, CheckBounds,
					"matvec epilogue activation is %v (opcode %d), want a unary or none", ins.Act, int(ins.Act))
			}
			if ins.Quant != OpNone && ops[ins.Quant].class != classRescale {
				c.finding(pc, -1, graphcheck.SevError, CheckBounds,
					"matvec epilogue rescale is %v (opcode %d), want requant, scale, lut or none", ins.Quant, int(ins.Quant))
			}
			if need := (c.batch + 1) / 2 * (ins.A.W + 1); !ins.A.Packed && need > c.scratch {
				c.finding(pc, -1, graphcheck.SevError, CheckBounds,
					"matvec input of %d lanes packs into %d lanes, the pack scratch holds %d", ins.A.W, need, c.scratch)
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
		case classUnary, classRescale, classCopy:
			c.checkRead(pc, ins.A, min(ins.W, ins.A.W), &undefOnce, &skewOnce)
		case classReduce:
			c.checkRead(pc, ins.A, ins.A.W, &undefOnce, &skewOnce)
		case classDist:
			c.checkRead(pc, ins.A, ins.A.W, &undefOnce, &skewOnce)
			c.checkRead(pc, ins.B, ins.B.W, &undefOnce, &skewOnce)
		case classMatVec:
			if ins.A.Packed {
				c.checkPackedRead(pc, ins.A)
			} else {
				c.checkRead(pc, ins.A, ins.A.W, &undefOnce, &skewOnce)
			}
		}

		// Writes: W lanes for element ops, lane 0 for reductions; a packed
		// window's W lanes and bound per slot pair.
		wl := ins.W
		if cls == classReduce || cls == classDist {
			wl = 1
		}
		dst := Operand{Packed: ins.Packed, Off: ins.Dst, Stride: ins.DStride, W: ins.W}
		if !c.checkWindow(pc, -1, "destination", dst, wl) {
			continue
		}
		first, reps, cells := c.span(dst, wl)
		clobberOnce := false
		for j := 0; j < reps; j++ {
			base := first + j*ins.DStride
			for l := 0; l < cells; l++ {
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
		if o.Packed {
			c.finding(-1, id, graphcheck.SevError, CheckBounds,
				"declared output %d addresses packed lanes, which the caller cannot read", i)
			continue
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

// span is where window o's cells lie in the writer map when the tape reads or
// writes lanes of it per repetition: per batch slot from o.Off in the arena's
// cells, or — packed — per slot pair from the first packed cell after the
// arena's, its W lanes and then their bound.
func (c *checker) span(o Operand, lanes int) (first, reps, cells int) {
	if o.Packed {
		return c.arena + o.Off, (c.batch + 1) / 2, o.W + 1
	}
	return o.Off, c.batch, lanes
}

// checkWindow proves a window [Off + j*Stride, +lanes) stays inside the
// arena — or, packed, inside the packed windows with its bound beside each
// pair's lanes — for every repetition and that the stride cannot make them
// overlap. Returns false (after reporting) when the window is unusable.
func (c *checker) checkWindow(pc int, node mr.NodeID, what string, o Operand, lanes int) bool {
	if lanes < 1 {
		return false // width findings already reported by the caller
	}
	_, reps, cells := c.span(o, lanes)
	space, kind := c.arena, "arena"
	if o.Packed {
		space, kind = c.packed, "packed windows"
	}
	if o.Off < 0 || o.Stride < max(o.W, cells) || o.W < lanes {
		c.finding(pc, node, graphcheck.SevError, CheckBounds,
			"%s window malformed: off %d, stride %d, width %d", what, o.Off, o.Stride, o.W)
		return false
	}
	if end := o.Off + (reps-1)*o.Stride + cells; end > space {
		c.finding(pc, node, graphcheck.SevError, CheckBounds,
			"%s window [%d,%d) overruns the %d lanes of the %s at batch %d",
			what, o.Off, end, space, kind, c.batch)
		return false
	}
	return true
}

// checkPackedRead proves a matvec's packed input is one layer's whole window,
// laid out as that layer stored it — same lanes, same pair stride, same
// width — and that nothing after the store wrote over any of its cells.
func (c *checker) checkPackedRead(pc int, o Operand) {
	if !c.checkWindow(pc, -1, "operand", o, o.W) {
		return
	}
	first, reps, cells := c.span(o, o.W)
	w := c.writer[first]
	if w < 0 {
		c.finding(pc, -1, graphcheck.SevError, CheckBounds,
			"reads packed lanes [%d,%d) before any layer stores them", o.Off, o.Off+cells)
		return
	}
	if p := &c.code[w]; p.Op != OpMatVec || !p.Packed || p.Dst != o.Off || p.DStride != o.Stride || p.W != o.W {
		c.finding(pc, -1, graphcheck.SevError, CheckBounds,
			"reads packed lanes [%d,%d) with pair stride %d, not the window pc %d stored whole", o.Off, o.Off+cells, o.Stride, w)
		return
	}
	for j := 0; j < reps; j++ {
		for l, at := range c.writer[first+j*o.Stride:][:cells] {
			if at != w {
				c.finding(pc, -1, graphcheck.SevError, CheckBounds,
					"packed lane %d of slot pair %d was last written by pc %d, not by pc %d that stored the window", l, j, at, w)
				return
			}
		}
	}
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
			if cls := ops[p.Op].class; cls == classReduce || cls == classDist {
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
