package tapecheck

import (
	"math"
	"math/bits"

	"taurus/internal/graphcheck"
	mr "taurus/internal/mapreduce"
	"taurus/internal/sched"
)

// ranges is the interval-soundness analysis: graphcheck's transfer kernel,
// rerun cell-by-cell over the tape instead of node-by-node over the graph.
// The point is not to re-prove what graphcheck already proved — it is to
// prove it of the *compiled* dataflow, whose fused instructions materialise
// intermediates that have no graph node (each sat32-clamped term of a dot,
// the pre-bias accumulator of a dot+add, the difference and square of a
// fused squared-distance, a matvec's lanes between its bias add, activation
// and rescale). Severities mirror graphcheck exactly: silent
// Fix32 saturation and an int32 scale wrap are errors, designed clipping
// (requant's int8 clamp, a LUT's index clamp) merely tightens the interval,
// and a fully clipped requant lane or out-of-domain LUT is diagnosed the
// same way the graph walk would.
//
// Intervals are identical across batch slots (the layout is slot-uniform;
// bounds() proves that), so the walk runs over slot 0.
func (c *checker) ranges(opts Options) {
	cells := make([]Interval, c.arena)
	defined := make([]bool, c.arena)

	for i := range c.g.Inputs {
		o := c.p.InputOperand(i)
		if o.Const || o.Off < 0 || o.Off+o.W > c.arena {
			continue // alias/bounds findings cover these
		}
		seed := graphcheck.Int8Range()
		if opts.InputRange != nil {
			if iv, ok := opts.InputRange(i, c.g.Node(c.g.Inputs[i]).Name); ok {
				seed, _ = graphcheck.ClampFix32(iv) // seeds describe runtime int32s
			}
		}
		for l := 0; l < o.W; l++ {
			cells[o.Off+l] = seed
			defined[o.Off+l] = true
		}
	}

	fix32 := graphcheck.Fix32Range()
	weights := c.img.Lanes()
	read := func(o sched.Operand, l int) Interval {
		if o.Const {
			if idx := o.Off + l; idx >= 0 && idx < len(weights) {
				return graphcheck.Point(int64(weights[idx]))
			}
			return fix32
		}
		if idx := o.Off + l; idx >= 0 && idx < c.arena && defined[idx] {
			return cells[idx]
		}
		return fix32 // undefined or out of range: bounds() reports, stay sound
	}
	// A table's range over its whole index domain, by table index: wide
	// layers ask for it once per lane.
	var lutFull []Interval
	lutRange := func(slot int, idx Interval) Interval {
		l := &c.img.LUTs()[slot]
		if idx.Lo != -mr.LUTSize/2 || idx.Hi != mr.LUTSize/2-1 {
			return graphcheck.LUTRange(l, idx)
		}
		if lutFull == nil {
			lutFull = make([]Interval, len(c.img.LUTs()))
		}
		if lutFull[slot] == (Interval{}) {
			lutFull[slot] = graphcheck.LUTRange(l, idx)
		}
		return lutFull[slot]
	}

	var input []Interval // a matvec's input lanes, read once for all its rows

	for pc := range c.code {
		ins := &c.code[pc]
		write := func(l int, iv Interval) {
			if idx := ins.Dst + l; idx >= 0 && idx < c.arena {
				cells[idx] = iv
				defined[idx] = true
			}
		}
		bLane := func(l int) Interval {
			if ins.B.W == 1 {
				return read(ins.B, 0)
			}
			return read(ins.B, l)
		}
		reported := false
		sat := func(lane int, what string, raw Interval) Interval {
			out, clipped := graphcheck.ClampFix32(raw)
			if clipped && !reported {
				reported = true
				c.finding(pc, -1, SevError, CheckRange, raw,
					"%s %d may silently saturate fix32: feasible interval %s exceeds %s",
					what, lane, raw, fix32)
			}
			return out
		}
		// unary and rescale are the transfer of lane l through an activation
		// or a requant/scale, with the findings it carries: the same for an
		// instruction of its own and for a matvec's epilogue.
		unary := func(op sched.Opcode, l int, in Interval) Interval {
			uop := [...]mr.UnaryOp{mr.UReLU, mr.ULeakyReLU, mr.UNeg, mr.UAbs}[op-sched.OpRelu]
			return sat(l, "lane", graphcheck.UnaryTransfer(uop, in))
		}
		rescale := func(op sched.Opcode, l int, in Interval) Interval {
			mult := c.img.Mults()[ins.Slot]
			if op == sched.OpRequant {
				out, raw, clipped := graphcheck.Requant8Transfer(mult, in)
				if clipped && !reported {
					reported = true
					c.finding(pc, -1, SevError, CheckRange, raw,
						"lane %d always clips to int8: feasible interval %s lies outside %s (multiplier miscalibrated)",
						l, raw, graphcheck.Int8Range())
				}
				return out
			}
			out, raw, wraps := graphcheck.ScaleTransfer(mult, in)
			if wraps && !reported {
				reported = true
				c.finding(pc, -1, SevError, CheckRange, raw,
					"lane %d wraps int32: scale result interval %s exceeds %s", l, raw, fix32)
			}
			return out
		}

		switch ins.Op {
		case sched.OpAdd, sched.OpSub, sched.OpMul, sched.OpMin, sched.OpMax:
			mop := [...]mr.MapOp{mr.MAdd, mr.MSub, mr.MMul, mr.MMin, mr.MMax}[ins.Op-sched.OpAdd]
			w := min(ins.W, ins.A.W)
			for l := 0; l < w; l++ {
				write(l, sat(l, "lane", graphcheck.MapTransfer(mop, read(ins.A, l), bLane(l))))
			}
		case sched.OpRelu, sched.OpLeaky, sched.OpNeg, sched.OpAbs:
			w := min(ins.W, ins.A.W)
			for l := 0; l < w; l++ {
				write(l, unary(ins.Op, l, read(ins.A, l)))
			}
		case sched.OpSum:
			var acc Interval
			for l := 0; l < ins.A.W; l++ {
				iv := read(ins.A, l)
				acc.Lo += iv.Lo
				acc.Hi += iv.Hi
			}
			write(0, sat(0, "accumulator lane", acc))
		case sched.OpRedMin, sched.OpRedMax, sched.OpArgMin, sched.OpArgMax:
			if ins.A.W < 1 {
				break
			}
			rop := [...]mr.ReduceOp{mr.RMin, mr.RMax, mr.RArgMin, mr.RArgMax}[ins.Op-sched.OpRedMin]
			lanes := make([]Interval, ins.A.W)
			for l := range lanes {
				lanes[l] = read(ins.A, l)
			}
			write(0, graphcheck.ReduceTransfer(rop, lanes))
		case sched.OpRequant, sched.OpScale:
			if !c.hasMult(ins) {
				break
			}
			w := min(ins.W, ins.A.W)
			for l := 0; l < w; l++ {
				write(l, rescale(ins.Op, l, read(ins.A, l)))
			}
		case sched.OpLUT:
			if !c.hasLUT(ins) {
				break
			}
			w := min(ins.W, ins.A.W)
			for l := 0; l < w; l++ {
				idx, raw, allOutside := graphcheck.LUTIndex(&c.img.LUTs()[ins.Slot], read(ins.A, l))
				if allOutside && !reported {
					reported = true
					c.finding(pc, -1, SevWarning, CheckRange, raw,
						"lane %d index interval %s lies entirely outside the table domain", l, raw)
				}
				write(l, lutRange(ins.Slot, idx))
			}
		case sched.OpCopy:
			w := min(ins.W, ins.A.W)
			for l := 0; l < w; l++ {
				write(l, read(ins.A, l))
			}
		case sched.OpDot, sched.OpDotAdd:
			var acc Interval
			for l := 0; l < ins.A.W; l++ {
				p := sat(l, "fused dot term", graphcheck.MapTransfer(mr.MMul, read(ins.A, l), bLane(l)))
				acc.Lo += p.Lo
				acc.Hi += p.Hi
			}
			out := sat(0, "fused dot accumulator lane", acc)
			if ins.Op == sched.OpDotAdd {
				out = sat(0, "fused bias-add lane", graphcheck.MapTransfer(mr.MAdd, out, read(ins.C, 0)))
			}
			write(0, out)
		case sched.OpMatVec:
			biased, ok := matVecBiased(ins)
			if !ok {
				break // bounds() reports
			}
			// Every lane is the dot+bias of one row, with the same
			// obligations an OpDotAdd carries. On top, the packing guard the
			// kernel evaluates per sweep — sum|w| * M <= MaxInt32, M the OR of
			// the input magnitudes — is checked against the seeded intervals
			// and the weights as they stand: where it cannot hold, the layer
			// will run product by product, which is worth saying at install.
			var m uint64
			// Sized once for a window that fits the arena; a corrupt width
			// (bounds() reports it) just grows by append.
			if n := min(ins.A.W, c.arena); cap(input) < n {
				input = make([]Interval, 0, n)
			}
			input = input[:0]
			for l := 0; l < ins.A.W; l++ {
				iv := read(ins.A, l)
				input = append(input, iv)
				m = max(m, magnitude(iv.Lo), magnitude(iv.Hi))
			}
			m = 1<<bits.Len64(m) - 1 // an OR of values <= m
			slowRow, slowSum := -1, uint64(0)
			for r := 0; r < ins.W; r++ {
				row := ins.Rows[r]
				var acc Interval
				var sum uint64
				for l, x := range input {
					w := read(row, l)
					p := sat(l, "fused dot term", graphcheck.MapTransfer(mr.MMul, w, x))
					acc.Lo += p.Lo
					acc.Hi += p.Hi
					sum += magnitude(w.Hi)
				}
				out := sat(r, "fused dot accumulator lane", acc)
				if biased {
					out = sat(r, "fused bias-add lane", graphcheck.MapTransfer(mr.MAdd, out, read(ins.Rows[ins.W+r], 0)))
				}
				write(r, out)
				if sum > slowSum && (sum > math.MaxInt32 || sum*m > math.MaxInt32) {
					slowRow, slowSum = r, sum
				}
			}
			if slowRow >= 0 {
				c.finding(pc, -1, SevInfo, CheckRange, Interval{Lo: -int64(m), Hi: int64(m)},
					"row %d cannot be shown to pack two slots per multiply: sum|w| = %d times input magnitude bound %d exceeds %d, so slot pairs that fail the guard at runtime are swept product by product (counted in tape_fallbacks)",
					slowRow, slowSum, m, math.MaxInt32)
			}
			// The epilogue, in place over the finished lanes as the kernel
			// runs it, each stage with the one finding the instruction it
			// replaces would have drawn. A stage bounds() or alias() refused
			// is skipped.
			dst := sched.Operand{Off: ins.Dst, W: ins.W}
			if unaryExpr(ins.Act) != eUndef {
				reported = false
				for r := 0; r < ins.W; r++ {
					write(r, unary(ins.Act, r, read(dst, r)))
				}
			}
			if rescaleExpr(ins.Quant) != eUndef && c.hasMult(ins) {
				reported = false
				for r := 0; r < ins.W; r++ {
					write(r, rescale(ins.Quant, r, read(dst, r)))
				}
			}
		case sched.OpSqDist:
			var acc Interval
			for l := 0; l < ins.A.W; l++ {
				d := sat(l, "fused difference term", graphcheck.MapTransfer(mr.MSub, read(ins.A, l), bLane(l)))
				sq := sat(l, "fused square term", graphcheck.MapTransfer(mr.MMul, d, d))
				acc.Lo += sq.Lo
				acc.Hi += sq.Hi
			}
			write(0, sat(0, "fused distance accumulator lane", acc))
		}
	}
}

// magnitude is |v| as an unsigned value (MinInt64 included).
func magnitude(v int64) uint64 {
	if v < 0 {
		return -uint64(v)
	}
	return uint64(v)
}
