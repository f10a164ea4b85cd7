package sched

import (
	"fmt"
	"sort"

	"taurus/internal/graphcheck"
	mr "taurus/internal/mapreduce"
)

// constSlot is one KConst's lanes in the weight image: [at, at+Width).
type constSlot struct {
	at   int
	node mr.NodeID
}

// alias is the weight-addressing audit. A tape holds no weight storage: a
// constant operand is an offset into whichever Image the program is bound
// to, a requant/scale/LUT instruction an index into the image's payloads, and
// the tape's layout says where an image build puts each graph node's weights.
// A push builds a new image through that layout and swaps it in — so the tape
// reads exactly the weights a push means to set only if the layout gives
// every weight-owning node a slot of its own (dense, in node order, filling
// the image exactly), every constant operand's window lies inside one const
// node's slot, and every payload index names a slot the image has. Anything
// else — two nodes laid out over the same lanes, a window straddling two
// constants or running past the image, an index naming no payload — would
// read another node's weights, or none.
func (c *checker) alias() {
	lanes, mults, luts := 0, 0, 0
	for _, n := range c.g.Nodes {
		at := c.layout[n.ID]
		switch n.Kind {
		case mr.KConst:
			if at != lanes {
				c.finding(-1, n.ID, graphcheck.SevError, CheckAlias,
					"const node %d is laid out at image lanes [%d,%d), want [%d,%d): it shares lanes with, or leaves a gap beside, another node's weights",
					n.ID, at, at+n.Width, lanes, lanes+n.Width)
			} else {
				c.consts = append(c.consts, constSlot{at: at, node: n.ID})
			}
			lanes += n.Width
		case mr.KRequant, mr.KScale:
			if at != mults {
				c.finding(-1, n.ID, graphcheck.SevError, CheckAlias,
					"%s node %d is laid out at multiplier %d, want %d", n.Kind, n.ID, at, mults)
			}
			mults++
		case mr.KLUT:
			if at != luts {
				c.finding(-1, n.ID, graphcheck.SevError, CheckAlias,
					"lut node %d is laid out at table %d, want %d", n.ID, at, luts)
			}
			luts++
		}
	}
	if l, m, t := len(c.img.lanes), len(c.img.mults), len(c.img.luts); l != lanes || m != mults || t != luts {
		c.finding(-1, -1, graphcheck.SevError, CheckAlias,
			"image holds %d lanes, %d multipliers, %d tables; the graph's weights need %d, %d, %d", l, m, t, lanes, mults, luts)
	}

	for pc := range c.code {
		ins := &c.code[pc]
		for i, o := range [...]Operand{ins.A, ins.B} {
			if node, fault := c.operandFault(o); fault != "" {
				c.finding(pc, node, graphcheck.SevError, CheckAlias, "operand %c %s", 'a'+i, fault)
			}
		}
		for r, o := range ins.Rows {
			// The matvec kernel reads its rows and biases from the image alone.
			node, fault := c.operandFault(o)
			if !o.Const {
				fault = "is not constant-backed"
			}
			if fault != "" {
				c.finding(pc, node, graphcheck.SevError, CheckAlias, "row operand %d %s", r, fault)
			}
		}
		if q, n, ok := c.payloadOf(ins); q != OpNone && !ok {
			what := "multiplier"
			if q == OpLUT {
				what = "table"
			}
			c.finding(pc, -1, graphcheck.SevError, CheckAlias,
				"%s index %d names none of the image's %d: no weight push would reach it", what, ins.Slot, n)
		}
	}

	// Declared inputs are caller-filled arena windows; a constant-backed
	// input would have the device stage packets into the weight image.
	for i := range c.g.Inputs {
		if c.t.ins[i].Const {
			c.finding(-1, c.g.Inputs[i], graphcheck.SevError, CheckAlias,
				"declared input %d addresses the weight image", i)
		}
	}
	// A constant-backed output must read the declared node's own slot: the
	// KConst itself, or the KConst a chain of slices selects a window of
	// (equiv() proves the window's lanes).
	for i, id := range c.g.Outputs {
		out := c.t.outs[i]
		if !out.Const {
			continue
		}
		root := c.g.Node(id)
		for root.Kind == mr.KSlice {
			root = c.g.Node(root.Args[0])
		}
		if owner, _ := c.constNode(out); owner != root.ID {
			c.finding(-1, id, graphcheck.SevError, CheckAlias,
				"declared output %d reads image lanes that are not its own const node's", i)
		}
	}
}

// payloadOf is the rescale ins applies through its Slot — its own requant,
// scale or lut, or its matvec epilogue's; OpNone when it applies none — how
// many payloads of that kind the image holds (tables for a lut, multipliers
// otherwise), and whether Slot names one of them.
func (c *checker) payloadOf(ins *Instr) (q Opcode, n int, ok bool) {
	if q = ins.Op; q == OpMatVec {
		q = ins.Quant
	}
	switch {
	case ops[q].class != classRescale:
		return OpNone, 0, false
	case q == OpLUT:
		n = len(c.img.luts)
	default:
		n = len(c.img.mults)
	}
	return q, n, ins.Slot >= 0 && ins.Slot < n
}

// operandFault checks that one constant-backed operand's window lies inside
// one const node's slot of the layout, returning what is wrong with it (""
// when nothing is) and the node whose slot it starts in, if any.
// Arena-backed operands are bounds()'s business; unused operands are zero
// values and pass the same way.
func (c *checker) operandFault(o Operand) (node mr.NodeID, fault string) {
	if !o.Const {
		return -1, ""
	}
	id, at := c.constNode(o)
	if id < 0 {
		return -1, fmt.Sprintf("reads image lanes [%d,%d), which start in no const node's slot: no weight push would reach them", o.Off, o.Off+o.W)
	}
	if w := c.g.Node(id).Width; o.W < 0 || o.Off+o.W > at+w {
		return id, fmt.Sprintf("window [%d,%d) overruns const node %d's slot [%d,%d)", o.Off, o.Off+o.W, id, at, at+w)
	}
	return id, ""
}

// constNode resolves a constant-backed operand to the const node whose slot
// its first lane lies in and that slot's first lane, or -1. equiv() keys
// weight leaves by (node, lane within the slot), so two expressions are equal
// exactly when they read the same weights of every image the layout builds —
// equivalence that survives weight pushes.
func (c *checker) constNode(o Operand) (mr.NodeID, int) {
	if !o.Const {
		return -1, 0
	}
	i := sort.Search(len(c.consts), func(i int) bool { return c.consts[i].at > o.Off }) - 1
	if i < 0 {
		return -1, 0
	}
	s := c.consts[i]
	if o.Off >= s.at+c.g.Node(s.node).Width {
		return -1, 0
	}
	return s.node, s.at
}
