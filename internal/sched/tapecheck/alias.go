package tapecheck

import (
	"fmt"

	"taurus/internal/fixed"
	mr "taurus/internal/mapreduce"
	"taurus/internal/sched"
)

// alias is the weight-aliasing audit. A Program reads mutable graph storage
// through three kinds of pointer: constant operands alias a KConst's Const
// slice, requant/scale instructions alias a node's Multiplier, LUT
// instructions alias a node's table. UpdateWeights mutates those payloads in
// place while the tape keeps serving — so the tape is only sound under live
// pushes if every such pointer resolves to exactly one graph slot, its
// window stays inside that slot, and no two graph slots share storage.
// Anything else — a fresh slice baked in at compile time, a re-sliced
// window, a multiplier borrowed from a different node — would silently
// detach the tape from (or cross-wire it to) future pushes.
func (c *checker) alias() {
	c.constOf = make(map[*int32]mr.NodeID)
	c.multOf = make(map[*fixed.Multiplier]mr.NodeID)
	c.lutOf = make(map[*mr.LUT]mr.NodeID)
	for i := range c.g.Nodes {
		n := c.g.Nodes[i]
		switch n.Kind {
		case mr.KConst:
			if len(n.Const) == 0 {
				continue // Validate rejects this; guarded for robustness
			}
			base := &n.Const[0]
			if prev, dup := c.constOf[base]; dup {
				c.finding(-1, n.ID, SevError, CheckAlias, Interval{},
					"const nodes %d and %d share backing storage: a weight push to one mutates both", prev, n.ID)
				continue
			}
			c.constOf[base] = n.ID
		case mr.KRequant, mr.KScale:
			c.multOf[&n.Mult] = n.ID
		case mr.KLUT:
			if n.LUT != nil {
				c.lutOf[n.LUT] = n.ID
			}
		}
	}

	for pc := range c.code {
		ins := &c.code[pc]
		for i, o := range [...]sched.Operand{ins.A, ins.B, ins.C} {
			if node, fault := c.operandFault(o); fault != "" {
				c.finding(pc, node, SevError, CheckAlias, Interval{}, "operand %c %s", 'a'+i, fault)
			}
		}
		for r, o := range ins.Rows {
			// The matvec kernel reads its rows and biases through Const alone.
			node, fault := c.operandFault(o)
			if o.Const == nil {
				fault = "is not constant-backed"
			}
			if fault != "" {
				c.finding(pc, node, SevError, CheckAlias, Interval{}, "row operand %d %s", r, fault)
			}
		}
		switch ins.Op {
		case sched.OpRequant, sched.OpScale:
			if ins.Mult == nil {
				c.finding(pc, -1, SevError, CheckAlias, Interval{},
					"%s instruction has no multiplier", ins.Op)
			} else if _, ok := c.multOf[ins.Mult]; !ok {
				c.finding(pc, -1, SevError, CheckAlias, Interval{},
					"multiplier does not alias any graph requant/scale node: weight pushes would never reach it")
			}
		case sched.OpLUT:
			if ins.LUT == nil {
				c.finding(pc, -1, SevError, CheckAlias, Interval{},
					"lut instruction has no table")
			} else if _, ok := c.lutOf[ins.LUT]; !ok {
				c.finding(pc, -1, SevError, CheckAlias, Interval{},
					"table does not alias any graph lut node: weight pushes would never reach it")
			}
		}
	}

	// Declared inputs are caller-filled arena windows; a constant-backed
	// input would make the device write weight storage every packet.
	for i := range c.g.Inputs {
		if in := c.p.InputOperand(i); in.Const != nil {
			c.finding(-1, c.g.Inputs[i], SevError, CheckAlias, Interval{},
				"declared input %d aliases constant storage", i)
		}
	}
	// A constant-backed output must read the declared node's own storage:
	// the KConst itself, or the KConst a chain of slices selects a window of
	// (equiv() proves the window's lanes).
	for i, id := range c.g.Outputs {
		out := c.p.OutputOperand(i)
		if out.Const == nil || len(out.Const) == 0 {
			continue
		}
		root := c.g.Node(id)
		for root.Kind == mr.KSlice {
			root = c.g.Node(root.Args[0])
		}
		owner, ok := c.constOf[&out.Const[0]]
		if !ok || owner != root.ID {
			c.finding(-1, id, SevError, CheckAlias, Interval{},
				"declared output %d reads storage that is not its own const node", i)
		}
	}
}

// operandFault checks one constant-backed operand's storage identity,
// returning what is wrong with it ("" when nothing is) and the const node it
// aliases, if any. Arena-backed operands (Const == nil) are bounds()'s
// business; unused operands are zero values and pass the same way.
func (c *checker) operandFault(o sched.Operand) (node mr.NodeID, fault string) {
	if o.Const == nil {
		return -1, ""
	}
	if len(o.Const) == 0 {
		return -1, "aliases an empty constant slice"
	}
	id, ok := c.constOf[&o.Const[0]]
	if !ok {
		return -1, "aliases storage outside every graph const node: weight pushes would never reach it"
	}
	if o.Off < 0 || o.W < 0 || o.Off+o.W > len(o.Const) {
		return id, fmt.Sprintf("window [%d,%d) overruns const node %d's %d lanes", o.Off, o.Off+o.W, id, len(o.Const))
	}
	return id, ""
}

// constNode resolves a constant-backed operand to its graph node, or -1.
// equiv() keys weight leaves by this identity so two expressions are equal
// exactly when they read the same mutable slot — equivalence that survives
// live weight pushes.
func (c *checker) constNode(o sched.Operand) mr.NodeID {
	if o.Const == nil || len(o.Const) == 0 {
		return -1
	}
	if id, ok := c.constOf[&o.Const[0]]; ok {
		return id
	}
	return -1
}
