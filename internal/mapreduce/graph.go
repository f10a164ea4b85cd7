// Package mapreduce implements the paper's data-plane programming
// abstraction (§3.3): programs are nested Map and Reduce patterns over
// fixed-width integer vectors, expressed as a static dataflow graph. The
// builder mirrors the P4 MapReduce control block of Figure 4; the graph is
// what internal/compiler places onto the CGRA grid, what internal/cgra
// places and times (its II and latency), and what the tape in
// internal/sched runs per packet.
//
// Value semantics are integer (int32 carriers): vector lanes hold 8-bit
// codes, reduce trees accumulate at 32 bits, and Requant/LUT nodes return
// values to the 8-bit domain — matching the fixed-point datapath of §4.
package mapreduce

import (
	"fmt"

	"taurus/internal/fixed"
)

// NodeID names a node within its graph.
type NodeID int

// Kind discriminates node types.
type Kind int

const (
	// KInput is the feature vector entering from the PHV (Figure 7).
	KInput Kind = iota
	// KConst is a weight/constant vector resident in an MU.
	KConst
	// KMap is an element-wise binary operation (§3.3.1 "map operations are
	// element-wise vector operations"). The second operand may be width 1,
	// in which case it broadcasts.
	KMap
	// KUnary is an element-wise unary operation.
	KUnary
	// KReduce combines a vector to a scalar with an associative operator.
	KReduce
	// KConcat packs scalars/vectors into one vector.
	KConcat
	// KRequant rescales 32-bit accumulators into the 8-bit domain with an
	// integer multiplier (the hardware's requantisation stage).
	KRequant
	// KLUT is a lookup-table non-linearity: a 1024-entry 8-bit table in an
	// MU indexed by a requantised accumulator (§5.1.3 "1024 8-bit entries").
	KLUT
	// KSlice extracts a contiguous window of a vector (pure routing: used by
	// convolutions to address overlapping input windows).
	KSlice
	// KScale is a wide requantisation: multiplies by an integer multiplier
	// like KRequant but saturates at 32 bits instead of 8. Used inside long
	// arithmetic chains whose intermediates live in pipeline registers
	// (wider than a lane) rather than 8-bit storage.
	KScale
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KInput:
		return "input"
	case KConst:
		return "const"
	case KMap:
		return "map"
	case KUnary:
		return "unary"
	case KReduce:
		return "reduce"
	case KConcat:
		return "concat"
	case KRequant:
		return "requant"
	case KLUT:
		return "lut"
	case KSlice:
		return "slice"
	case KScale:
		return "scale"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// MapOp is a binary element-wise operator.
type MapOp int

const (
	// MAdd adds lanes.
	MAdd MapOp = iota
	// MSub subtracts lanes.
	MSub
	// MMul multiplies lanes.
	MMul
	// MMin takes the lane-wise minimum.
	MMin
	// MMax takes the lane-wise maximum.
	MMax
)

// String names the operator.
func (o MapOp) String() string {
	return [...]string{"add", "sub", "mul", "min", "max"}[o]
}

// Apply evaluates the operator on one lane.
func (o MapOp) Apply(a, b int32) int32 {
	switch o {
	case MAdd:
		return fixed.Fix32.Saturate(int64(a) + int64(b))
	case MSub:
		return fixed.Fix32.Saturate(int64(a) - int64(b))
	case MMul:
		return fixed.Fix32.Saturate(int64(a) * int64(b))
	case MMin:
		if a < b {
			return a
		}
		return b
	case MMax:
		if a > b {
			return a
		}
		return b
	default:
		panic("mapreduce: unknown map op")
	}
}

// UnaryOp is an element-wise unary operator.
type UnaryOp int

const (
	// UReLU is max(0, x).
	UReLU UnaryOp = iota
	// ULeakyReLU multiplies negative lanes by ~0.01 (82/8192 in integer
	// arithmetic, matching the quantised inference path).
	ULeakyReLU
	// UNeg negates.
	UNeg
	// UAbs takes the absolute value.
	UAbs
)

// String names the operator.
func (o UnaryOp) String() string {
	return [...]string{"relu", "leakyrelu", "neg", "abs"}[o]
}

// Apply evaluates the operator on one lane.
func (o UnaryOp) Apply(a int32) int32 {
	switch o {
	case UReLU:
		if a < 0 {
			return 0
		}
		return a
	case ULeakyReLU:
		if a < 0 {
			return int32((int64(a)*82 + 4096) >> 13)
		}
		return a
	case UNeg:
		return fixed.Fix32.Saturate(-int64(a))
	case UAbs:
		if a < 0 {
			return fixed.Fix32.Saturate(-int64(a))
		}
		return a
	default:
		panic("mapreduce: unknown unary op")
	}
}

// ReduceOp combines a vector into a scalar.
type ReduceOp int

const (
	// RAdd sums the lanes (the dot-product reduction of Figure 3).
	RAdd ReduceOp = iota
	// RMin takes the minimum lane value.
	RMin
	// RMax takes the maximum lane value.
	RMax
	// RArgMin yields the index of the minimum lane (KMeans' nearest
	// centroid; eRSS's "reduce selects the closest core", §3.3.2).
	RArgMin
	// RArgMax yields the index of the maximum lane.
	RArgMax
)

// String names the operator.
func (o ReduceOp) String() string {
	return [...]string{"sum", "min", "max", "argmin", "argmax"}[o]
}

// Apply evaluates the reduction over vals (must be non-empty).
func (o ReduceOp) Apply(vals []int32) int32 {
	if len(vals) == 0 {
		panic("mapreduce: reduce of empty vector")
	}
	switch o {
	case RAdd:
		var s int64
		for _, v := range vals {
			s += int64(v)
		}
		return fixed.Fix32.Saturate(s)
	case RMin, RArgMin:
		best := 0
		for i, v := range vals {
			if v < vals[best] {
				best = i
			}
		}
		if o == RArgMin {
			return int32(best)
		}
		return vals[best]
	case RMax, RArgMax:
		best := 0
		for i, v := range vals {
			if v > vals[best] {
				best = i
			}
		}
		if o == RArgMax {
			return int32(best)
		}
		return vals[best]
	default:
		panic("mapreduce: unknown reduce op")
	}
}

// LUTSize is the number of entries in a hardware lookup table (§5.1.3).
const LUTSize = 1024

// LUT is a quantised non-linearity: idx = clamp(Mult.Apply(acc)) in
// [-512, 511], output = Table[idx+512].
type LUT struct {
	Mult  fixed.Multiplier
	Table [LUTSize]int8
}

// Apply evaluates the table on an accumulator value.
func (l *LUT) Apply(acc int32) int32 {
	idx := l.Mult.Apply(acc)
	if idx < -LUTSize/2 {
		idx = -LUTSize / 2
	}
	if idx > LUTSize/2-1 {
		idx = LUTSize/2 - 1
	}
	return int32(l.Table[idx+LUTSize/2])
}

// Node is one dataflow vertex.
type Node struct {
	ID    NodeID
	Kind  Kind
	Width int // output vector width

	// Args are input node IDs (empty for KInput/KConst).
	Args []NodeID

	// Operator payloads (used according to Kind).
	Map    MapOp
	Unary  UnaryOp
	Reduce ReduceOp
	Mult   fixed.Multiplier // KRequant
	LUT    *LUT             // KLUT
	Const  []int32          // KConst
	Start  int              // KSlice window offset
	Name   string           // KInput/KConst label
}

// Graph is a complete MapReduce program: nodes in topological order (the
// builder only references already-built nodes) plus designated outputs.
type Graph struct {
	Name    string
	Nodes   []*Node
	Inputs  []NodeID
	Outputs []NodeID
}

// Node returns the node with the given ID.
func (g *Graph) Node(id NodeID) *Node { return g.Nodes[id] }

// Validate checks structural invariants: argument IDs in range and built
// before use, widths consistent, payloads present.
func (g *Graph) Validate() error {
	if len(g.Outputs) == 0 {
		return fmt.Errorf("mapreduce: graph %q has no outputs", g.Name)
	}
	for i, n := range g.Nodes {
		if err := n.checkID(i); err != nil {
			return err
		}
		if n.Width <= 0 {
			return fmt.Errorf("mapreduce: node %d has width %d", i, n.Width)
		}
		for _, a := range n.Args {
			if a < 0 || int(a) >= i {
				return fmt.Errorf("mapreduce: node %d references %d (not topological)", i, a)
			}
		}
		switch n.Kind {
		case KInput:
			if len(n.Args) != 0 {
				return fmt.Errorf("mapreduce: input node %d has args", i)
			}
		case KConst:
			if err := n.checkPayload(i); err != nil {
				return err
			}
		case KMap:
			if len(n.Args) != 2 {
				return fmt.Errorf("mapreduce: map node %d needs 2 args", i)
			}
			a, b := g.Node(n.Args[0]), g.Node(n.Args[1])
			if a.Width != n.Width {
				return fmt.Errorf("mapreduce: map node %d width %d != first arg %d", i, n.Width, a.Width)
			}
			if b.Width != n.Width && b.Width != 1 {
				return fmt.Errorf("mapreduce: map node %d second arg width %d (want %d or 1)", i, b.Width, n.Width)
			}
		case KUnary, KRequant, KScale, KLUT:
			if len(n.Args) != 1 {
				return fmt.Errorf("mapreduce: node %d needs 1 arg", i)
			}
			if g.Node(n.Args[0]).Width != n.Width {
				return fmt.Errorf("mapreduce: node %d width mismatch", i)
			}
			if n.Kind == KLUT && n.LUT == nil {
				return fmt.Errorf("mapreduce: LUT node %d missing table", i)
			}
			if err := n.checkPayload(i); err != nil {
				return err
			}
		case KReduce:
			if len(n.Args) != 1 {
				return fmt.Errorf("mapreduce: reduce node %d needs 1 arg", i)
			}
			if n.Width != 1 {
				return fmt.Errorf("mapreduce: reduce node %d must have width 1", i)
			}
		case KSlice:
			if len(n.Args) != 1 {
				return fmt.Errorf("mapreduce: slice node %d needs 1 arg", i)
			}
			if n.Start < 0 || n.Start+n.Width > g.Node(n.Args[0]).Width {
				return fmt.Errorf("mapreduce: slice node %d window [%d,%d) exceeds arg width %d",
					i, n.Start, n.Start+n.Width, g.Node(n.Args[0]).Width)
			}
		case KConcat:
			if len(n.Args) == 0 {
				return fmt.Errorf("mapreduce: concat node %d has no args", i)
			}
			total := 0
			for _, a := range n.Args {
				total += g.Node(a).Width
			}
			if total != n.Width {
				return fmt.Errorf("mapreduce: concat node %d width %d != sum %d", i, n.Width, total)
			}
		default:
			return fmt.Errorf("mapreduce: node %d has unknown kind %v", i, n.Kind)
		}
	}
	for _, o := range g.Outputs {
		if int(o) >= len(g.Nodes) || o < 0 {
			return fmt.Errorf("mapreduce: output %d out of range", o)
		}
	}
	for _, in := range g.Inputs {
		if int(in) >= len(g.Nodes) || g.Node(in).Kind != KInput {
			return fmt.Errorf("mapreduce: declared input %d is not an input node", in)
		}
	}
	return nil
}

// ValidatePayloads is the part of Validate that a weight-only change can
// break — node IDs, constant lengths and multiplier encodings — for a graph
// whose structure is known to pass it (graphcheck.Compatible with one that
// did). On such a graph it returns exactly the error Validate would.
func (g *Graph) ValidatePayloads() error {
	for i, n := range g.Nodes {
		if err := n.checkID(i); err != nil {
			return err
		}
		if err := n.checkPayload(i); err != nil {
			return err
		}
	}
	return nil
}

func (n *Node) checkID(i int) error {
	if n.ID != NodeID(i) {
		return fmt.Errorf("mapreduce: node %d has ID %d", i, n.ID)
	}
	return nil
}

// checkPayload checks node i's weights against its shape: a KConst holds one
// value per lane, and requant, scale and LUT-index multipliers are genuine
// NewMultiplier encodings (M0 and Shift positive) — a zero or negative M0 is
// not a positive real factor, and downstream range analysis relies on Apply
// being monotone in the accumulator. A KLUT's table must be present (Validate
// checks that first; Compatible keeps it so).
func (n *Node) checkPayload(i int) error {
	switch n.Kind {
	case KConst:
		if len(n.Const) != n.Width {
			return fmt.Errorf("mapreduce: const node %d has %d values for width %d", i, len(n.Const), n.Width)
		}
	case KRequant, KScale:
		if n.Mult.M0 <= 0 || n.Mult.Shift <= 0 {
			return fmt.Errorf("mapreduce: node %d multiplier (M0=%d, shift=%d) is not a positive factor encoding", i, n.Mult.M0, n.Mult.Shift)
		}
	case KLUT:
		if n.LUT.Mult.M0 <= 0 || n.LUT.Mult.Shift <= 0 {
			return fmt.Errorf("mapreduce: LUT node %d index multiplier (M0=%d, shift=%d) is not a positive factor encoding", i, n.LUT.Mult.M0, n.LUT.Mult.Shift)
		}
	}
	return nil
}

// Eval interprets the program on the given input vectors (one []int32 per
// declared input, in order). It returns the output vectors. This is the
// reference semantics the CGRA simulator must match bit-exactly.
func (g *Graph) Eval(inputs ...[]int32) ([][]int32, error) {
	if len(inputs) != len(g.Inputs) {
		return nil, fmt.Errorf("mapreduce: got %d inputs, want %d", len(inputs), len(g.Inputs))
	}
	vals := make([][]int32, len(g.Nodes))
	for i, in := range g.Inputs {
		if len(inputs[i]) != g.Node(in).Width {
			return nil, fmt.Errorf("mapreduce: input %d has width %d, want %d", i, len(inputs[i]), g.Node(in).Width)
		}
		vals[in] = inputs[i]
	}
	for _, n := range g.Nodes {
		switch n.Kind {
		case KInput:
			if vals[n.ID] == nil {
				return nil, fmt.Errorf("mapreduce: input node %d not bound", n.ID)
			}
		case KConst:
			vals[n.ID] = n.Const
		case KMap:
			a, b := vals[n.Args[0]], vals[n.Args[1]]
			out := make([]int32, n.Width)
			for i := range out {
				bv := b[0]
				if len(b) > 1 {
					bv = b[i]
				}
				out[i] = n.Map.Apply(a[i], bv)
			}
			vals[n.ID] = out
		case KUnary:
			a := vals[n.Args[0]]
			out := make([]int32, n.Width)
			for i := range out {
				out[i] = n.Unary.Apply(a[i])
			}
			vals[n.ID] = out
		case KReduce:
			vals[n.ID] = []int32{n.Reduce.Apply(vals[n.Args[0]])}
		case KConcat:
			out := make([]int32, 0, n.Width)
			for _, a := range n.Args {
				out = append(out, vals[a]...)
			}
			vals[n.ID] = out
		case KRequant:
			a := vals[n.Args[0]]
			out := make([]int32, n.Width)
			for i := range out {
				out[i] = int32(n.Mult.ApplySat8(a[i]))
			}
			vals[n.ID] = out
		case KScale:
			a := vals[n.Args[0]]
			out := make([]int32, n.Width)
			for i := range out {
				out[i] = n.Mult.Apply(a[i])
			}
			vals[n.ID] = out
		case KLUT:
			a := vals[n.Args[0]]
			out := make([]int32, n.Width)
			for i := range out {
				out[i] = n.LUT.Apply(a[i])
			}
			vals[n.ID] = out
		case KSlice:
			a := vals[n.Args[0]]
			vals[n.ID] = a[n.Start : n.Start+n.Width]
		}
	}
	outs := make([][]int32, len(g.Outputs))
	for i, o := range g.Outputs {
		outs[i] = vals[o]
	}
	return outs, nil
}
