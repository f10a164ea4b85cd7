package cgra

import (
	"fmt"
	"math/bits"

	mr "taurus/internal/mapreduce"
)

// GroupKind classifies a placed group of fused IR nodes.
type GroupKind int

const (
	// GroupCU executes on a compute unit.
	GroupCU GroupKind = iota
	// GroupMU executes on a memory unit (LUT reads).
	GroupMU
	// GroupWire is pure routing (concat/slice): no unit, no compute
	// latency; its position is where the fan-in converges.
	GroupWire
)

// String names the kind.
func (k GroupKind) String() string {
	return [...]string{"cu", "mu", "wire"}[k]
}

// Group is a set of IR nodes fused onto one unit traversal.
type Group struct {
	Kind GroupKind
	Pos  Coord
	// Nodes fused into this group, in topological order.
	Nodes []mr.NodeID
	// Slots is the number of pipeline issue slots the traversal occupies
	// (>= 1). A CU's traversal latency is max(Stages, Slots).
	Slots int
	// Iterations > 1 means the unit processes the group's work in chunks
	// (vector wider than the lane count), serialising the traversal.
	Iterations int
	// Pack > 1 means this unit serves Pack sibling groups per packet
	// (§4 unrolling in reverse); it scales the unit's issue occupancy.
	Pack int
}

// traversalCycles is the latency of one pass through the group's unit.
func (g *Group) traversalCycles(spec GridSpec) int {
	switch g.Kind {
	case GroupWire:
		return 0
	case GroupMU:
		return MUAccessCycles
	default:
		lat := g.Slots
		if lat < spec.Stages {
			lat = spec.Stages
		}
		iters := g.Iterations
		if iters < 1 {
			iters = 1
		}
		pack := g.Pack
		if pack < 1 {
			pack = 1
		}
		// Chunks and packed siblings issue back-to-back into the pipeline:
		// the first traversal costs lat, each further issue adds one cycle
		// per slot of new work beyond the pipeline fill.
		extra := (iters*pack - 1) * g.issueSlots()
		return lat + extra
	}
}

// issueSlots is the per-issue occupancy used for II accounting.
func (g *Group) issueSlots() int {
	if g.Kind != GroupCU {
		return 1
	}
	s := g.Slots
	if s < 1 {
		s = 1
	}
	return s
}

// occupancy is the number of issue slots this group consumes on its unit
// per packet — the unit cannot accept the next packet sooner.
func (g *Group) occupancy() int {
	iters := g.Iterations
	if iters < 1 {
		iters = 1
	}
	pack := g.Pack
	if pack < 1 {
		pack = 1
	}
	switch g.Kind {
	case GroupWire:
		return 0
	case GroupMU:
		return iters * pack
	default:
		return iters * pack
	}
}

// Placement maps every graph node to a group and every group to a unit.
type Placement struct {
	Spec GridSpec
	// Groups in topological order (producers before consumers).
	Groups []*Group
	// NodeGroup[nodeID] = index into Groups, or -1 for nodes that need no
	// unit (inputs, constants).
	NodeGroup []int
}

// Validate checks structural consistency against the graph.
func (p *Placement) Validate(g *mr.Graph) error {
	if err := p.Spec.Validate(); err != nil {
		return err
	}
	if len(p.NodeGroup) != len(g.Nodes) {
		return fmt.Errorf("cgra: NodeGroup covers %d nodes, graph has %d", len(p.NodeGroup), len(g.Nodes))
	}
	seen := make([]bool, len(g.Nodes))
	for gi, grp := range p.Groups {
		if len(grp.Nodes) == 0 {
			return fmt.Errorf("cgra: group %d is empty", gi)
		}
		for _, n := range grp.Nodes {
			if n < 0 || int(n) >= len(g.Nodes) {
				return fmt.Errorf("cgra: group %d names node %d, graph has %d", gi, n, len(g.Nodes))
			}
			if seen[n] {
				return fmt.Errorf("cgra: node %d in multiple groups", n)
			}
			seen[n] = true
			if p.NodeGroup[n] != gi {
				return fmt.Errorf("cgra: node %d group index mismatch", n)
			}
		}
		if grp.Kind != GroupWire {
			if grp.Pos.Col < 0 || grp.Pos.Col >= p.Spec.Cols || grp.Pos.Row < 0 || grp.Pos.Row >= p.Spec.Rows {
				return fmt.Errorf("cgra: group %d placed off-grid at %+v", gi, grp.Pos)
			}
			isMU := p.Spec.IsMU(grp.Pos)
			if grp.Kind == GroupMU && !isMU {
				return fmt.Errorf("cgra: group %d is a LUT but placed on a CU at %+v", gi, grp.Pos)
			}
			if grp.Kind == GroupCU && isMU {
				return fmt.Errorf("cgra: group %d is compute but placed on an MU at %+v", gi, grp.Pos)
			}
		}
	}
	for id, n := range g.Nodes {
		gi := p.NodeGroup[id]
		switch n.Kind {
		case mr.KInput, mr.KConst:
			if gi != -1 {
				return fmt.Errorf("cgra: node %d (%v) should not be grouped", id, n.Kind)
			}
		default:
			if gi < 0 || gi >= len(p.Groups) {
				return fmt.Errorf("cgra: node %d (%v) has no group", id, n.Kind)
			}
		}
	}
	return nil
}

// Stats is the timing of one placed graph: a packet's latency through it,
// the interval between packets and the units it occupies.
type Stats struct {
	// LatencyCycles is the pipeline latency from PHV entry to PHV exit.
	LatencyCycles int
	// II is the initiation interval in cycles: 1 sustains full line rate
	// (1 GPkt/s at 1 GHz); k sustains 1/k of line rate (Table 7).
	II int
	// CUsUsed / MUsUsed count distinct units touched.
	CUsUsed, MUsUsed int
}

// LatencyNs converts the latency to nanoseconds at the 1 GHz fabric clock.
func (s Stats) LatencyNs() float64 { return float64(s.LatencyCycles) }

// LineRateFraction is the sustained fraction of line rate.
func (s Stats) LineRateFraction() float64 {
	if s.II <= 0 {
		return 0
	}
	return 1 / float64(s.II)
}

// Timing computes latency and II for the placed graph without executing
// values.
func Timing(g *mr.Graph, p *Placement) (Stats, error) {
	if err := p.Validate(g); err != nil {
		return Stats{}, err
	}
	inPort := p.Spec.InputPort()
	// Results rejoin the PHV at the active boundary of the placed design
	// (Figure 7: the output FIFO sits just past the last used column).
	outPort := p.Spec.OutputPort()
	maxCol := -1
	for _, grp := range p.Groups {
		if grp.Kind != GroupWire && grp.Pos.Col > maxCol {
			maxCol = grp.Pos.Col
		}
	}
	if maxCol+1 < outPort.Col {
		outPort = Coord{Row: p.Spec.Rows / 2, Col: maxCol + 1}
	}

	// nodeReady[n] = cycle at which node n's value is available at its
	// group's position (or at the input port for inputs/consts).
	nodeReady := make([]int, len(g.Nodes))
	nodePos := make([]Coord, len(g.Nodes))

	for _, n := range g.Nodes {
		switch n.Kind {
		case mr.KInput:
			nodeReady[n.ID] = PHVInCycles
			nodePos[n.ID] = inPort
		case mr.KConst:
			// Weights are resident in MUs adjacent to their consumers; they
			// are available from cycle 0 at the consumer's position.
			nodeReady[n.ID] = 0
		}
	}

	// Groups fire in list order; fused groups must be convex (all external
	// arguments produced by earlier groups or by inputs/consts). Groups
	// sharing a physical unit serialise: a unit runs one configuration at a
	// time (§4's unrolling trade-off in reverse).
	unitBusy := make([]int, p.Spec.Rows*p.Spec.Cols) // by unit, row-major
	for gi, grp := range p.Groups {
		pos := grp.effectivePos(inPort)
		arrive := 0
		for _, member := range grp.Nodes {
			for _, arg := range g.Node(member).Args {
				ai := p.NodeGroup[arg]
				if ai == gi {
					continue // internal edge
				}
				an := g.Node(arg)
				var t int
				switch {
				case an.Kind == mr.KConst:
					t = 0 // co-located weights
				case an.Kind == mr.KInput:
					t = nodeReady[arg] + LinkCycles(inPort, pos)
				default:
					if ai > gi {
						return Stats{}, fmt.Errorf("cgra: group %d consumes node %d from later group %d (non-convex fusion)", gi, arg, ai)
					}
					t = nodeReady[arg] + LinkCycles(nodePos[arg], pos)
				}
				if t > arrive {
					arrive = t
				}
			}
		}
		if grp.Kind != GroupWire {
			arrive = max(arrive, unitBusy[p.Spec.unit(pos)])
		}
		done := arrive + grp.traversalCycles(p.Spec)
		if grp.Kind != GroupWire {
			unitBusy[p.Spec.unit(pos)] = done
		}
		for _, member := range grp.Nodes {
			nodeReady[member] = done
			nodePos[member] = pos
		}
	}

	latency := 0
	for _, o := range g.Outputs {
		t := nodeReady[o]
		pos := nodePos[o]
		if g.Node(o).Kind == mr.KInput || g.Node(o).Kind == mr.KConst {
			pos = inPort
		}
		t += LinkCycles(pos, outPort) + PHVOutCycles
		if t > latency {
			latency = t
		}
	}

	// II: total issue occupancy per physical unit. CUs issue one vector op
	// per cycle; MUs serve MUBanks lookups per cycle across their banks. A
	// unit is a CU or an MU by position, so one row-major slice — unitBusy's,
	// which is done with — holds both kinds: a CU's issue load, or an MU's
	// lane reads until they are turned into bank cycles.
	load := unitBusy
	clear(load)
	cus, mus := 0, 0
	for _, grp := range p.Groups {
		if grp.Kind == GroupWire {
			continue
		}
		u := p.Spec.unit(grp.Pos)
		if load[u] == 0 {
			if grp.Kind == GroupMU {
				mus++
			} else {
				cus++
			}
		}
		if grp.Kind == GroupMU {
			for _, m := range grp.Nodes {
				load[u] += g.Node(m).Width
			}
		} else {
			load[u] += grp.occupancy()
		}
	}
	ii := 1
	for u, l := range load {
		if p.Spec.IsMU(Coord{Row: u / p.Spec.Cols, Col: u % p.Spec.Cols}) {
			l = (l + MUBanks - 1) / MUBanks
		}
		ii = max(ii, l)
	}
	return Stats{LatencyCycles: latency, II: ii, CUsUsed: cus, MUsUsed: mus}, nil
}

// effectivePos returns the group's routing position; wires sit at their
// recorded convergence point, which defaults to the input port if unset.
func (g *Group) effectivePos(fallback Coord) Coord {
	if g.Kind == GroupWire && g.Pos == (Coord{}) {
		return fallback
	}
	return g.Pos
}

// NodeSlots returns the pipeline issue slots one node occupies in a CU with
// the given lane count — the cost the compiler's fusion budgets and
// graphcheck's slot census both charge. A reduction's tree is per lane
// chunk (the chunk count is the group's iterations); a wide rescale is the
// FU's post-op output shifter, free when fused into a chain; wires and
// storage occupy no CU slot.
func NodeSlots(g *mr.Graph, n *mr.Node, lanes int) int {
	switch n.Kind {
	case mr.KMap, mr.KUnary, mr.KRequant, mr.KLUT:
		return 1
	case mr.KReduce:
		return Log2Ceil(min(g.Node(n.Args[0]).Width, lanes))
	default:
		return 0
	}
}

// Log2Ceil returns ceil(log2(n)), and 1 for n <= 1: the depth of a
// reduction tree over n lanes, which takes at least one stage.
func Log2Ceil(n int) int {
	if n <= 1 {
		return 1
	}
	return bits.Len(uint(n - 1))
}
