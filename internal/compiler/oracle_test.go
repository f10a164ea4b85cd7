package compiler

import (
	"fmt"

	"taurus/internal/cgra"
	"taurus/internal/hwmodel"
	mr "taurus/internal/mapreduce"
)

// The oracle is the compiler as it was before its passes were made linear
// and slice-indexed, kept verbatim: fuse's rescan for a chain tail's consumer
// and its per-node dedupe map, place's and Timing's map[Coord] unit tables,
// Validate's map of seen nodes. TestCompileMatchesOracle and
// FuzzCompileOracle require Compile to return a Result reflect.DeepEqual to
// oracleCompile's — same groups, positions, stats and bill — on every graph
// they try.

// oracleCompile is Compile with the old passes.
func oracleCompile(g *mr.Graph, opts Options) (*Result, error) {
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("compiler: invalid graph: %w", err)
	}
	spec := opts.Grid
	if spec == (cgra.GridSpec{}) {
		spec = cgra.DefaultGrid()
	}
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("compiler: %w", err)
	}

	groups, nodeGroup := oracleFuse(g, spec)
	groups, nodeGroup = oracleMergeAdjacent(g, spec, groups, nodeGroup)
	pl := &cgra.Placement{Spec: spec, Groups: groups, NodeGroup: nodeGroup}
	if err := oraclePlace(g, pl, opts); err != nil {
		return nil, err
	}
	stats, err := oracleTiming(g, pl)
	if err != nil {
		return nil, fmt.Errorf("compiler: timing: %w", err)
	}

	weightBytes, lutCount := 0, 0
	for _, n := range g.Nodes {
		switch n.Kind {
		case mr.KConst:
			weightBytes += n.Width
		case mr.KLUT:
			lutCount++
		}
	}
	capPerMU := hwmodel.MUBanks * hwmodel.MUEntries
	bytesNeeded := weightBytes + lutCount*mr.LUTSize
	museNeeded := (bytesNeeded + capPerMU - 1) / capPerMU
	mus := stats.MUsUsed
	if museNeeded > mus {
		mus = museNeeded
	}
	if weightBytes > 0 && mus == 0 {
		mus = 1
	}

	return &Result{
		Graph:     g,
		Placement: pl,
		Stats:     stats,
		Usage: hwmodel.Usage{
			CUs: stats.CUsUsed, MUs: mus,
			Lanes: spec.Lanes, Stages: spec.Stages, Precision: spec.Precision,
		},
		WeightBytes: weightBytes,
		LUTCount:    lutCount,
	}, nil
}

// oracleFuse partitions compute nodes into convex groups (chains) sized for one
// CU traversal, and wraps LUTs and wires in their own groups.
func oracleFuse(g *mr.Graph, spec cgra.GridSpec) ([]*cgra.Group, []int) {
	// uses counts *distinct consumers* (a node consuming the same value on
	// both operands, like x*x, is one consumer).
	uses := make([]int, len(g.Nodes))
	for _, n := range g.Nodes {
		seen := map[mr.NodeID]bool{}
		for _, a := range n.Args {
			if !seen[a] {
				uses[a]++
				seen[a] = true
			}
		}
	}
	for _, o := range g.Outputs {
		uses[o]++ // outputs have an external consumer
	}

	nodeGroup := make([]int, len(g.Nodes))
	for i := range nodeGroup {
		nodeGroup[i] = -1
	}
	var groups []*cgra.Group

	// Slot budgets: a pure element-wise chain fills the pipeline depth; a
	// chain containing a reduction may additionally use per-cycle fractions
	// of a stage for the tree (§5.1.3), plus a couple of trailing scalar
	// ops (bias add, requant).
	chainCap := spec.Stages
	reduceCap := 2 + cgra.Log2Ceil(spec.Lanes) + 2

	inGroup := func(grp *cgra.Group, id mr.NodeID) bool {
		for _, m := range grp.Nodes {
			if m == id {
				return true
			}
		}
		return false
	}

	for _, n := range g.Nodes {
		if nodeGroup[n.ID] != -1 {
			continue
		}
		switch n.Kind {
		case mr.KInput, mr.KConst:
			continue
		case mr.KConcat, mr.KSlice:
			grp := &cgra.Group{Kind: cgra.GroupWire, Nodes: []mr.NodeID{n.ID}, Slots: 0, Iterations: 1, Pack: 1}
			nodeGroup[n.ID] = len(groups)
			groups = append(groups, grp)
		case mr.KLUT:
			iters := (n.Width + hwmodel.MUBanks - 1) / hwmodel.MUBanks
			grp := &cgra.Group{Kind: cgra.GroupMU, Nodes: []mr.NodeID{n.ID}, Slots: 1, Iterations: iters, Pack: 1}
			nodeGroup[n.ID] = len(groups)
			groups = append(groups, grp)
		default: // compute chain head
			grp := &cgra.Group{Kind: cgra.GroupCU, Nodes: []mr.NodeID{n.ID}, Iterations: 1, Pack: 1}
			slots := cgra.NodeSlots(g, n, spec.Lanes)
			hasReduce := n.Kind == mr.KReduce
			maxWidth := chainWidth(g, n)
			gi := len(groups)
			nodeGroup[n.ID] = gi

			tail := n
			for {
				// The tail must have exactly one consumer, the consumer
				// must be fusible compute, and all its other args must be
				// constants or already in this group (convexity).
				if uses[tail.ID] != 1 {
					break
				}
				var next *mr.Node
				for _, cand := range g.Nodes[tail.ID+1:] {
					for _, a := range cand.Args {
						if a == tail.ID {
							next = cand
							break
						}
					}
					if next != nil {
						break
					}
				}
				if next == nil || !fusible(next.Kind) || nodeGroup[next.ID] != -1 {
					break
				}
				ok := true
				for _, a := range next.Args {
					if a == tail.ID {
						continue
					}
					an := g.Node(a)
					if an.Kind == mr.KConst || inGroup(grp, a) {
						continue
					}
					ok = false
					break
				}
				if !ok {
					break
				}
				nextSlots := slots + cgra.NodeSlots(g, next, spec.Lanes)
				nextReduce := hasReduce || next.Kind == mr.KReduce
				cap := chainCap
				if nextReduce {
					cap = reduceCap
				}
				if nextSlots > cap {
					break
				}
				if w := chainWidth(g, next); w > maxWidth {
					maxWidth = w
				}
				grp.Nodes = append(grp.Nodes, next.ID)
				nodeGroup[next.ID] = gi
				slots = nextSlots
				hasReduce = nextReduce
				tail = next
			}
			grp.Slots = slots
			grp.Iterations = (maxWidth + spec.Lanes - 1) / spec.Lanes
			if grp.Iterations < 1 {
				grp.Iterations = 1
			}
			groups = append(groups, grp)
		}
	}
	return groups, nodeGroup
}

// oracleMergeAdjacent bin-packs small neighbouring CU groups into shared units: a
// fan-out inside a CU is free (lanes read the same relative location), so
// sibling element-wise ops of a piecewise function need not each burn a CU.
// Only adjacent groups in topological order merge, which preserves convexity
// (no intermediate group can depend on the first and feed the second).
func oracleMergeAdjacent(g *mr.Graph, spec cgra.GridSpec, groups []*cgra.Group, nodeGroup []int) ([]*cgra.Group, []int) {
	hasReduce := func(grp *cgra.Group) bool {
		for _, n := range grp.Nodes {
			if g.Node(n).Kind == mr.KReduce {
				return true
			}
		}
		return false
	}
	chainCap := spec.Stages
	reduceCap := 2 + cgra.Log2Ceil(spec.Lanes) + 2

	var out []*cgra.Group
	for _, grp := range groups {
		if len(out) > 0 {
			prev := out[len(out)-1]
			cap := chainCap
			if hasReduce(prev) || hasReduce(grp) {
				cap = reduceCap
			}
			if prev.Kind == cgra.GroupCU && grp.Kind == cgra.GroupCU &&
				prev.Iterations == 1 && grp.Iterations == 1 &&
				prev.Slots+grp.Slots <= cap {
				prev.Nodes = append(prev.Nodes, grp.Nodes...)
				prev.Slots += grp.Slots
				continue
			}
		}
		out = append(out, grp)
	}
	for gi, grp := range out {
		for _, n := range grp.Nodes {
			nodeGroup[n] = gi
		}
	}
	return out, nodeGroup
}

// oraclePlace assigns groups to grid units: greedy nearest-free-unit to the
// producer centroid, one column deeper; wires sit at their producer
// centroid. When the unit pool is exhausted (or capped), groups share the
// least-loaded unit, raising II.
func oraclePlace(g *mr.Graph, pl *cgra.Placement, opts Options) error {
	spec := pl.Spec
	var freeCUs, freeMUs []cgra.Coord
	for c := 0; c < spec.Cols; c++ {
		for r := 0; r < spec.Rows; r++ {
			pos := cgra.Coord{Row: r, Col: c}
			if spec.IsMU(pos) {
				freeMUs = append(freeMUs, pos)
			} else {
				freeCUs = append(freeCUs, pos)
			}
		}
	}
	if opts.MaxCUs > 0 && opts.MaxCUs < len(freeCUs) {
		freeCUs = freeCUs[:opts.MaxCUs]
	}
	if opts.MaxMUs > 0 && opts.MaxMUs < len(freeMUs) {
		freeMUs = freeMUs[:opts.MaxMUs]
	}
	if len(freeCUs) == 0 || len(freeMUs) == 0 {
		return fmt.Errorf("compiler: grid has no usable units (CUs=%d MUs=%d)", len(freeCUs), len(freeMUs))
	}

	used := map[cgra.Coord]int{}        // load per used unit
	lutHome := map[*mr.LUT]cgra.Coord{} // table -> MU hosting it
	inPort := spec.InputPort()

	// Producer position of a node for centroid computation.
	nodePos := make([]cgra.Coord, len(g.Nodes))
	for i := range nodePos {
		nodePos[i] = inPort
	}

	takeNearest := func(pool *[]cgra.Coord, want cgra.Coord) (cgra.Coord, bool) {
		if len(*pool) == 0 {
			return cgra.Coord{}, false
		}
		best, bestD := 0, 1<<30
		for i, c := range *pool {
			if d := c.Manhattan(want); d < bestD {
				best, bestD = i, d
			}
		}
		pos := (*pool)[best]
		(*pool) = append((*pool)[:best], (*pool)[best+1:]...)
		return pos, true
	}
	// shareLeastLoaded ranges over a map, so every tie is broken explicitly —
	// load, then distance to want (takeNearest's criterion), then row-major —
	// and the placement is a function of the graph, not of iteration order.
	shareLeastLoaded := func(kind cgra.GroupKind, want cgra.Coord) (cgra.Coord, error) {
		best := cgra.Coord{Row: -1}
		bestLoad, bestD := 1<<30, 1<<30
		for pos, load := range used {
			if spec.IsMU(pos) != (kind == cgra.GroupMU) {
				continue
			}
			d := pos.Manhattan(want)
			better := load < bestLoad ||
				load == bestLoad && (d < bestD ||
					d == bestD && (pos.Row < best.Row || pos.Row == best.Row && pos.Col < best.Col))
			if !better {
				continue
			}
			best, bestLoad, bestD = pos, load, d
		}
		if best.Row < 0 {
			return cgra.Coord{}, fmt.Errorf("compiler: no unit available to share for %v group", kind)
		}
		return best, nil
	}

	for _, grp := range pl.Groups {
		// Desired position: centroid of external producers, one column in.
		sumR, sumC, cnt := 0, 0, 0
		for _, m := range grp.Nodes {
			for _, a := range g.Node(m).Args {
				an := g.Node(a)
				if an.Kind == mr.KConst {
					continue
				}
				p := nodePos[a]
				sumR += p.Row
				sumC += p.Col
				cnt++
			}
		}
		want := inPort
		if cnt > 0 {
			want = cgra.Coord{Row: sumR / cnt, Col: sumC/cnt + 1}
		} else {
			want = cgra.Coord{Row: spec.Rows / 2, Col: 0}
		}
		if want.Col >= spec.Cols {
			want.Col = spec.Cols - 1
		}
		if want.Col < 0 {
			want.Col = 0
		}
		if want.Row < 0 {
			want.Row = 0
		}
		if want.Row >= spec.Rows {
			want.Row = spec.Rows - 1
		}

		switch grp.Kind {
		case cgra.GroupWire:
			grp.Pos = want
		case cgra.GroupMU:
			// Lookups against the same table share one MU: its banks serve
			// parallel reads (bank pressure surfaces as II in the timing
			// model if oversubscribed).
			lutKey := g.Node(grp.Nodes[0]).LUT
			if prev, ok := lutHome[lutKey]; ok {
				grp.Pos = prev
				used[prev]++
				break
			}
			pos, ok := takeNearest(&freeMUs, want)
			if !ok {
				var err error
				pos, err = shareLeastLoaded(cgra.GroupMU, want)
				if err != nil {
					return err
				}
			}
			grp.Pos = pos
			lutHome[lutKey] = pos
			used[pos]++
		default:
			pos, ok := takeNearest(&freeCUs, want)
			if !ok {
				var err error
				pos, err = shareLeastLoaded(cgra.GroupCU, want)
				if err != nil {
					return err
				}
			}
			grp.Pos = pos
			used[pos]++
		}
		for _, m := range grp.Nodes {
			nodePos[m] = grp.Pos
		}
	}
	return nil
}

// oracleValidate checks structural consistency against the graph.
func oracleValidate(p *cgra.Placement, g *mr.Graph) error {
	if err := p.Spec.Validate(); err != nil {
		return err
	}
	if len(p.NodeGroup) != len(g.Nodes) {
		return fmt.Errorf("cgra: NodeGroup covers %d nodes, graph has %d", len(p.NodeGroup), len(g.Nodes))
	}
	seen := make(map[mr.NodeID]bool)
	for gi, grp := range p.Groups {
		if len(grp.Nodes) == 0 {
			return fmt.Errorf("cgra: group %d is empty", gi)
		}
		for _, n := range grp.Nodes {
			if seen[n] {
				return fmt.Errorf("cgra: node %d in multiple groups", n)
			}
			seen[n] = true
			if p.NodeGroup[n] != gi {
				return fmt.Errorf("cgra: node %d group index mismatch", n)
			}
		}
		if grp.Kind != cgra.GroupWire {
			if grp.Pos.Col < 0 || grp.Pos.Col >= p.Spec.Cols || grp.Pos.Row < 0 || grp.Pos.Row >= p.Spec.Rows {
				return fmt.Errorf("cgra: group %d placed off-grid at %+v", gi, grp.Pos)
			}
			isMU := p.Spec.IsMU(grp.Pos)
			if grp.Kind == cgra.GroupMU && !isMU {
				return fmt.Errorf("cgra: group %d is a LUT but placed on a CU at %+v", gi, grp.Pos)
			}
			if grp.Kind == cgra.GroupCU && isMU {
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

// oracleTiming computes latency and II for the placed graph without executing
// values.
func oracleTiming(g *mr.Graph, p *cgra.Placement) (cgra.Stats, error) {
	if err := oracleValidate(p, g); err != nil {
		return cgra.Stats{}, err
	}
	inPort := p.Spec.InputPort()
	// Results rejoin the PHV at the active boundary of the placed design
	// (Figure 7: the output FIFO sits just past the last used column).
	outPort := p.Spec.OutputPort()
	maxCol := -1
	for _, grp := range p.Groups {
		if grp.Kind != cgra.GroupWire && grp.Pos.Col > maxCol {
			maxCol = grp.Pos.Col
		}
	}
	if maxCol+1 < outPort.Col {
		outPort = cgra.Coord{Row: p.Spec.Rows / 2, Col: maxCol + 1}
	}

	// nodeReady[n] = cycle at which node n's value is available at its
	// group's position (or at the input port for inputs/consts).
	nodeReady := make([]int, len(g.Nodes))
	nodePos := make([]cgra.Coord, len(g.Nodes))

	for _, n := range g.Nodes {
		switch n.Kind {
		case mr.KInput:
			nodeReady[n.ID] = cgra.PHVInCycles
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
	unitBusy := map[cgra.Coord]int{}
	for gi, grp := range p.Groups {
		pos := oracleEffectivePos(grp, inPort)
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
					t = nodeReady[arg] + cgra.LinkCycles(inPort, pos)
				default:
					if ai > gi {
						return cgra.Stats{}, fmt.Errorf("cgra: group %d consumes node %d from later group %d (non-convex fusion)", gi, arg, ai)
					}
					t = nodeReady[arg] + cgra.LinkCycles(nodePos[arg], pos)
				}
				if t > arrive {
					arrive = t
				}
			}
		}
		if grp.Kind != cgra.GroupWire {
			if busy := unitBusy[pos]; busy > arrive {
				arrive = busy
			}
		}
		done := arrive + oracleTraversalCycles(grp, p.Spec)
		if grp.Kind != cgra.GroupWire {
			unitBusy[pos] = done
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
		t += cgra.LinkCycles(pos, outPort) + cgra.PHVOutCycles
		if t > latency {
			latency = t
		}
	}

	// II: total issue occupancy per physical unit. CUs issue one vector op
	// per cycle; MUs serve MUBanks lookups per cycle across their banks.
	unitLoad := map[cgra.Coord]int{}
	muReads := map[cgra.Coord]int{}
	cus := map[cgra.Coord]bool{}
	mus := map[cgra.Coord]bool{}
	for _, grp := range p.Groups {
		switch grp.Kind {
		case cgra.GroupWire:
		case cgra.GroupMU:
			mus[grp.Pos] = true
			for _, m := range grp.Nodes {
				muReads[grp.Pos] += g.Node(m).Width
			}
		default:
			cus[grp.Pos] = true
			unitLoad[grp.Pos] += oracleOccupancy(grp)
		}
	}
	for pos, reads := range muReads {
		unitLoad[pos] += (reads + cgra.MUBanks - 1) / cgra.MUBanks
	}
	ii := 1
	for _, load := range unitLoad {
		if load > ii {
			ii = load
		}
	}
	return cgra.Stats{LatencyCycles: latency, II: ii, CUsUsed: len(cus), MUsUsed: len(mus)}, nil
}

// oracleTraversalCycles is the latency of one pass through the group's unit.
func oracleTraversalCycles(g *cgra.Group, spec cgra.GridSpec) int {
	switch g.Kind {
	case cgra.GroupWire:
		return 0
	case cgra.GroupMU:
		return cgra.MUAccessCycles
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
		extra := (iters*pack - 1) * oracleIssueSlots(g)
		return lat + extra
	}
}

// oracleIssueSlots is the per-issue occupancy used for II accounting.
func oracleIssueSlots(g *cgra.Group) int {
	if g.Kind != cgra.GroupCU {
		return 1
	}
	s := g.Slots
	if s < 1 {
		s = 1
	}
	return s
}

// oracleOccupancy is the number of issue slots this group consumes on its unit
// per packet — the unit cannot accept the next packet sooner.
func oracleOccupancy(g *cgra.Group) int {
	iters := g.Iterations
	if iters < 1 {
		iters = 1
	}
	pack := g.Pack
	if pack < 1 {
		pack = 1
	}
	switch g.Kind {
	case cgra.GroupWire:
		return 0
	case cgra.GroupMU:
		return iters * pack
	default:
		return iters * pack
	}
}

// oracleEffectivePos returns the group's routing position; wires sit at their
// recorded convergence point, which defaults to the input port if unset.
func oracleEffectivePos(g *cgra.Group, fallback cgra.Coord) cgra.Coord {
	if g.Kind == cgra.GroupWire && g.Pos == (cgra.Coord{}) {
		return fallback
	}
	return g.Pos
}
