// Package compiler lowers MapReduce graphs onto the CGRA grid — the
// "target-dependent compilation" stage of §4: innermost Map/Reduce pairs
// become SIMD operations within a CU, long element-wise chains are split
// into CU-sized pieces, lookup tables land on MUs, and the whole design is
// placed on the grid and routed by Manhattan distance.
//
// Unrolling (§4 "Target-Independent Optimizations", Table 7) is controlled
// by MaxCUs: restricting the compute-unit pool forces parallel pattern
// instances to share units, trading initiation interval (a known fraction
// of line rate) for area.
package compiler

import (
	"fmt"
	"math/bits"

	"taurus/internal/cgra"
	"taurus/internal/hwmodel"
	mr "taurus/internal/mapreduce"
)

// Options configures compilation.
type Options struct {
	// Grid is the target fabric (DefaultGrid if zero).
	Grid cgra.GridSpec
	// MaxCUs caps the compute units available (0 = whole grid). Parallel
	// groups beyond the cap share units round-robin, raising II.
	MaxCUs int
	// MaxMUs caps the memory units available for LUTs (0 = whole grid).
	MaxMUs int
}

// Result is a compiled design.
type Result struct {
	Graph     *mr.Graph
	Placement *cgra.Placement
	// Stats from the timing model: latency, II, units touched.
	Stats cgra.Stats
	// Usage is the resource bill (distinct CUs + MUs including weight
	// storage) for hwmodel area/power accounting.
	Usage hwmodel.Usage
	// WeightBytes is the total constant storage the model needs.
	WeightBytes int
	// LUTCount is the number of lookup tables mapped to MUs.
	LUTCount int
}

// AreaMM2 returns the silicon area of the compiled design.
func (r *Result) AreaMM2() float64 { return r.Usage.AreaMM2() }

// PowerMW returns the power draw of the compiled design.
func (r *Result) PowerMW() float64 { return r.Usage.PowerMW() }

// fusible reports whether a node kind can join a CU chain.
func fusible(k mr.Kind) bool {
	switch k {
	case mr.KMap, mr.KUnary, mr.KRequant, mr.KScale, mr.KReduce:
		return true
	default:
		return false
	}
}

// log2Ceil returns ceil(log2(n)) for n >= 1.
func log2Ceil(n int) int {
	if n <= 1 {
		return 1
	}
	return bits.Len(uint(n - 1))
}

// nodeSlots returns the pipeline issue slots one node occupies in a CU with
// the given lane count.
func nodeSlots(g *mr.Graph, n *mr.Node, lanes int) int {
	switch n.Kind {
	case mr.KReduce:
		w := g.Node(n.Args[0]).Width
		if w > lanes {
			w = lanes // reduction tree is per chunk; chunk count handled by iterations
		}
		return log2Ceil(w)
	case mr.KScale:
		// A wide rescale is the FU's post-op output shifter: free when fused
		// into a chain.
		return 0
	default:
		return 1
	}
}

// Compile lowers g onto the grid.
func Compile(g *mr.Graph, opts Options) (*Result, error) {
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

	groups, nodeGroup := fuse(g, spec)
	groups, nodeGroup = mergeAdjacent(g, spec, groups, nodeGroup)
	pl := &cgra.Placement{Spec: spec, Groups: groups, NodeGroup: nodeGroup}
	if err := place(g, pl, opts); err != nil {
		return nil, err
	}
	stats, err := cgra.Timing(g, pl)
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
	// Weight storage MUs beyond the LUT MUs: each MU holds
	// MUBanks*MUEntries bytes; LUT tables consume LUTSize bytes each of the
	// MU they sit on, leaving room for weights alongside.
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

// fuse partitions compute nodes into convex groups (chains) sized for one
// CU traversal, and wraps LUTs and wires in their own groups.
func fuse(g *mr.Graph, spec cgra.GridSpec) ([]*cgra.Group, []int) {
	// uses counts *distinct consumers* (a node consuming the same value on
	// both operands, like x*x, is one consumer); consumer[id] is the last
	// distinct node reading id, which for a value with one use is its only
	// consumer — the chain's next link — and the first after it in node order.
	uses := make([]int, len(g.Nodes))
	consumer := make([]mr.NodeID, len(g.Nodes))
	for i := range consumer {
		consumer[i] = -1
	}
	for _, n := range g.Nodes {
		for _, a := range n.Args {
			if consumer[a] != n.ID {
				uses[a]++
				consumer[a] = n.ID
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
	// Every group holds at least one node that is neither an input nor a
	// constant, and every such node sits in one group: carve the groups, and
	// their member lists in group order, out of one array each. A chain head
	// is the last member carved, so its chain grows in place.
	units := 0
	for _, n := range g.Nodes {
		if n.Kind != mr.KInput && n.Kind != mr.KConst {
			units++
		}
	}
	var groups []*cgra.Group // nil when there is nothing to place
	if units > 0 {
		groups = make([]*cgra.Group, 0, units)
	}
	store := make([]cgra.Group, units)
	members := make([]mr.NodeID, 0, units)
	newGroup := func(grp cgra.Group, head mr.NodeID) *cgra.Group {
		nodeGroup[head] = len(groups)
		p := &store[len(groups)]
		*p = grp
		members = append(members, head)
		p.Nodes = members[len(members)-1 : len(members) : len(members)]
		groups = append(groups, p)
		return p
	}

	// Slot budgets: a pure element-wise chain fills the pipeline depth; a
	// chain containing a reduction may additionally use per-cycle fractions
	// of a stage for the tree (§5.1.3), plus a couple of trailing scalar
	// ops (bias add, requant).
	chainCap := spec.Stages
	reduceCap := 2 + log2Ceil(spec.Lanes) + 2

	for _, n := range g.Nodes {
		if nodeGroup[n.ID] != -1 {
			continue
		}
		switch n.Kind {
		case mr.KInput, mr.KConst:
			continue
		case mr.KConcat, mr.KSlice:
			newGroup(cgra.Group{Kind: cgra.GroupWire, Slots: 0, Iterations: 1, Pack: 1}, n.ID)
		case mr.KLUT:
			iters := (n.Width + hwmodel.MUBanks - 1) / hwmodel.MUBanks
			newGroup(cgra.Group{Kind: cgra.GroupMU, Slots: 1, Iterations: iters, Pack: 1}, n.ID)
		default: // compute chain head
			gi, first := len(groups), len(members)
			grp := newGroup(cgra.Group{Kind: cgra.GroupCU, Iterations: 1, Pack: 1}, n.ID)
			slots := nodeSlots(g, n, spec.Lanes)
			hasReduce := n.Kind == mr.KReduce
			maxWidth := chainWidth(g, n)

			tail := n
			for {
				// The tail must have exactly one consumer, the consumer
				// must be fusible compute, and all its other args must be
				// constants (convexity: every member before the tail has
				// the next member as its one consumer, so none can be one).
				if uses[tail.ID] != 1 || consumer[tail.ID] < 0 {
					break
				}
				next := g.Node(consumer[tail.ID])
				if !fusible(next.Kind) || nodeGroup[next.ID] != -1 {
					break
				}
				ok := true
				for _, a := range next.Args {
					if a == tail.ID {
						continue
					}
					if g.Node(a).Kind == mr.KConst {
						continue
					}
					ok = false
					break
				}
				if !ok {
					break
				}
				nextSlots := slots + nodeSlots(g, next, spec.Lanes)
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
				members = append(members, next.ID)
				nodeGroup[next.ID] = gi
				slots = nextSlots
				hasReduce = nextReduce
				tail = next
			}
			grp.Nodes = members[first:len(members):len(members)]
			grp.Slots = slots
			grp.Iterations = (maxWidth + spec.Lanes - 1) / spec.Lanes
			if grp.Iterations < 1 {
				grp.Iterations = 1
			}
		}
	}
	return groups, nodeGroup
}

// mergeAdjacent bin-packs small neighbouring CU groups into shared units: a
// fan-out inside a CU is free (lanes read the same relative location), so
// sibling element-wise ops of a piecewise function need not each burn a CU.
// Only adjacent groups in topological order merge, which preserves convexity
// (no intermediate group can depend on the first and feed the second).
func mergeAdjacent(g *mr.Graph, spec cgra.GridSpec, groups []*cgra.Group, nodeGroup []int) ([]*cgra.Group, []int) {
	hasReduce := func(grp *cgra.Group) bool {
		for _, n := range grp.Nodes {
			if g.Node(n).Kind == mr.KReduce {
				return true
			}
		}
		return false
	}
	chainCap := spec.Stages
	reduceCap := 2 + log2Ceil(spec.Lanes) + 2

	out := groups[:0] // merging only drops groups: compact in place
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

// chainWidth is the lane demand of a node: its own width, or its argument's
// width for reductions (the tree consumes the wide input).
func chainWidth(g *mr.Graph, n *mr.Node) int {
	w := n.Width
	if n.Kind == mr.KReduce {
		if aw := g.Node(n.Args[0]).Width; aw > w {
			w = aw
		}
	}
	return w
}

// place assigns groups to grid units: greedy nearest-free-unit to the
// producer centroid, one column deeper; wires sit at their producer
// centroid. When the unit pool is exhausted (or capped), groups share the
// least-loaded unit, raising II.
func place(g *mr.Graph, pl *cgra.Placement, opts Options) error {
	spec := pl.Spec
	freeMUs := make([]cgra.Coord, 0, spec.MUCount())
	freeCUs := make([]cgra.Coord, 0, spec.Rows*spec.Cols-cap(freeMUs))
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

	// used[r*Cols+c] is the load of the unit at (r, c), 0 while it is free.
	used := make([]int, spec.Rows*spec.Cols)
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
	// shareLeastLoaded picks the used unit of the kind with the least load,
	// then the least distance to want (takeNearest's criterion); the scan is
	// row-major and keeps the first of equals, so a unit tied on both is the
	// lowest row, then column, and the placement is a function of the graph.
	shareLeastLoaded := func(kind cgra.GroupKind, want cgra.Coord) (cgra.Coord, error) {
		best := cgra.Coord{Row: -1}
		bestLoad, bestD := 1<<30, 1<<30
		for i, load := range used {
			if load == 0 {
				continue
			}
			pos := cgra.Coord{Row: i / spec.Cols, Col: i % spec.Cols}
			if spec.IsMU(pos) != (kind == cgra.GroupMU) {
				continue
			}
			d := pos.Manhattan(want)
			if load < bestLoad || load == bestLoad && d < bestD {
				best, bestLoad, bestD = pos, load, d
			}
		}
		if best.Row < 0 {
			return cgra.Coord{}, fmt.Errorf("compiler: no unit available to share for %v group", kind)
		}
		return best, nil
	}
	unit := func(pos cgra.Coord) *int { return &used[pos.Row*spec.Cols+pos.Col] }

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
				*unit(prev)++
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
			*unit(pos)++
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
			*unit(pos)++
		}
		for _, m := range grp.Nodes {
			nodePos[m] = grp.Pos
		}
	}
	return nil
}
