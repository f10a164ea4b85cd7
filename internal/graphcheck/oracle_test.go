package graphcheck

import (
	"fmt"

	"taurus/internal/cgra"
	mr "taurus/internal/mapreduce"
)

// The oracle is the allocating interval walk the pooled one replaced, kept
// verbatim (one fresh lane slice per node, the op switch per lane, the Ranges
// union as a second pass). The differential tests require VerifyWith to
// produce a Report reflect.DeepEqual to oracleVerifyWith's on every graph they
// try: same findings and witnesses in the same order, same Ranges, census and
// DeadNodes. The census and reachability analyses did not change and are
// shared.

// oracleVerifyWith is VerifyWith with the old walk.
func oracleVerifyWith(g *mr.Graph, opts Options) *Report {
	if g == nil {
		return &Report{Graph: "<nil>", Findings: []Finding{{
			Node: -1, Severity: SevError, Check: CheckValidate, Msg: "graph is nil",
		}}}
	}
	r := &Report{Graph: g.Name, NumNodes: len(g.Nodes)}
	if err := g.Validate(); err != nil {
		r.Findings = append(r.Findings, Finding{
			Node: -1, Severity: SevError, Check: CheckValidate, Msg: err.Error(),
		})
		return r
	}
	r.Valid = true
	spec := opts.Grid
	if spec == (cgra.GridSpec{}) {
		spec = cgra.DefaultGrid()
	}

	o := &oracle{g: g, r: r, lanes: make([][]Interval, len(g.Nodes))}
	o.seedInputs(opts)
	o.walk()
	rest := &verifier{g: g, r: r, spec: spec, ws: new(workspace)}
	rest.census()
	rest.reachability()
	return r
}

// oracle carries the old walk state.
type oracle struct {
	g     *mr.Graph
	r     *Report
	lanes [][]Interval // per node, per lane
	// lutFull memoises whole-table min/max per distinct table.
	lutFull map[*mr.LUT]Interval
}

func (v *oracle) finding(n *mr.Node, sev Severity, check Analysis, rng Interval, format string, args ...any) {
	v.r.Findings = append(v.r.Findings, Finding{
		Node: n.ID, Kind: n.Kind, Severity: sev, Check: check,
		Msg: fmt.Sprintf(format, args...), Range: rng,
	})
}

func (v *oracle) seedInputs(opts Options) {
	for i, id := range v.g.Inputs {
		n := v.g.Node(id)
		seed := Interval{int8Lo, int8Hi}
		if opts.InputRange != nil {
			if iv, ok := opts.InputRange(i, n.Name); ok {
				seed, _ = clampFix32(iv) // the seed describes runtime values, which are int32
			}
		}
		lanes := make([]Interval, n.Width)
		for l := range lanes {
			lanes[l] = seed
		}
		v.lanes[id] = lanes
	}
}

func (v *oracle) sat32(n *mr.Node, lane int, iv Interval, reported *bool) Interval {
	out, clipped := clampFix32(iv)
	if clipped && !*reported {
		*reported = true
		v.finding(n, SevError, CheckRange, iv,
			"lane %d may silently saturate fix32: feasible interval %s exceeds [%d, %d]",
			lane, iv, fix32.Lo, fix32.Hi)
	}
	return out
}

func (v *oracle) walk() {
	v.r.Ranges = make([]Interval, len(v.g.Nodes))
	for _, n := range v.g.Nodes {
		switch n.Kind {
		case mr.KInput:
			// seeded
		case mr.KConst:
			lanes := make([]Interval, n.Width)
			for i, c := range n.Const {
				lanes[i] = point(int64(c))
			}
			v.lanes[n.ID] = lanes
		case mr.KMap:
			v.transferMap(n)
		case mr.KUnary:
			v.transferUnary(n)
		case mr.KReduce:
			v.transferReduce(n)
		case mr.KConcat:
			lanes := make([]Interval, 0, n.Width)
			for _, a := range n.Args {
				lanes = append(lanes, v.lanes[a]...)
			}
			v.lanes[n.ID] = lanes
		case mr.KSlice:
			v.lanes[n.ID] = v.lanes[n.Args[0]][n.Start : n.Start+n.Width]
		case mr.KRequant:
			v.transferRequant(n)
		case mr.KScale:
			v.transferScale(n)
		case mr.KLUT:
			v.transferLUT(n)
		}
		union := v.lanes[n.ID][0]
		for _, iv := range v.lanes[n.ID][1:] {
			union = union.union(iv)
		}
		v.r.Ranges[n.ID] = union
	}
}

func (v *oracle) transferMap(n *mr.Node) {
	a, b := v.lanes[n.Args[0]], v.lanes[n.Args[1]]
	lanes := make([]Interval, n.Width)
	reported := false
	for i := range lanes {
		bv := b[0]
		if len(b) > 1 {
			bv = b[i]
		}
		lanes[i] = v.sat32(n, i, mapTransfer(n.Map, a[i], bv), &reported)
	}
	v.lanes[n.ID] = lanes
}

func (v *oracle) transferUnary(n *mr.Node) {
	a := v.lanes[n.Args[0]]
	lanes := make([]Interval, n.Width)
	reported := false
	for i, av := range a {
		lanes[i] = v.sat32(n, i, unaryTransfer(n.Unary, av), &reported)
	}
	v.lanes[n.ID] = lanes
}

func (v *oracle) transferReduce(n *mr.Node) {
	a := v.lanes[n.Args[0]]
	iv := reduceTransfer(n.Reduce, a)
	if n.Reduce == mr.RAdd {
		reported := false
		iv = v.sat32(n, 0, iv, &reported)
	}
	v.lanes[n.ID] = []Interval{iv}
}

func (v *oracle) transferRequant(n *mr.Node) {
	a := v.lanes[n.Args[0]]
	lanes := make([]Interval, n.Width)
	reported := false
	for i, av := range a {
		out, raw, clipped := requant8Transfer(n.Mult, av)
		if clipped && !reported {
			reported = true
			v.finding(n, SevError, CheckRange, raw,
				"lane %d always clips to int8: feasible interval %s lies outside [%d, %d] (multiplier %.3g miscalibrated)",
				i, raw, int8Lo, int8Hi, n.Mult.Float())
		}
		lanes[i] = out
	}
	v.lanes[n.ID] = lanes
}

func (v *oracle) transferScale(n *mr.Node) {
	a := v.lanes[n.Args[0]]
	lanes := make([]Interval, n.Width)
	reported := false
	for i, av := range a {
		out, raw, wraps := scaleTransfer(n.Mult, av)
		if wraps && !reported {
			reported = true
			v.finding(n, SevError, CheckRange, raw,
				"lane %d wraps int32: scale result interval %s exceeds [%d, %d] (multiplier %.3g)",
				i, raw, fix32.Lo, fix32.Hi, n.Mult.Float())
		}
		lanes[i] = out
	}
	v.lanes[n.ID] = lanes
}

func (v *oracle) transferLUT(n *mr.Node) {
	a := v.lanes[n.Args[0]]
	lanes := make([]Interval, n.Width)
	reported := false
	const idxLo, idxHi = -mr.LUTSize / 2, mr.LUTSize/2 - 1
	for i, av := range a {
		idx, raw, allOutside := lutIndex(n.LUT, av)
		if allOutside && !reported {
			reported = true
			v.finding(n, SevWarning, CheckRange, raw,
				"lane %d index interval %s lies entirely outside the table domain [%d, %d]",
				i, raw, idxLo, idxHi)
		}
		lanes[i] = v.lutRange(n.LUT, idx)
	}
	v.lanes[n.ID] = lanes
}

func (v *oracle) lutRange(l *mr.LUT, idx Interval) Interval {
	full := idx.Lo == -mr.LUTSize/2 && idx.Hi == mr.LUTSize/2-1
	if full {
		if v.lutFull == nil {
			v.lutFull = make(map[*mr.LUT]Interval, 4)
		}
		if iv, ok := v.lutFull[l]; ok {
			return iv
		}
	}
	iv := tableRange(l, idx)
	if full {
		v.lutFull[l] = iv
	}
	return iv
}

// mapTransfer returns the raw interval of `a op b` for one lane pair.
func mapTransfer(op mr.MapOp, a, b Interval) Interval {
	switch op {
	case mr.MAdd:
		return Interval{a.Lo + b.Lo, a.Hi + b.Hi}
	case mr.MSub:
		return Interval{a.Lo - b.Hi, a.Hi - b.Lo}
	case mr.MMul:
		// Endpoint products bound a monotone-by-parts bilinear map.
		p := [4]int64{a.Lo * b.Lo, a.Lo * b.Hi, a.Hi * b.Lo, a.Hi * b.Hi}
		iv := point(p[0])
		for _, x := range p[1:] {
			iv = iv.union(point(x))
		}
		return iv
	case mr.MMin:
		return Interval{min64(a.Lo, b.Lo), min64(a.Hi, b.Hi)}
	case mr.MMax:
		return Interval{max64(a.Lo, b.Lo), max64(a.Hi, b.Hi)}
	}
	return fix32
}

// unaryTransfer returns the raw interval of `op a` for one lane.
func unaryTransfer(op mr.UnaryOp, a Interval) Interval {
	switch op {
	case mr.UReLU:
		return Interval{max64(0, a.Lo), max64(0, a.Hi)}
	case mr.ULeakyReLU:
		return Interval{leaky(a.Lo), leaky(a.Hi)}
	case mr.UNeg:
		return Interval{-a.Hi, -a.Lo}
	case mr.UAbs:
		switch {
		case a.Lo >= 0:
			return a
		case a.Hi <= 0:
			return Interval{-a.Hi, -a.Lo}
		default:
			return Interval{0, max64(a.Hi, -a.Lo)}
		}
	}
	return fix32
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// pushReport is CheckPush's verify of g — which must be Compatible with the
// installed graph — in a pooled workspace, as a Report whose Ranges are the
// walk's: what FuzzPushGateOracle holds to the oracle.
func pushReport(g *mr.Graph, opts Options) *Report {
	r := &Report{Graph: g.Name, NumNodes: len(g.Nodes)}
	ws := workspaces.Get().(*workspace)
	defer ws.release()
	ranges := make([]Interval, len(g.Nodes))
	ws.verifyPush(g, opts, r, ranges)
	if r.Valid {
		r.Ranges = ranges
	}
	return r
}

// OracleVerifyWith and PushReport export the oracle and the push gate's
// Report to this package's external tests.
var (
	OracleVerifyWith = oracleVerifyWith
	PushReport       = pushReport
)
