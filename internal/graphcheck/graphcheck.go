// Package graphcheck statically verifies lowered MapReduce graphs before
// they reach hardware — the static gate every graph a servable model is built
// from clears: VerifyWith at core.Install, CheckPush at
// core.Model.WithWeights. Where
// Graph.Validate checks shape (widths, topology, payloads), graphcheck
// proves semantic and physical properties by abstract interpretation and a
// resource census, in one topological walk over a pooled workspace that runs
// in tens of microseconds and allocates only its Report:
//
//  1. Value-range analysis: every lane of every node carries an integer
//     interval, seeded from the pinned quantiser domain of each input
//     (int8 codes, [-128, 127]) and the exact literal values of each
//     KConst, and propagated through the Map/Reduce/Requant/Scale/LUT
//     transfer semantics. Fixed-point saturation that the datapath applies
//     silently — Fix32 clipping inside map/unary/reduce arithmetic, and
//     the int32 wrap of a KScale multiplier — is reported as an error
//     naming the first offending node and the widest feasible interval.
//     Clipping that is part of the programming model (KRequant's int8
//     clamp, a LUT's index clamp, ReLU) merely tightens the interval;
//     only a node whose entire feasible range clips — a provably constant,
//     degenerate lane — is an error.
//
//  2. Resource feasibility: weight and table storage are checked against
//     the target grid's MU capacity, and the compute-slot census against
//     its CU capacity, so a graph that cannot place is rejected before
//     internal/compiler ever sees it. Storage overflow is an error
//     (placement would fail); CU oversubscription is a warning (placement
//     shares units and inflates the initiation interval).
//
//  3. Dead-node analysis: nodes unreachable from any output are reported
//     (a lowering that builds work the datapath never uses is almost
//     certainly buggy). Depth and initiation interval are not estimated
//     here: the list schedule (internal/sched) is the one answer.
//
//  4. Structural stability: Compatible(old, new) proves a push is
//     weight-only — same kinds, widths, edges and operators, only
//     Const/LUT/Multiplier payloads differing — which is what a weight
//     push (CheckPush, behind core.Model.WithWeights) and the controlplane
//     fan-out require before a graph is accepted for an in-place weight
//     swap.
//
// A push verifies only what a push can change. Validate's structural rules,
// the census and reachability read kinds, widths and edges alone, so on a
// Compatible graph their verdict is the install's; CheckPush runs Compatible,
// then Validate's payload rules and the range walk.
//
// The analysis is sound for the deployed input convention (all graph
// inputs are int8 codes: feature codes from the preprocessing MATs,
// recurrent state codes from MU registers); Options.InputRange widens or
// narrows the seed when a caller knows better.
package graphcheck

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"

	"taurus/internal/cgra"
	"taurus/internal/fixed"
	"taurus/internal/hwmodel"
	mr "taurus/internal/mapreduce"
)

// ErrBadGraph is wrapped by every error Report.Err returns, so push paths
// can classify a graphcheck rejection with errors.Is.
var ErrBadGraph = errors.New("graphcheck: graph rejected")

// ErrIncompatible is wrapped by Compatible's errors: the new graph is not a
// weight-only replacement for the old one.
var ErrIncompatible = errors.New("graphcheck: structural change")

// Interval is an inclusive integer range [Lo, Hi] — the abstract value of
// one lane. Runtime lane values are int32, so every stored interval is a
// subset of [Fix32.Min, Fix32.Max]; the wider int64 bounds appear only
// transiently, inside transfer functions, where they witness overflow.
type Interval struct {
	Lo, Hi int64
}

// point returns the singleton interval {v}.
func point(v int64) Interval { return Interval{v, v} }

// String formats the interval.
func (iv Interval) String() string {
	if iv.Lo == iv.Hi {
		return fmt.Sprintf("{%d}", iv.Lo)
	}
	return fmt.Sprintf("[%d, %d]", iv.Lo, iv.Hi)
}

// Contains reports whether v lies in the interval.
func (iv Interval) Contains(v int64) bool { return iv.Lo <= v && v <= iv.Hi }

// union returns the smallest interval covering both.
func (iv Interval) union(o Interval) Interval {
	return Interval{min(iv.Lo, o.Lo), max(iv.Hi, o.Hi)}
}

// Severity ranks a finding.
type Severity int

const (
	// SevInfo findings are informational (analysis artefacts, estimates).
	SevInfo Severity = iota
	// SevWarning findings deserve a look but do not reject the graph.
	SevWarning
	// SevError findings reject the graph: pushing it would deploy a model
	// that silently corrupts values or cannot place.
	SevError
)

// String names the severity.
func (s Severity) String() string {
	switch s {
	case SevInfo:
		return "info"
	case SevWarning:
		return "warning"
	case SevError:
		return "error"
	default:
		return fmt.Sprintf("severity(%d)", int(s))
	}
}

// MarshalJSON renders the severity by name, so `taurus-compile -json` emits
// "error" rather than an opaque ordinal.
func (s Severity) MarshalJSON() ([]byte, error) { return json.Marshal(s.String()) }

// Analysis names the check a finding came from.
type Analysis string

const (
	// CheckValidate findings come from Graph.Validate (shape errors).
	CheckValidate Analysis = "validate"
	// CheckRange findings come from the value-range analysis.
	CheckRange Analysis = "range"
	// CheckResource findings come from the resource census.
	CheckResource Analysis = "resource"
	// CheckDead findings come from the reachability analysis.
	CheckDead Analysis = "dead"
)

// Finding is one diagnostic, anchored to a node (or the whole graph when
// Node is negative).
type Finding struct {
	// Node is the offending node, or -1 for a graph-level finding.
	Node mr.NodeID
	// Kind is the node's kind (zero Kind for graph-level findings).
	Kind mr.Kind
	// Severity ranks the finding; one SevError rejects the graph.
	Severity Severity
	// Check names the analysis that produced the finding.
	Check Analysis
	// Msg is the human-readable diagnostic.
	Msg string
	// Range is the widest feasible interval at the finding, when the
	// value-range analysis produced it (zero otherwise).
	Range Interval
}

// String formats the finding.
func (f Finding) String() string {
	if f.Node < 0 {
		return fmt.Sprintf("%s [%s]: %s", f.Severity, f.Check, f.Msg)
	}
	return fmt.Sprintf("%s [%s] node %d (%s): %s", f.Severity, f.Check, f.Node, f.Kind, f.Msg)
}

// Report is the result of verifying one graph.
type Report struct {
	// Graph is the graph's name.
	Graph string
	// NumNodes is the graph's node count.
	NumNodes int
	// Valid reports that Graph.Validate passed; when false the only
	// finding is the validation error and no analysis ran.
	Valid bool
	// Findings holds every diagnostic in topological-walk order.
	Findings []Finding
	// Ranges holds, per node, the union of its lane intervals after the
	// node's own semantics (clamps included). Nil when Valid is false.
	Ranges []Interval

	// Resource census against the target grid.
	WeightBytes int // total KConst storage
	LUTCount    int // KLUT nodes (each table consumes mapreduce.LUTSize bytes)
	MUsNeeded   int // memory units the storage requires
	MUsAvail    int // memory units the grid provides
	CUSlots     int // compute pipeline slots the graph occupies
	CUCapacity  int // slots the grid provides (CUs x stages)

	// DeadNodes lists nodes unreachable from every output.
	DeadNodes []mr.NodeID
}

// OK reports whether the graph passed (no error-severity findings).
func (r *Report) OK() bool {
	for _, f := range r.Findings {
		if f.Severity == SevError {
			return false
		}
	}
	return true
}

// Err returns nil when the graph passed, or an error (wrapping ErrBadGraph)
// describing the first error-severity finding.
func (r *Report) Err() error {
	for _, f := range r.Findings {
		if f.Severity == SevError {
			return fmt.Errorf("%w: graph %q: %s", ErrBadGraph, r.Graph, f)
		}
	}
	return nil
}

// String renders the full report, the output of `taurus-compile -check`.
func (r *Report) String() string {
	var b strings.Builder
	status := "OK"
	if !r.OK() {
		status = "REJECTED"
	}
	fmt.Fprintf(&b, "graphcheck: %q — %s (%d nodes)\n", r.Graph, status, r.NumNodes)
	if !r.Valid {
		for _, f := range r.Findings {
			fmt.Fprintf(&b, "  %s\n", f)
		}
		return b.String()
	}
	fmt.Fprintf(&b, "  resources: %d weight bytes + %d LUTs -> %d/%d MUs; %d/%d CU slots\n",
		r.WeightBytes, r.LUTCount, r.MUsNeeded, r.MUsAvail, r.CUSlots, r.CUCapacity)
	if len(r.DeadNodes) > 0 {
		fmt.Fprintf(&b, "  dead:      %d unreachable node(s) %v\n", len(r.DeadNodes), r.DeadNodes)
	}
	if len(r.Findings) == 0 {
		fmt.Fprintf(&b, "  findings:  none\n")
		return b.String()
	}
	fmt.Fprintf(&b, "  findings:\n")
	for _, f := range r.Findings {
		fmt.Fprintf(&b, "    %s\n", f)
	}
	return b.String()
}

// Options parameterises verification.
type Options struct {
	// Grid is the target fabric for the resource census (DefaultGrid when
	// zero).
	Grid cgra.GridSpec
	// InputRange, when set, overrides the seed interval of declared input
	// i (by position in Graph.Inputs). Return ok=false to keep the
	// default int8 code range [-128, 127].
	InputRange func(i int, name string) (Interval, bool)
}

// Verify runs every analysis on g with default options.
func Verify(g *mr.Graph) *Report { return VerifyWith(g, Options{}) }

// Check is the gate form of Verify: nil when g verifies clean, the first
// error finding (wrapping ErrBadGraph) otherwise.
func Check(g *mr.Graph) error { return Verify(g).Err() }

// fix32 is the legal runtime range of a lane value.
var fix32 = Interval{int64(fixed.Fix32.Min()), int64(fixed.Fix32.Max())}

const int8Lo, int8Hi = -128, 127

// VerifyWith runs every analysis on g against the given options.
func VerifyWith(g *mr.Graph, opts Options) *Report {
	if g == nil {
		return &Report{Graph: "<nil>", Findings: []Finding{{
			Node: -1, Severity: SevError, Check: CheckValidate, Msg: "graph is nil",
		}}}
	}
	r := &Report{Graph: g.Name, NumNodes: len(g.Nodes)}
	if err := g.Validate(); err != nil {
		r.invalid(err)
		return r
	}
	r.Valid = true
	r.Ranges = make([]Interval, len(g.Nodes))
	spec := opts.Grid
	if spec == (cgra.GridSpec{}) {
		spec = cgra.DefaultGrid()
	}

	ws := workspaces.Get().(*workspace)
	defer ws.release()
	v := newVerifier(ws, g, r, r.Ranges)
	v.spec = spec
	v.walk(opts)
	v.census()
	v.reachability()
	return r
}

// CheckPush is the static gate of a weight push of g onto installed, a graph
// VerifyWith accepted on opts.Grid: it returns the error VerifyWith(g) then
// Compatible(installed, g) would, checking only what a weight-only change can
// break. A Compatible g gets Validate's payload rules
// (Graph.ValidatePayloads) and the range walk; Validate's structural rules,
// the census and reachability read kinds, widths and edges alone, so their
// verdict is the install's (no error; warnings never refuse). An incompatible
// g gets the full VerifyWith first, so a graph both bad and incompatible is
// ErrBadGraph.
func CheckPush(installed, g *mr.Graph, opts Options) error {
	if err := Compatible(installed, g); err != nil {
		if verr := VerifyWith(g, opts).Err(); verr != nil {
			return verr
		}
		return err
	}
	ws := workspaces.Get().(*workspace)
	defer ws.release()
	if cap(ws.ranges) < len(g.Nodes) {
		ws.ranges = make([]Interval, len(g.Nodes))
	}
	r := Report{Graph: g.Name, NumNodes: len(g.Nodes)}
	ws.verifyPush(g, opts, &r, ws.ranges[:len(g.Nodes)])
	return r.Err()
}

// verifyPush is CheckPush's verify of a Compatible g into r: Valid and
// Findings as VerifyWith reports them — the payload rule's validation error,
// or the range findings — and the walk's per-node ranges into ranges. The
// census fields and DeadNodes stay zero: they are the install's.
func (ws *workspace) verifyPush(g *mr.Graph, opts Options, r *Report, ranges []Interval) {
	if err := g.ValidatePayloads(); err != nil {
		r.invalid(err)
		return
	}
	r.Valid = true
	v := newVerifier(ws, g, r, ranges)
	v.walk(opts)
}

// invalid records a Validate error as the report's one finding.
func (r *Report) invalid(err error) {
	r.Findings = append(r.Findings, Finding{
		Node: -1, Severity: SevError, Check: CheckValidate, Msg: err.Error(),
	})
}

// workspace is one verify's scratch: the lanes of the interval walk, the
// LUT memo, the push gate's ranges and the reachability worklist. Workspaces
// are pooled, so a verify allocates only its Report; nothing the Report
// holds may point into one.
type workspace struct {
	buf    []Interval // the lanes of every node that has its own, back to back
	spans  []span     // per node: its window of buf
	ranges []Interval // per node: a push's hull, which no Report keeps
	// lutFull memoises whole-table min/max per distinct table. It is
	// cleared on release: tables are mutable across pushes, so a pointer
	// seen by an earlier verify may hold different contents now.
	lutFull map[*mr.LUT]Interval
	live    []bool
	stack   []mr.NodeID
}

// span is a node's window [lo, hi) of workspace.buf.
type span struct{ lo, hi int32 }

var workspaces = sync.Pool{New: func() any { return new(workspace) }}

// release clears what the workspace memoised for this call — and the table
// pointers that would keep a graph alive — and returns it to the pool.
func (ws *workspace) release() {
	clear(ws.lutFull)
	workspaces.Put(ws)
}

// carve lays out g's lanes: each node its own window of buf, a slice a view
// of its argument's window, and a KConst none until its first reader that
// needs lanes — one that only ever is a multiply's in-place operand
// (constOperand) gets none at all, and the walk reads its Const where it is.
// A reduce's one lane is its width. Nothing is cleared: the walk writes every
// lane of a window before any node reads it.
func (ws *workspace) carve(g *mr.Graph) []Interval {
	if cap(ws.spans) < len(g.Nodes) {
		ws.spans = make([]span, len(g.Nodes))
	}
	spans := ws.spans[:len(g.Nodes)]
	var at int32
	for i, n := range g.Nodes {
		c := constOperand(g, n)
		for j, a := range n.Args {
			if s := &spans[a]; j != c && s.lo == s.hi { // a constant without lanes yet
				*s = span{at, at + int32(g.Nodes[a].Width)}
				at = s.hi
			}
		}
		switch n.Kind {
		case mr.KSlice:
			lo := spans[n.Args[0]].lo + int32(n.Start)
			spans[i] = span{lo, lo + int32(n.Width)}
		case mr.KConst:
			spans[i] = span{}
		default:
			spans[i] = span{at, at + int32(n.Width)}
			at += int32(n.Width)
		}
	}
	if cap(ws.buf) < int(at) {
		ws.buf = make([]Interval, at)
	}
	return ws.buf[:at]
}

// constOperand returns the operand of n that the walk reads in place: for a
// multiply, the first argument that is a KConst as wide as n (a point in
// every lane, so the product needs no lanes of it), else -1.
func constOperand(g *mr.Graph, n *mr.Node) int {
	if n.Kind != mr.KMap || n.Map != mr.MMul {
		return -1
	}
	for j, a := range n.Args {
		if c := g.Nodes[a]; c.Kind == mr.KConst && c.Width == n.Width {
			return j
		}
	}
	return -1
}

// verifier carries the walk state.
type verifier struct {
	g      *mr.Graph
	r      *Report
	spec   cgra.GridSpec
	ws     *workspace
	buf    []Interval // ws's carve
	spans  []span     // per node: its window of buf
	ranges []Interval // per node: the union of its lanes (Report.Ranges)
}

// lanes returns node id's window of the walk's lanes.
func (v *verifier) lanes(id mr.NodeID) []Interval {
	s := v.spans[id]
	return v.buf[s.lo:s.hi:s.hi]
}

// newVerifier lays out g's lanes in ws for a walk that writes its findings
// to r and each node's hull to ranges.
func newVerifier(ws *workspace, g *mr.Graph, r *Report, ranges []Interval) verifier {
	return verifier{g: g, r: r, ws: ws, buf: ws.carve(g), spans: ws.spans[:len(g.Nodes)], ranges: ranges}
}

func (v *verifier) finding(n *mr.Node, sev Severity, check Analysis, rng Interval, format string, args ...any) {
	v.r.Findings = append(v.r.Findings, Finding{
		Node: n.ID, Kind: n.Kind, Severity: sev, Check: check,
		Msg: fmt.Sprintf(format, args...), Range: rng,
	})
}

// seedInputs fills every input's lanes with the int8 code range, then a
// declared input's InputRange override (an undeclared input, which Eval
// cannot bind, keeps the default).
func (v *verifier) seedInputs(opts Options) {
	for _, n := range v.g.Nodes {
		if n.Kind == mr.KInput {
			fillLanes(v.lanes(n.ID), Interval{int8Lo, int8Hi})
		}
	}
	if opts.InputRange == nil {
		return
	}
	for i, id := range v.g.Inputs {
		if iv, ok := opts.InputRange(i, v.g.Node(id).Name); ok {
			seed, _ := clampFix32(iv) // the seed describes runtime values, which are int32
			fillLanes(v.lanes(id), seed)
		}
	}
}

// saturate applies the Fix32 clip of the silently saturating datapath
// (MapOp/UnaryOp/ReduceOp all clip through Fix32.Saturate) to a node's raw
// lanes, given their hull, and returns the clipped hull. Any feasible value
// outside the range is a value-corrupting overflow: it is reported once per
// node, at the first lane that can overflow, with that lane's raw interval
// as the witness. A hull inside the range — every clean graph — costs one
// compare.
func (v *verifier) saturate(n *mr.Node, lanes []Interval, hull Interval) Interval {
	if hull.Lo >= fix32.Lo && hull.Hi <= fix32.Hi {
		return hull
	}
	reported := false
	for i, iv := range lanes {
		out, clipped := clampFix32(iv)
		if clipped && !reported {
			reported = true
			v.finding(n, SevError, CheckRange, iv,
				"lane %d may silently saturate fix32: feasible interval %s exceeds [%d, %d]",
				i, iv, fix32.Lo, fix32.Hi)
		}
		lanes[i] = out
	}
	hull, _ = clampFix32(hull)
	return hull
}

// walk seeds the inputs, then propagates lane intervals through every node
// in topological order (Validate guarantees args precede uses) and records
// the per-node union, which each transfer folds as it writes its lanes.
func (v *verifier) walk(opts Options) {
	v.seedInputs(opts)
	for _, n := range v.g.Nodes {
		out := v.lanes(n.ID)
		var hull Interval
		switch n.Kind {
		case mr.KInput, mr.KSlice: // seeded, or a view
			hull = hullOf(out)
		case mr.KConst:
			hull = constLanes(out, n.Const)
		case mr.KMap:
			var raw Interval
			if c := constOperand(v.g, n); c >= 0 {
				raw = mulConst(out, v.lanes(n.Args[1-c]), v.g.Nodes[n.Args[c]].Const)
			} else {
				raw = mapLanes(n.Map, out, v.lanes(n.Args[0]), v.lanes(n.Args[1]))
			}
			hull = v.saturate(n, out, raw)
		case mr.KUnary:
			hull = v.saturate(n, out, unaryLanes(n.Unary, out, v.lanes(n.Args[0])))
		case mr.KReduce:
			out[0] = reduceTransfer(n.Reduce, v.lanes(n.Args[0]))
			hull = out[0]
			if n.Reduce == mr.RAdd {
				hull = v.saturate(n, out, hull)
			}
		case mr.KConcat:
			hull = emptyHull
			at := 0
			for _, a := range n.Args {
				at += copy(out[at:], v.lanes(a))
				hull = hull.union(v.ranges[a])
			}
		case mr.KRequant:
			hull = v.transferRequant(n, out)
		case mr.KScale:
			hull = v.transferScale(n, out)
		case mr.KLUT:
			hull = v.transferLUT(n, out)
		}
		v.ranges[n.ID] = hull
	}
}

// hullOf returns the union of lanes.
func hullOf(lanes []Interval) Interval {
	hull := emptyHull
	for _, iv := range lanes {
		hull = hull.union(iv)
	}
	return hull
}

// leaky mirrors ULeakyReLU's negative-side integer arithmetic; it is
// monotone nondecreasing, so endpoint evaluation is exact.
func leaky(x int64) int64 {
	if x < 0 {
		return (x*82 + 4096) >> 13
	}
	return x
}

// applyMult mirrors fixed.Multiplier.Apply in 64-bit arithmetic: monotone
// nondecreasing in acc (M0 is non-negative), so endpoint evaluation is
// exact. The caller's acc is a runtime int32, so the product fits 63 bits.
func applyMult(m fixed.Multiplier, acc int64) int64 {
	prod := acc * int64(m.M0)
	sh := uint(m.Shift)
	if sh >= 63 {
		return 0
	}
	if sh > 0 {
		prod += int64(1) << (sh - 1)
	}
	return prod >> sh
}

func (v *verifier) transferRequant(n *mr.Node, out []Interval) Interval {
	hull := emptyHull
	reported := false
	for i, av := range v.lanes(n.Args[0]) {
		// ApplySat8's clamp is the programming model, not corruption — but a
		// lane whose every feasible value clips is a constant, which no
		// calibrated requant produces: the multiplier is wrong. A fully
		// clipped lane still propagates its pinned value.
		iv, raw, clipped := requant8Transfer(n.Mult, av)
		if clipped && !reported {
			reported = true
			v.finding(n, SevError, CheckRange, raw,
				"lane %d always clips to int8: feasible interval %s lies outside [%d, %d] (multiplier %.3g miscalibrated)",
				i, raw, int8Lo, int8Hi, n.Mult.Float())
		}
		out[i] = iv
		hull = hull.union(iv)
	}
	return hull
}

func (v *verifier) transferScale(n *mr.Node, out []Interval) Interval {
	hull := emptyHull
	reported := false
	for i, av := range v.lanes(n.Args[0]) {
		// Unlike the saturating map/reduce datapath, Multiplier.Apply
		// truncates its result to int32 — a feasible value outside the
		// range does not clip, it wraps. Always an error; the wrapped
		// value can land anywhere, so the lane widens to the full range.
		iv, raw, wraps := scaleTransfer(n.Mult, av)
		if wraps && !reported {
			reported = true
			v.finding(n, SevError, CheckRange, raw,
				"lane %d wraps int32: scale result interval %s exceeds [%d, %d] (multiplier %.3g)",
				i, raw, fix32.Lo, fix32.Hi, n.Mult.Float())
		}
		out[i] = iv
		hull = hull.union(iv)
	}
	return hull
}

func (v *verifier) transferLUT(n *mr.Node, out []Interval) Interval {
	hull := emptyHull
	reported := false
	const idxLo, idxHi = -mr.LUTSize / 2, mr.LUTSize/2 - 1
	for i, av := range v.lanes(n.Args[0]) {
		idx, raw, allOutside := lutIndex(n.LUT, av)
		if allOutside && !reported {
			// Every feasible index clamps to the same table end: the LUT
			// input never lands in the table's domain. Degenerate, but the
			// activation's asymptote is usually the right value out there,
			// so warn rather than reject.
			reported = true
			v.finding(n, SevWarning, CheckRange, raw,
				"lane %d index interval %s lies entirely outside the table domain [%d, %d]",
				i, raw, idxLo, idxHi)
		}
		out[i] = v.lutRange(n.LUT, idx)
		hull = hull.union(out[i])
	}
	return hull
}

// lutRange memoises tableRange's full-domain case per distinct table.
func (v *verifier) lutRange(l *mr.LUT, idx Interval) Interval {
	full := idx.Lo == -mr.LUTSize/2 && idx.Hi == mr.LUTSize/2-1
	if full {
		if v.ws.lutFull == nil {
			v.ws.lutFull = make(map[*mr.LUT]Interval, 4)
		}
		if iv, ok := v.ws.lutFull[l]; ok {
			return iv
		}
	}
	iv := tableRange(l, idx)
	if full {
		v.ws.lutFull[l] = iv
	}
	return iv
}

// census checks storage and compute demand against the grid, mirroring the
// compiler's accounting (weight bytes plus LUTSize bytes per table node
// against MUBanks x MUEntries per MU; pipeline slots against CUs x stages).
func (v *verifier) census() {
	g, r := v.g, v.r
	for _, n := range g.Nodes {
		switch n.Kind {
		case mr.KConst:
			r.WeightBytes += n.Width
		case mr.KLUT:
			r.LUTCount++
		}
		r.CUSlots += cgra.NodeSlots(g, n, v.spec.Lanes)
	}
	capPerMU := hwmodel.MUBanks * hwmodel.MUEntries
	bytesNeeded := r.WeightBytes + r.LUTCount*mr.LUTSize
	r.MUsNeeded = (bytesNeeded + capPerMU - 1) / capPerMU
	r.MUsAvail = v.spec.MUCount()
	r.CUCapacity = v.spec.CUCount() * v.spec.Stages

	if r.MUsNeeded > r.MUsAvail {
		r.Findings = append(r.Findings, Finding{
			Node: -1, Severity: SevError, Check: CheckResource,
			Msg: fmt.Sprintf("storage does not fit: %d weight bytes + %d LUT tables need %d MUs, grid has %d",
				r.WeightBytes, r.LUTCount, r.MUsNeeded, r.MUsAvail),
		})
	}
	if r.CUSlots > r.CUCapacity {
		r.Findings = append(r.Findings, Finding{
			Node: -1, Severity: SevWarning, Check: CheckResource,
			Msg: fmt.Sprintf("compute oversubscribed: %d slots on %d (CUs will be shared; the list schedule's II says by how much)",
				r.CUSlots, r.CUCapacity),
		})
	}
}

// reachability flags nodes no output depends on.
func (v *verifier) reachability() {
	g, r, ws := v.g, v.r, v.ws
	if cap(ws.live) < len(g.Nodes) {
		ws.live = make([]bool, len(g.Nodes))
	}
	live := ws.live[:len(g.Nodes)]
	clear(live)
	stack := ws.stack[:0]
	for _, o := range g.Outputs {
		if !live[o] {
			live[o] = true
			stack = append(stack, o)
		}
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, a := range g.Node(id).Args {
			if !live[a] {
				live[a] = true
				stack = append(stack, a)
			}
		}
	}
	ws.stack = stack
	for _, n := range g.Nodes {
		if live[n.ID] {
			continue
		}
		r.DeadNodes = append(r.DeadNodes, n.ID)
		msg := "unreachable from every output"
		if n.Kind == mr.KInput {
			msg = "declared input is never consumed"
		}
		v.finding(n, SevWarning, CheckDead, Interval{}, "%s", msg)
	}
}

// Compatible reports whether new is a weight-only replacement for old: the
// same node kinds, widths, operators and edges, with only Const, LUT and
// Multiplier payloads free to differ. This is the structural-stability
// contract every in-place push path (pipeline.UpdateWeights, the
// controlplane fan-out, a distfit merge accept) demands, checked before any
// device is touched — so an incompatible graph is rejected with nothing to
// roll back. A nil error means the push is weight-only.
func Compatible(old, new *mr.Graph) error {
	if old == nil || new == nil {
		return fmt.Errorf("%w: nil graph", ErrIncompatible)
	}
	if len(old.Nodes) != len(new.Nodes) {
		return fmt.Errorf("%w: node count %d != %d", ErrIncompatible, len(new.Nodes), len(old.Nodes))
	}
	for i, o := range old.Nodes {
		n := new.Nodes[i]
		if n.Kind != o.Kind {
			return fmt.Errorf("%w: node %d kind %v != %v", ErrIncompatible, i, n.Kind, o.Kind)
		}
		if n.Width != o.Width {
			return fmt.Errorf("%w: node %d width %d != %d", ErrIncompatible, i, n.Width, o.Width)
		}
		if len(n.Args) != len(o.Args) {
			return fmt.Errorf("%w: node %d has %d args, want %d", ErrIncompatible, i, len(n.Args), len(o.Args))
		}
		for j, a := range n.Args {
			if a != o.Args[j] {
				return fmt.Errorf("%w: node %d arg %d rewired %d != %d", ErrIncompatible, i, j, a, o.Args[j])
			}
		}
		if n.Start != o.Start {
			return fmt.Errorf("%w: node %d slice start %d != %d", ErrIncompatible, i, n.Start, o.Start)
		}
		switch o.Kind {
		case mr.KMap:
			if n.Map != o.Map {
				return fmt.Errorf("%w: node %d map op %v != %v", ErrIncompatible, i, n.Map, o.Map)
			}
		case mr.KUnary:
			if n.Unary != o.Unary {
				return fmt.Errorf("%w: node %d unary op %v != %v", ErrIncompatible, i, n.Unary, o.Unary)
			}
		case mr.KReduce:
			if n.Reduce != o.Reduce {
				return fmt.Errorf("%w: node %d reduce op %v != %v", ErrIncompatible, i, n.Reduce, o.Reduce)
			}
		case mr.KLUT:
			if (n.LUT == nil) != (o.LUT == nil) {
				return fmt.Errorf("%w: node %d LUT presence changed", ErrIncompatible, i)
			}
		}
	}
	if err := idsEqual("inputs", old.Inputs, new.Inputs); err != nil {
		return err
	}
	if err := idsEqual("outputs", old.Outputs, new.Outputs); err != nil {
		return err
	}
	return nil
}

func idsEqual(what string, a, b []mr.NodeID) error {
	if len(a) != len(b) {
		return fmt.Errorf("%w: %s count %d != %d", ErrIncompatible, what, len(b), len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("%w: %s[%d] is node %d, want %d", ErrIncompatible, what, i, b[i], a[i])
		}
	}
	return nil
}
