package sched

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"taurus/internal/cgra"
	"taurus/internal/fixed"
	mr "taurus/internal/mapreduce"
)

// DefaultBatch is the packet capacity a Program is compiled with: RunBatch
// sweeps up to this many packets per instruction, amortising dispatch the
// way pipeline.ProcessBatch amortises channel hops.
const DefaultBatch = 16

// Opcode discriminates tape instructions. Each Opcode is a specialised loop
// with the operator and saturation inlined — the per-lane Apply switch
// Graph.Eval pays is hoisted out entirely.
type Opcode uint8

const (
	OpAdd Opcode = iota
	OpSub
	OpMul
	OpMin
	OpMax
	OpRelu
	OpLeaky
	OpNeg
	OpAbs
	OpSum
	OpRedMin
	OpRedMax
	OpArgMin
	OpArgMax
	OpRequant
	OpScale
	OpLUT
	OpCopy
	// OpDot fuses KMap(MMul) into its sole KReduce(RAdd) consumer: one pass
	// computing sum(sat32(a[i]*b[i])) without materialising the products —
	// the dominant pattern of every dense lowering (DotProduct).
	OpDot
	// OpDotAdd additionally folds the scalar bias add that follows every
	// neuron's dot product: sat32(sat32(dot) + c).
	OpDotAdd
	// OpSqDist fuses KMap(MSub) -> KMap(MMul, d, d) -> KReduce(RAdd): the
	// squared-distance chain of the KMeans lowering.
	OpSqDist
)

// Operand locates one argument's lanes. Constants alias the graph node's
// Const slice (window Off..Off+W) so in-place weight pushes stay visible;
// everything else lives in the program's batch-major arena at Off + j*Stride
// for packet j. The fields are exported for static inspection
// (internal/sched/tapecheck audits every operand against the graph's
// storage); runtime code treats them as immutable after emit.
type Operand struct {
	Const  []int32 // non-nil: constant lanes Const[Off:Off+W], same every packet
	Off    int
	Stride int
	W      int
}

// Instr is one tape entry. Dst/DStride address the output window in the
// arena (DStride is the producing node's full width; for concat pieces the
// copy width W is narrower). Mult and LUT alias the graph node's payloads so
// UpdateWeights pushes take effect without recompiling. Exported for static
// inspection and for fault-injection in verifier tests (Program.Code).
type Instr struct {
	Op      Opcode
	Dst     int
	DStride int
	W       int
	A, B, C Operand
	Mult    *fixed.Multiplier
	LUT     *mr.LUT
}

// Program is a compiled evaluation tape over a validated graph: the
// schedule's bundles linearised into straight-line instructions over a
// preallocated structure-of-arrays arena. Run and RunBatch are bit-exact
// with Graph.Eval and allocate nothing.
//
// A Program is tied to the graph it was compiled from and sees in-place
// weight mutations (constants, LUT tables and requantisation multipliers are
// read through the live nodes). It is not safe for concurrent use; give each
// shard its own Program over its own clone.
type Program struct {
	g     *mr.Graph
	sched *Schedule
	code  []Instr
	vals  []int32
	batch int
	ins   []Operand // per declared input
	outs  []Operand // per declared output
}

// Compile plans g on spec, emits the instruction tape and hands it to the
// registered tape verifier (SetVerifier — importing internal/sched/tapecheck
// registers the real one), which it must clear before it is returned: a
// miscompilation is an error here, not a wrong verdict later. The gate fails
// closed — with no verifier registered Compile refuses outright rather than
// hand out a tape nobody checked.
func Compile(g *mr.Graph, spec cgra.GridSpec) (*Program, error) {
	if verifyHook == nil {
		return nil, errors.New("sched: no tape verifier registered (link internal/sched/tapecheck)")
	}
	p, err := CompileUnverified(g, spec)
	if err != nil {
		return nil, err
	}
	if err := verifyHook(p); err != nil {
		return nil, err
	}
	return p, nil
}

// CompileUnverified is Compile without the verifier gate — the opt-out for
// tests that inspect or corrupt tapes, and for callers that run the verifier
// themselves to keep the report.
func CompileUnverified(g *mr.Graph, spec cgra.GridSpec) (*Program, error) {
	s, err := Plan(g, spec)
	if err != nil {
		return nil, err
	}
	p := &Program{g: g, sched: s, batch: DefaultBatch}
	if err := p.emit(); err != nil {
		return nil, err
	}
	return p, nil
}

// Schedule returns the bundle schedule the tape was linearised from.
func (p *Program) Schedule() *Schedule { return p.sched }

// Graph returns the graph this program evaluates.
func (p *Program) Graph() *mr.Graph { return p.g }

// MaxBatch returns the batch capacity RunBatch accepts.
func (p *Program) MaxBatch() int { return p.batch }

// In returns packet 0's buffer for the i-th declared input (the single-
// packet Run path); the caller writes feature codes into it.
func (p *Program) In(i int) []int32 { return p.InAt(i, 0) }

// InAt returns batch slot j's buffer for the i-th declared input.
func (p *Program) InAt(i, j int) []int32 {
	o := p.ins[i]
	base := o.Off + j*o.Stride
	return p.vals[base : base+o.W]
}

// Out returns packet 0's i-th declared output after Run.
func (p *Program) Out(i int) []int32 { return p.OutAt(i, 0) }

// OutAt returns batch slot j's i-th declared output after RunBatch.
func (p *Program) OutAt(i, j int) []int32 {
	o := p.outs[i]
	if o.Const != nil {
		return o.Const[o.Off : o.Off+o.W]
	}
	base := o.Off + j*o.Stride
	return p.vals[base : base+o.W]
}

// emit lays out the arena and linearises the schedule into the tape. Three
// peephole passes cut the instruction count before emission: dot/sqdist
// chains fuse into their reductions, a neuron's scalar bias add folds into
// its dot product, and values consumed only by a concat are produced
// directly into the concat's window (copy elimination).
func (p *Program) emit() error {
	g, s := p.g, p.sched

	// Consumer counts decide fusion legality: a node folded into a fused
	// instruction must have exactly the fusing consumer and must not be a
	// declared output (outputs count as a use).
	uses := make([]int, len(g.Nodes))
	for _, n := range g.Nodes {
		for _, a := range n.Args {
			uses[a]++
		}
	}
	for _, o := range g.Outputs {
		uses[o]++
	}
	fused := make([]bool, len(g.Nodes))
	for _, n := range g.Nodes {
		if n.Kind != mr.KReduce || n.Reduce != mr.RAdd {
			continue
		}
		m := g.Node(n.Args[0])
		if m.Kind != mr.KMap || m.Map != mr.MMul || uses[m.ID] != 1 {
			continue
		}
		fused[m.ID] = true
		if m.Args[0] == m.Args[1] {
			if d := g.Node(m.Args[0]); d.Kind == mr.KMap && d.Map == mr.MSub && uses[d.ID] == 2 {
				fused[d.ID] = true
			}
		}
	}
	// Bias folding: MAdd(reduce, scalar) where the reduce is a
	// single-consumer fused dot. The add is emitted as one OpDotAdd at the
	// MAdd node; the reduce disappears (saturation order is preserved:
	// sat32(sat32(sum) + bias), and int32 addition commutes bit-exactly).
	biasDot := make([]mr.NodeID, len(g.Nodes)) // MAdd id -> dot-reduce id
	for i := range biasDot {
		biasDot[i] = -1
	}
	for _, n := range g.Nodes {
		if n.Kind != mr.KMap || n.Map != mr.MAdd || n.Width != 1 {
			continue
		}
		for _, a := range n.Args {
			r := g.Node(a)
			if r.Kind != mr.KReduce || r.Reduce != mr.RAdd || uses[r.ID] != 1 {
				continue
			}
			m := g.Node(r.Args[0])
			if !fused[m.ID] || (m.Args[0] == m.Args[1] && fused[m.Args[0]]) {
				continue // plain sum or sqdist chain: not a dot
			}
			biasDot[n.ID] = r.ID
			fused[r.ID] = true
			break
		}
	}

	// Copy elimination: a value whose only consumer is one concat slot is
	// produced straight into the concat's arena window.
	type sinkTo struct {
		target mr.NodeID
		lane   int
	}
	sink := make([]sinkTo, len(g.Nodes))
	for i := range sink {
		sink[i].target = -1
	}
	for _, n := range g.Nodes {
		if n.Kind != mr.KConcat {
			continue
		}
		at := 0
		for _, a := range n.Args {
			an := g.Node(a)
			switch an.Kind {
			case mr.KInput, mr.KConst, mr.KSlice:
				// caller-filled or not arena-backed: keep the copy
			default:
				if uses[a] == 1 && !fused[a] {
					sink[a] = sinkTo{target: n.ID, lane: at}
				}
			}
			at += an.Width
		}
	}

	// Arena layout: one batch-major block per value-producing node that is
	// neither fused away nor sunk. Consts live in the graph; slices and
	// sunk values resolve into another node's window.
	loc := make([]Operand, len(g.Nodes))
	resolved := make([]bool, len(g.Nodes))
	off := 0
	for _, n := range g.Nodes {
		switch {
		case n.Kind == mr.KConst:
			loc[n.ID] = Operand{Const: n.Const, W: n.Width}
			resolved[n.ID] = true
		case n.Kind == mr.KSlice, fused[n.ID], sink[n.ID].target >= 0:
			// resolved lazily below
		default:
			loc[n.ID] = Operand{Off: off, Stride: n.Width, W: n.Width}
			resolved[n.ID] = true
			off += p.batch * n.Width
		}
	}
	p.vals = make([]int32, off)
	var resolve func(id mr.NodeID) Operand
	resolve = func(id mr.NodeID) Operand {
		if resolved[id] {
			return loc[id]
		}
		n := g.Node(id)
		var o Operand
		if n.Kind == mr.KSlice {
			o = resolve(n.Args[0])
			o.Off += n.Start
		} else {
			o = resolve(sink[id].target)
			o.Off += sink[id].lane
		}
		o.W = n.Width
		loc[id], resolved[id] = o, true
		return o
	}

	// Linearise bundle by bundle (ties broken by node ID, which is
	// topological): the tape executes the schedule in issue order.
	order := make([]mr.NodeID, 0, len(g.Nodes))
	for _, n := range g.Nodes {
		order = append(order, n.ID)
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if s.Start[a] != s.Start[b] {
			return s.Start[a] < s.Start[b]
		}
		return a < b
	})

	for _, id := range order {
		n := g.Node(id)
		if fused[id] {
			continue
		}
		switch n.Kind {
		case mr.KInput, mr.KConst, mr.KSlice:
			continue // caller-filled, resident, or pure routing
		}
		d := resolve(id)
		ins := Instr{Dst: d.Off, DStride: d.Stride, W: n.Width}
		switch n.Kind {
		case mr.KMap:
			if r := biasDot[id]; r >= 0 {
				m := g.Node(g.Node(r).Args[0])
				bias := n.Args[0]
				if bias == r {
					bias = n.Args[1]
				}
				ins.Op = OpDotAdd
				ins.A, ins.B, ins.C = resolve(m.Args[0]), resolve(m.Args[1]), resolve(bias)
				break
			}
			ins.Op = [...]Opcode{OpAdd, OpSub, OpMul, OpMin, OpMax}[n.Map]
			ins.A, ins.B = resolve(n.Args[0]), resolve(n.Args[1])
		case mr.KUnary:
			ins.Op = [...]Opcode{OpRelu, OpLeaky, OpNeg, OpAbs}[n.Unary]
			ins.A = resolve(n.Args[0])
		case mr.KReduce:
			m := g.Node(n.Args[0])
			switch {
			case n.Reduce == mr.RAdd && fused[m.ID] && m.Args[0] == m.Args[1] && fused[m.Args[0]]:
				d := g.Node(m.Args[0])
				ins.Op, ins.A, ins.B = OpSqDist, resolve(d.Args[0]), resolve(d.Args[1])
			case n.Reduce == mr.RAdd && fused[m.ID]:
				ins.Op, ins.A, ins.B = OpDot, resolve(m.Args[0]), resolve(m.Args[1])
			default:
				ins.Op = [...]Opcode{OpSum, OpRedMin, OpRedMax, OpArgMin, OpArgMax}[n.Reduce]
				ins.A = resolve(n.Args[0])
			}
		case mr.KConcat:
			at := 0
			for _, a := range n.Args {
				src := resolve(a)
				if sink[a].target == id {
					at += src.W
					continue // produced in place, no copy
				}
				p.code = append(p.code, Instr{
					Op: OpCopy, Dst: d.Off + at, DStride: d.Stride, W: src.W, A: src,
				})
				at += src.W
			}
			continue
		case mr.KRequant:
			ins.Op, ins.A, ins.Mult = OpRequant, resolve(n.Args[0]), &n.Mult
		case mr.KScale:
			ins.Op, ins.A, ins.Mult = OpScale, resolve(n.Args[0]), &n.Mult
		case mr.KLUT:
			ins.Op, ins.A, ins.LUT = OpLUT, resolve(n.Args[0]), n.LUT
		default:
			return fmt.Errorf("sched: node %d has unknown kind %v", id, n.Kind)
		}
		p.code = append(p.code, ins)
	}

	p.ins = make([]Operand, len(g.Inputs))
	for i, id := range g.Inputs {
		p.ins[i] = resolve(id)
	}
	p.outs = make([]Operand, len(g.Outputs))
	for i, id := range g.Outputs {
		p.outs[i] = resolve(id)
	}
	return nil
}

// window is one operand (or destination) of an instruction resolved for a
// sweep: its lanes from slot 0's first onward — in the graph node's Const
// slice or the arena — and how far the window moves per batch slot (0 for a
// constant: every slot reads the same lanes). Where a window lies is fixed
// when the tape is emitted; what a Const holds is not (UpdateWeights copies
// new weights into it in place), so a sweep resolves its windows afresh from
// the Operands tapecheck audited and reads the contents through them. The
// struct is kept to 32 bytes so that the compiler holds it in registers.
type window struct {
	lanes []int32
	step  int
}

func (p *Program) window(o *Operand) window {
	if o.Const != nil {
		return window{lanes: o.Const[o.Off : o.Off+o.W]}
	}
	return window{lanes: p.vals[o.Off:], step: o.Stride}
}

// slot returns the w lanes of batch slot j.
func (w window) slot(j, width int) []int32 {
	base := j * w.step
	return w.lanes[base : base+width]
}

// sat32 clamps a wide intermediate to int32, identically to
// fixed.Fix32.Saturate: a value that survives the round trip through int32
// is in range, which is the only case per-packet arithmetic on 8-bit codes
// ever takes.
func sat32(v int64) int32 {
	if r := int32(v); int64(r) == v {
		return r
	}
	if v < 0 {
		return math.MinInt32
	}
	return math.MaxInt32
}

// Run evaluates batch slot 0: the per-packet hot path.
//
// hotpath: zero-alloc
func (p *Program) Run() { p.RunBatch(1) }

// RunBatch evaluates batch slots 0..n-1 in one tape sweep. The caller fills
// InAt(i, j) for each slot beforehand and reads OutAt(i, j) after. It
// allocates nothing and is bit-exact with Graph.Eval per slot.
//
// Each instruction resolves its windows once, then walks them slot by slot
// through one kernel — a loop over equal-length lane slices with the operator
// and saturation inlined.
//
// hotpath: zero-alloc
func (p *Program) RunBatch(n int) {
	if n < 1 || n > p.batch {
		//hotpathcheck:allow — misuse guard; panics before the sweep, never taken on the steady path
		panic(fmt.Sprintf("sched: RunBatch(%d) outside capacity %d", n, p.batch))
	}
	for ci := range p.code {
		ins := &p.code[ci]
		a, b := p.window(&ins.A), p.window(&ins.B)
		out := window{lanes: p.vals[ins.Dst:], step: ins.DStride}
		w, aw, bw := ins.W, ins.A.W, ins.B.W
		switch ins.Op {
		case OpAdd:
			for j := 0; j < n; j++ {
				addLanes(out.slot(j, w), a.slot(j, aw), b.slot(j, bw))
			}
		case OpSub:
			for j := 0; j < n; j++ {
				subLanes(out.slot(j, w), a.slot(j, aw), b.slot(j, bw))
			}
		case OpMul:
			for j := 0; j < n; j++ {
				mulLanes(out.slot(j, w), a.slot(j, aw), b.slot(j, bw))
			}
		case OpMin:
			for j := 0; j < n; j++ {
				minLanes(out.slot(j, w), a.slot(j, aw), b.slot(j, bw))
			}
		case OpMax:
			for j := 0; j < n; j++ {
				maxLanes(out.slot(j, w), a.slot(j, aw), b.slot(j, bw))
			}
		case OpRelu:
			for j := 0; j < n; j++ {
				reluLanes(out.slot(j, w), a.slot(j, aw))
			}
		case OpLeaky:
			for j := 0; j < n; j++ {
				leakyLanes(out.slot(j, w), a.slot(j, aw))
			}
		case OpNeg:
			for j := 0; j < n; j++ {
				negLanes(out.slot(j, w), a.slot(j, aw))
			}
		case OpAbs:
			for j := 0; j < n; j++ {
				absLanes(out.slot(j, w), a.slot(j, aw))
			}
		case OpSum:
			for j := 0; j < n; j++ {
				var s int64
				for _, v := range a.slot(j, aw) {
					s += int64(v)
				}
				out.lanes[j*out.step] = sat32(s)
			}
		case OpRedMin, OpArgMin:
			for j := 0; j < n; j++ {
				lanes := a.slot(j, aw)
				best := argMin(lanes)
				if ins.Op == OpArgMin {
					out.lanes[j*out.step] = int32(best)
				} else {
					out.lanes[j*out.step] = lanes[best]
				}
			}
		case OpRedMax, OpArgMax:
			for j := 0; j < n; j++ {
				lanes := a.slot(j, aw)
				best := argMax(lanes)
				if ins.Op == OpArgMax {
					out.lanes[j*out.step] = int32(best)
				} else {
					out.lanes[j*out.step] = lanes[best]
				}
			}
		case OpRequant, OpScale:
			m := *ins.Mult // read once per sweep; aliases the live node
			lo, hi := int32(math.MinInt32), int32(math.MaxInt32)
			if ins.Op == OpRequant {
				lo, hi = -128, 127
			}
			for j := 0; j < n; j++ {
				scaleLanes(out.slot(j, w), a.slot(j, aw), m, lo, hi)
			}
		case OpLUT:
			for j := 0; j < n; j++ {
				lutLanes(out.slot(j, w), a.slot(j, aw), ins.LUT)
			}
		case OpCopy:
			for j := 0; j < n; j++ {
				copy(out.slot(j, w), a.slot(j, aw))
			}
		case OpDot:
			for j := 0; j < n; j++ {
				out.lanes[j*out.step] = sat32(dotLanes(a.slot(j, aw), b.slot(j, bw)))
			}
		case OpDotAdd:
			c := p.window(&ins.C)
			for j := 0; j < n; j++ {
				dot := sat32(dotLanes(a.slot(j, aw), b.slot(j, bw)))
				out.lanes[j*out.step] = sat32(int64(dot) + int64(c.lanes[j*c.step]))
			}
		case OpSqDist:
			for j := 0; j < n; j++ {
				out.lanes[j*out.step] = sat32(sqDistLanes(a.slot(j, aw), b.slot(j, bw)))
			}
		}
	}
}

// The kernels below each evaluate one instruction for one batch slot. A
// binary kernel's b is either as long as out or a single broadcast lane;
// re-slicing a and b to len(out) up front lets the compiler drop the per-lane
// bounds checks.

func addLanes(out, a, b []int32) {
	a = a[:len(out)]
	if len(b) == 1 {
		bv := int64(b[0])
		for i := range out {
			out[i] = sat32(int64(a[i]) + bv)
		}
		return
	}
	b = b[:len(out)]
	for i := range out {
		out[i] = sat32(int64(a[i]) + int64(b[i]))
	}
}

func subLanes(out, a, b []int32) {
	a = a[:len(out)]
	if len(b) == 1 {
		bv := int64(b[0])
		for i := range out {
			out[i] = sat32(int64(a[i]) - bv)
		}
		return
	}
	b = b[:len(out)]
	for i := range out {
		out[i] = sat32(int64(a[i]) - int64(b[i]))
	}
}

func mulLanes(out, a, b []int32) {
	a = a[:len(out)]
	if len(b) == 1 {
		bv := int64(b[0])
		for i := range out {
			out[i] = sat32(int64(a[i]) * bv)
		}
		return
	}
	b = b[:len(out)]
	for i := range out {
		out[i] = sat32(int64(a[i]) * int64(b[i]))
	}
}

func minLanes(out, a, b []int32) {
	a = a[:len(out)]
	if len(b) == 1 {
		bv := b[0]
		for i := range out {
			out[i] = min(a[i], bv)
		}
		return
	}
	b = b[:len(out)]
	for i := range out {
		out[i] = min(a[i], b[i])
	}
}

func maxLanes(out, a, b []int32) {
	a = a[:len(out)]
	if len(b) == 1 {
		bv := b[0]
		for i := range out {
			out[i] = max(a[i], bv)
		}
		return
	}
	b = b[:len(out)]
	for i := range out {
		out[i] = max(a[i], b[i])
	}
}

func reluLanes(out, a []int32) {
	a = a[:len(out)]
	for i := range out {
		out[i] = max(a[i], 0)
	}
}

func leakyLanes(out, a []int32) {
	a = a[:len(out)]
	for i := range out {
		if v := a[i]; v < 0 {
			out[i] = int32((int64(v)*82 + 4096) >> 13)
		} else {
			out[i] = v
		}
	}
}

func negLanes(out, a []int32) {
	a = a[:len(out)]
	for i := range out {
		out[i] = sat32(-int64(a[i]))
	}
}

func absLanes(out, a []int32) {
	a = a[:len(out)]
	for i := range out {
		if v := a[i]; v < 0 {
			out[i] = sat32(-int64(v))
		} else {
			out[i] = v
		}
	}
}

// argMin and argMax return the index of the first extreme lane.
func argMin(a []int32) int {
	best := 0
	for i, v := range a {
		if v < a[best] {
			best = i
		}
	}
	return best
}

func argMax(a []int32) int {
	best := 0
	for i, v := range a {
		if v > a[best] {
			best = i
		}
	}
	return best
}

// scaleLanes is fixed.Multiplier.Apply per lane, clamped to [lo, hi]: the
// int8 range for a requantise, the whole of int32 (no clamp) for a scale.
func scaleLanes(out, a []int32, m fixed.Multiplier, lo, hi int32) {
	if m.Shift >= 63 {
		clear(out) // degenerate multiplier rounds to zero
		return
	}
	m0, half, sh := int64(m.M0), int64(1)<<(m.Shift-1), uint(m.Shift)
	a = a[:len(out)]
	for i := range out {
		out[i] = min(max(int32((int64(a[i])*m0+half)>>sh), lo), hi)
	}
}

func lutLanes(out, a []int32, lut *mr.LUT) {
	m := lut.Mult
	a = a[:len(out)]
	for i := range out {
		idx := min(max(m.Apply(a[i]), -mr.LUTSize/2), mr.LUTSize/2-1)
		out[i] = int32(lut.Table[idx+mr.LUTSize/2])
	}
}

// dotLanes is sum(sat32(a[i]*b[i])); the caller saturates the sum.
func dotLanes(a, b []int32) int64 {
	var s int64
	if len(b) == 1 {
		bv := int64(b[0])
		for _, v := range a {
			s += int64(sat32(int64(v) * bv))
		}
		return s
	}
	b = b[:len(a)]
	for i, v := range a {
		s += int64(sat32(int64(v) * int64(b[i])))
	}
	return s
}

// sqDistLanes is sum(sat32(d*d)) with d = sat32(a[i]-b[i]).
func sqDistLanes(a, b []int32) int64 {
	var s int64
	if len(b) == 1 {
		bv := int64(b[0])
		for _, v := range a {
			d := int64(sat32(int64(v) - bv))
			s += int64(sat32(d * d))
		}
		return s
	}
	b = b[:len(a)]
	for i, v := range a {
		d := int64(sat32(int64(v) - int64(b[i])))
		s += int64(sat32(d * d))
	}
	return s
}
