package sched

import (
	"fmt"
	"math"

	"taurus/internal/cgra"
	"taurus/internal/fixed"
	"taurus/internal/graphcheck"
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
	// OpNone is no instruction: the zero Opcode, and the absent half of an
	// OpMatVec's epilogue.
	OpNone Opcode = iota
	OpAdd
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
	// OpMatVec is a dense layer: W (bias-)dots of constant weight rows with
	// one arena-backed input, written to W adjacent lanes — every argument of
	// a concat when each is a sunk OpDot/OpDotAdd of that shape, which it
	// replaces. Lane r is sat32(sat32(sum(sat32(Rows[r][i]*a[i]))) + bias r),
	// exactly what the W instructions it stands for compute (see matVec),
	// then through the layer's epilogue when it carries one: the activation
	// Act and the rescale Quant the concat fed, which it replaces too.
	OpMatVec
)

// Operand locates one argument's lanes. A constant's lanes sit in the model's
// weight image at Off..Off+W, the same for every packet — the weight rows and
// biases of an OpMatVec included; everything else lives in the batch-major
// arena at Off + j*Stride for packet j. An operand holds offsets, never
// storage, so one tape serves every shard's arena and every image pushed
// after it was compiled. The fields are exported for the fuzzers that read or
// corrupt a tape (Program.Code); Verify audits every operand against the
// tape's layout, and runtime code treats them as immutable after emit.
type Operand struct {
	Const  bool // lanes image[Off:Off+W], same every packet
	Off    int
	Stride int
	W      int
}

// Instr is one tape entry. Dst/DStride address the output window in the
// arena (DStride is the producing node's full width; for concat pieces the
// copy width W is narrower). Slot names the instruction's payload in the
// weight image: the multiplier of an OpRequant/OpScale, the table of an OpLUT
// (unused by every other opcode). An OpMatVec writes W lanes, one per weight
// row: A is its input and Rows holds the W constant rows (each A.W lanes),
// followed — when the layer has biases — by the W constant bias scalars, so
// len(Rows) is W or 2*W; Sum is where row 0's weight sum sits in the image
// (row r's at Sum+r, see Image). Its epilogue is Act — OpRelu, OpLeaky, OpNeg,
// OpAbs or OpNone — then Quant — OpRequant or OpScale by the multiplier at
// Slot, or OpNone — applied to every lane after the bias. Exported for static
// inspection and for fault-injection in verifier tests (Program.Code).
type Instr struct {
	Op      Opcode
	Dst     int
	DStride int
	W       int
	A, B, C Operand
	Rows    []Operand
	Slot    int

	// OpMatVec only.
	Act, Quant Opcode
	Sum        int
}

// Tape is the immutable code of a compiled model: the schedule's bundles
// linearised into straight-line instructions, the layout of the batch-major
// arena they run over, and the layout of the weight image they read. It holds
// no weights and no per-packet state, so one Tape — planned, emitted and
// verified once — is shared by every shard and survives every weight push.
type Tape struct {
	g     *mr.Graph // structure only: the weights it held at compile time go stale
	sched *Schedule
	code  []Instr
	batch int
	arena int       // arena size in lanes
	ins   []Operand // per declared input
	outs  []Operand // per declared output

	// layout[id] is where node id's weights sit in an Image: the first lane of
	// a KConst (Width lanes), the multiplier index of a KRequant/KScale, the
	// table index of a KLUT, -1 for a node that owns none. lanes, mults, luts
	// and sums (one per OpMatVec row) are the image's dimensions.
	layout                   []int
	lanes, mults, luts, sums int

	// packLanes is the OpMatVec scratch of an Arena, in packed lanes.
	packLanes int
}

// Image is one immutable set of a model's weights — every constant lane,
// requant/scale multiplier and LUT, copied out of a graph into storage of its
// own and addressed through the Tape's layout — and what the tape's kernels
// need that only the weights decide: sums[ins.Sum+r] is min(sum|w|, 1<<31)
// over row r of OpMatVec ins, the weight half of its packing guard. A weight
// push builds a new Image and publishes it by pointer; nothing ever writes one
// in place, so a sweep that resolved its windows from an image reads one model
// throughout.
type Image struct {
	lanes []int32
	mults []fixed.Multiplier
	luts  []mr.LUT
	sums  []int64
}

// Arena is the mutable state one shard sweeps in: the structure-of-arrays
// value arena and the OpMatVec scratch, all preallocated. It is not safe for
// concurrent use; every shard owns one.
type Arena struct {
	vals []int32

	// OpMatVec scratch, shared by every matvec of the tape and overwritten by
	// each: the input lanes of slots 2q and 2q+1 packed into one int64 per
	// lane (pack, pair-major) and the magnitude bound of pair q's inputs
	// (mag). fallbacks counts the (row, slot pair) cells whose guard failed.
	pack, mag []int64
	fallbacks int
}

// Program binds a Tape to the Image it reads and the Arena it runs in: a
// compiled evaluation tape over a validated graph. Run and RunBatch are
// bit-exact with Graph.Eval on the image's weights and allocate nothing. A
// Program is as safe for concurrent use as its Arena: not at all.
type Program struct {
	tape  *Tape
	img   *Image
	arena *Arena
}

// Compile plans g on spec, emits the instruction tape and verifies it: the
// program is returned only if Check finds it a faithful translation of g, so
// a miscompilation is an error here, not a wrong verdict later. The program
// is bound to an image of g's weights and an arena of its own; g is kept for
// its structure only.
func Compile(g *mr.Graph, spec cgra.GridSpec) (*Program, error) {
	p, err := CompileUnverified(g, spec)
	if err == nil {
		err = Check(p)
	}
	if err != nil {
		return nil, err
	}
	return p, nil
}

// CompileUnverified is Compile without the closing Check — for callers that
// run the gate themselves (core.Install journals its verdict, taurus-compile
// keeps the whole Report) and for tests that corrupt a tape before checking it.
func CompileUnverified(g *mr.Graph, spec cgra.GridSpec) (*Program, error) {
	s, err := Plan(g, spec)
	if err != nil {
		return nil, err
	}
	t, err := emit(g, s)
	if err != nil {
		return nil, err
	}
	return &Program{tape: t, img: t.image(g), arena: t.NewArena()}, nil
}

// Bind returns the program that runs t over img in a.
func Bind(t *Tape, img *Image, a *Arena) Program { return Program{tape: t, img: img, arena: a} }

// NewImage copies the weights of g — a weight-only variant of the graph the
// tape was compiled from, which graphcheck.Compatible decides — into a fresh
// Image. g is only read and nothing of it is kept.
func (t *Tape) NewImage(g *mr.Graph) (*Image, error) {
	if err := graphcheck.Compatible(t.g, g); err != nil {
		return nil, err
	}
	return t.image(g), nil
}

func (t *Tape) image(g *mr.Graph) *Image {
	img := &Image{
		lanes: make([]int32, t.lanes),
		mults: make([]fixed.Multiplier, t.mults),
		luts:  make([]mr.LUT, t.luts),
		sums:  make([]int64, t.sums),
	}
	for i, n := range g.Nodes {
		at := t.layout[i]
		switch n.Kind {
		case mr.KConst:
			copy(img.lanes[at:at+n.Width], n.Const)
		case mr.KRequant, mr.KScale:
			img.mults[at] = n.Mult
		case mr.KLUT:
			img.luts[at] = *n.LUT
		}
	}
	for ci := range t.code {
		ins := &t.code[ci]
		if ins.Op != OpMatVec {
			continue
		}
		for r := 0; r < ins.W; r++ {
			var s int64
			for _, w := range ins.row(img, r) {
				s += abs64(int64(w))
			}
			// Clamped so that s*m cannot overflow (m < 1<<32); a clamped sum
			// still fails the guard against every non-zero m.
			img.sums[ins.Sum+r] = min(s, math.MaxInt32+1)
		}
	}
	return img
}

// NewArena allocates the state one shard needs to run the tape.
func (t *Tape) NewArena() *Arena {
	a := &Arena{vals: make([]int32, t.arena)}
	if t.packLanes > 0 {
		scratch := make([]int64, t.packLanes+(t.batch+1)/2)
		a.pack, a.mag = scratch[:t.packLanes], scratch[t.packLanes:]
	}
	return a
}

// Tape, Image and Arena return the three parts the program binds.
func (p *Program) Tape() *Tape   { return p.tape }
func (p *Program) Image() *Image { return p.img }
func (p *Program) Arena() *Arena { return p.arena }

// SetImage switches the program to another image of the same tape — a weight
// push, as seen by one arena's owner between two sweeps.
func (p *Program) SetImage(img *Image) { p.img = img }

// Schedule returns the bundle schedule the tape was linearised from.
func (p *Program) Schedule() *Schedule { return p.tape.sched }

// Graph returns the graph the tape was compiled from. It is the program's
// structure; the weights the program evaluates are the image's, which a push
// replaces without touching this graph.
func (p *Program) Graph() *mr.Graph { return p.tape.g }

// MaxBatch returns the batch capacity RunBatch accepts.
func (p *Program) MaxBatch() int { return p.tape.batch }

// In returns packet 0's buffer for the i-th declared input (the single-
// packet Run path); the caller writes feature codes into it.
func (p *Program) In(i int) []int32 { return p.InAt(i, 0) }

// InAt returns batch slot j's buffer for the i-th declared input.
func (p *Program) InAt(i, j int) []int32 {
	o := p.tape.ins[i]
	base := o.Off + j*o.Stride
	return p.arena.vals[base : base+o.W]
}

// Out returns packet 0's i-th declared output after Run.
func (p *Program) Out(i int) []int32 { return p.OutAt(i, 0) }

// OutAt returns batch slot j's i-th declared output after RunBatch.
func (p *Program) OutAt(i, j int) []int32 {
	o := p.tape.outs[i]
	if o.Const {
		return p.img.lanes[o.Off : o.Off+o.W]
	}
	base := o.Off + j*o.Stride
	return p.arena.vals[base : base+o.W]
}

// issueOrder linearises the schedule bundle by bundle: every node by Start
// cycle, IDs ascending (topological) within a cycle — the order the tape
// executes. One counting pass over the cycles buckets it.
func issueOrder(s *Schedule) []mr.NodeID {
	last := 0
	for _, t := range s.Start {
		last = max(last, t)
	}
	// at[t] is where cycle t's nodes begin in order, once the counts are summed.
	at := make([]int, last+2)
	for _, t := range s.Start {
		at[t+1]++
	}
	for t := 1; t < len(at); t++ {
		at[t] += at[t-1]
	}
	order := make([]mr.NodeID, len(s.Start))
	for id, t := range s.Start {
		order[at[t]] = mr.NodeID(id)
		at[t]++
	}
	return order
}

// emit lays out the arena and linearises the schedule into the tape. Five
// peephole passes cut the instruction count before emission: dot/sqdist
// chains fuse into their reductions, a neuron's scalar bias add folds into
// its dot product, values consumed only by a concat are produced directly
// into the concat's window (copy elimination), a concat that gathers nothing
// but the neurons of one dense layer becomes a single OpMatVec, and the
// activation and rescale that concat alone feeds become its epilogue.
func emit(g *mr.Graph, s *Schedule) (*Tape, error) {
	t := &Tape{g: g, sched: s, batch: DefaultBatch, layout: make([]int, len(g.Nodes))}

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
	// consumer[id] is the one node that reads a value used exactly once, -1
	// for a value read more than once or only as a declared output.
	consumer := make([]mr.NodeID, len(g.Nodes))
	for i := range consumer {
		consumer[i] = -1
	}
	for _, n := range g.Nodes {
		for _, a := range n.Args {
			if uses[a] == 1 {
				consumer[a] = n.ID
			}
		}
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

	// Layer fusion: a concat whose every argument is a (bias-)dot sunk into
	// it, each of one constant weight row with the same arena-backed input at
	// full width (and constant biases on all rows or none), is one OpMatVec.
	// A broadcast or constant input, rows over different windows (Conv1D) or
	// a single non-dot argument leave the per-neuron instructions alone.
	//
	// The layer's epilogue rides on the same instruction: when the concat's
	// only reader is a unary, and when that one's (or the concat's) only
	// reader is a requant or scale, the OpMatVec is issued where the last node
	// of that chain is and writes that node's window; the nodes before it
	// are fused away and get no arena block. A second reader, or a declared
	// output, ends the chain at the node that has it.
	//
	// constant reports whether a node's lanes sit in the weight image: a
	// const, or a slice of one.
	constant := func(id mr.NodeID) bool {
		n := g.Node(id)
		for n.Kind == mr.KSlice {
			n = g.Node(n.Args[0])
		}
		return n.Kind == mr.KConst
	}
	// neuron decomposes a concat argument into its dot's multiply node and
	// its bias (-1: none); m is nil when the argument is not a (bias-)dot.
	neuron := func(id mr.NodeID) (m *mr.Node, bias mr.NodeID) {
		n := g.Node(id)
		bias = -1
		if r := biasDot[id]; r >= 0 {
			if bias = n.Args[0]; bias == r {
				bias = n.Args[1]
			}
			n = g.Node(r)
		}
		if n.Kind != mr.KReduce || n.Reduce != mr.RAdd {
			return nil, -1
		}
		m = g.Node(n.Args[0])
		if !fused[m.ID] || (m.Args[0] == m.Args[1] && fused[m.Args[0]]) {
			return nil, -1 // plain sum or sqdist chain: not a dot
		}
		return m, bias
	}
	type layer struct {
		input      mr.NodeID
		rows       []mr.NodeID // weight rows, then biases if any
		act, quant Opcode
	}
	layers := make(map[mr.NodeID]layer) // by the node the OpMatVec is issued at
	maxWidth := 0
	for _, n := range g.Nodes {
		if n.Kind != mr.KConcat {
			continue
		}
		rows, biases, input := len(n.Args), 0, mr.NodeID(-1)
		var ops []mr.NodeID
		for r, a := range n.Args {
			m, bias := neuron(a)
			if m == nil || sink[a].target != n.ID {
				ops = nil
				break
			}
			w, x := m.Args[0], m.Args[1]
			if !constant(w) {
				w, x = x, w
			}
			if !constant(w) || constant(x) || g.Node(x).Width != g.Node(w).Width || (r > 0 && x != input) {
				ops = nil
				break
			}
			if ops == nil {
				ops = make([]mr.NodeID, 2*rows)
			}
			input, ops[r] = x, w
			if bias >= 0 {
				if !constant(bias) {
					ops = nil
					break
				}
				ops[rows+biases] = bias
				biases++
			}
		}
		if ops == nil || (biases != 0 && biases != rows) {
			continue
		}
		for _, a := range n.Args {
			fused[a] = true // the OpMatVec computes it
		}
		l, last := layer{input: input, rows: ops[:rows+biases]}, n.ID
		if u := consumer[last]; u >= 0 && g.Node(u).Kind == mr.KUnary {
			l.act = unaryOps[g.Node(u).Unary]
			fused[last], last = true, u
		}
		if q := consumer[last]; q >= 0 && (g.Node(q).Kind == mr.KRequant || g.Node(q).Kind == mr.KScale) {
			l.quant = OpRequant
			if g.Node(q).Kind == mr.KScale {
				l.quant = OpScale
			}
			fused[last], last = true, q
		}
		layers[last] = l
		maxWidth = max(maxWidth, g.Node(input).Width)
	}
	t.packLanes = (t.batch + 1) / 2 * maxWidth

	// Arena and image layout: one batch-major arena block per value-producing
	// node that is neither fused away nor sunk; one image slot per node that
	// owns weights (a const's lanes, a requant/scale's multiplier, a LUT's
	// table). Slices and sunk values resolve into another node's window.
	loc := make([]Operand, len(g.Nodes))
	resolved := make([]bool, len(g.Nodes))
	for _, n := range g.Nodes {
		t.layout[n.ID] = -1
		switch n.Kind {
		case mr.KRequant, mr.KScale:
			t.layout[n.ID] = t.mults
			t.mults++
		case mr.KLUT:
			t.layout[n.ID] = t.luts
			t.luts++
		}
		switch {
		case n.Kind == mr.KConst:
			t.layout[n.ID] = t.lanes
			loc[n.ID] = Operand{Const: true, Off: t.lanes, W: n.Width}
			resolved[n.ID] = true
			t.lanes += n.Width
		case n.Kind == mr.KSlice, fused[n.ID], sink[n.ID].target >= 0:
			// resolved lazily below
		default:
			loc[n.ID] = Operand{Off: t.arena, Stride: n.Width, W: n.Width}
			resolved[n.ID] = true
			t.arena += t.batch * n.Width
		}
	}
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

	for _, id := range issueOrder(s) {
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
		if l, ok := layers[id]; ok {
			ins.Op, ins.A, ins.Act, ins.Quant, ins.Sum = OpMatVec, resolve(l.input), l.act, l.quant, t.sums
			ins.Rows = make([]Operand, len(l.rows))
			for i, r := range l.rows {
				ins.Rows[i] = resolve(r)
			}
			if l.quant != OpNone {
				ins.Slot = t.layout[id]
			}
			t.sums += ins.W
			t.code = append(t.code, ins)
			continue
		}
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
			ins.Op, ins.A = unaryOps[n.Unary], resolve(n.Args[0])
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
				t.code = append(t.code, Instr{
					Op: OpCopy, Dst: d.Off + at, DStride: d.Stride, W: src.W, A: src,
				})
				at += src.W
			}
			continue
		case mr.KRequant:
			ins.Op, ins.A, ins.Slot = OpRequant, resolve(n.Args[0]), t.layout[id]
		case mr.KScale:
			ins.Op, ins.A, ins.Slot = OpScale, resolve(n.Args[0]), t.layout[id]
		case mr.KLUT:
			ins.Op, ins.A, ins.Slot = OpLUT, resolve(n.Args[0]), t.layout[id]
		default:
			return nil, fmt.Errorf("sched: node %d has unknown kind %v", id, n.Kind)
		}
		t.code = append(t.code, ins)
	}

	t.ins = make([]Operand, len(g.Inputs))
	for i, id := range g.Inputs {
		t.ins[i] = resolve(id)
	}
	t.outs = make([]Operand, len(g.Outputs))
	for i, id := range g.Outputs {
		t.outs[i] = resolve(id)
	}
	return t, nil
}

// unaryOps is the opcode of each mr.UnaryOp.
var unaryOps = [...]Opcode{mr.UReLU: OpRelu, mr.ULeakyReLU: OpLeaky, mr.UNeg: OpNeg, mr.UAbs: OpAbs}

// window is one operand (or destination) of an instruction resolved for a
// sweep: its lanes from slot 0's first onward — in the weight image or the
// arena — and how far the window moves per batch slot (0 for a constant:
// every slot reads the same lanes). Where a window lies is fixed when the tape
// is emitted; which image and arena it lies in is not (a push swaps the image,
// every shard has its own arena), so a sweep resolves its windows afresh from
// the Operands tapecheck audited — once per instruction, never per lane (an
// OpMatVec's rows and biases, constants all, are sliced per sweep the same way
// by Instr.row and Instr.bias). The struct is kept to 32 bytes so that the
// compiler holds it in registers.
type window struct {
	lanes []int32
	step  int
}

// resolve places o in the image's lanes img or the arena vals.
func (o *Operand) resolve(img, vals []int32) window {
	if o.Const {
		return window{lanes: img[o.Off : o.Off+o.W]}
	}
	return window{lanes: vals[o.Off:], step: o.Stride}
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
// and saturation inlined; an OpMatVec walks them two slots at a time (matVec).
//
// hotpath: zero-alloc
func (p *Program) RunBatch(n int) {
	code, img, vals := p.tape.code, p.img.lanes, p.arena.vals
	if n < 1 || n > p.tape.batch {
		//hotpathcheck:allow — misuse guard; panics before the sweep, never taken on the steady path
		panic(fmt.Sprintf("sched: RunBatch(%d) outside capacity %d", n, p.tape.batch))
	}
	for ci := range code {
		ins := &code[ci]
		a, b := ins.A.resolve(img, vals), ins.B.resolve(img, vals)
		out := window{lanes: vals[ins.Dst:], step: ins.DStride}
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
			m := p.img.mults[ins.Slot]
			lo, hi := clampOf(ins.Op)
			for j := 0; j < n; j++ {
				scaleLanes(out.slot(j, w), a.slot(j, aw), m, lo, hi)
			}
		case OpLUT:
			for j := 0; j < n; j++ {
				lutLanes(out.slot(j, w), a.slot(j, aw), &p.img.luts[ins.Slot])
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
			c := ins.C.resolve(img, vals)
			for j := 0; j < n; j++ {
				dot := sat32(dotLanes(a.slot(j, aw), b.slot(j, bw)))
				out.lanes[j*out.step] = sat32(int64(dot) + int64(c.lanes[j*c.step]))
			}
		case OpSqDist:
			for j := 0; j < n; j++ {
				out.lanes[j*out.step] = sat32(sqDistLanes(a.slot(j, aw), b.slot(j, bw)))
			}
		case OpMatVec:
			p.arena.matVec(ins, p.img, a, out, n)
		}
	}
}

// Fallbacks returns how many (weight row, slot pair) cells of OpMatVec sweeps
// have been evaluated product by product because their operands failed the
// packing guard, in the program's arena since it was allocated. A lone
// RunBatch(1) slot always runs that way and is not counted.
func (p *Program) Fallbacks() int { return p.arena.fallbacks }

// matVec evaluates one OpMatVec for batch slots 0..n-1: lane r of slot j is
// sat32(sat32(sum_i sat32(w_r[i]*x_j[i])) + bias_r), then through the
// instruction's epilogue.
//
// Two slots share each multiply. The lanes of slots 2q and 2q+1 are packed
// into one int64, X[i] = x_2q[i] + x_2q+1[i]<<32 (an odd last slot packs
// against zero), so acc = sum_i X[i]*w[i] is dot_2q + dot_2q+1<<32 and the
// halves come back as lo = int32(acc), hi = (acc-lo)>>32. That is exact iff
// no product and no partial sum of either slot leaves int32, which the
// kernel establishes for the operands it is about to multiply: the pack pass
// ORs the input magnitudes of a pair into M >= max|x|, the image holds
// S = sum|w| per row of its own lanes, and S*M <= MaxInt32 bounds every
// product and partial sum, making every sat32 of the reference the identity
// and keeping the low half from carrying into the high one. A (row, pair)
// that fails the guard — and a lone slot, which has no partner — takes
// dotLanes, the per-product-saturating kernel of OpDot. Nothing is assumed
// about what the inputs hold, and S is as new as the weights it was summed
// from, so a new image needs no notification.
//
// hotpath: zero-alloc
func (p *Arena) matVec(ins *Instr, img *Image, x, out window, n int) {
	rows, width := ins.W, ins.A.W
	if n == 1 {
		xs := x.slot(0, width)
		for r := 0; r < rows; r++ {
			out.lanes[r] = sat32(int64(sat32(dotLanes(ins.row(img, r), xs))) + ins.bias(img, r))
		}
		ins.epilogue(img, out, 1)
		return
	}

	pairs := (n + 1) / 2
	for q := 0; q < pairs; q++ {
		packed := p.pack[q*width : (q+1)*width]
		lo := x.slot(2*q, width)[:len(packed)]
		var m int64
		if 2*q+1 < n {
			hi := x.slot(2*q+1, width)[:len(packed)]
			for i := range packed {
				a, b := int64(lo[i]), int64(hi[i])
				packed[i] = a + b<<32
				m |= abs64(a) | abs64(b)
			}
		} else {
			for i := range packed {
				a := int64(lo[i])
				packed[i] = a
				m |= abs64(a)
			}
		}
		p.mag[q] = m
	}

	// Two rows by two pairs per pass, so each packed lane and each weight is
	// loaded once for four multiplies (eight dots); an odd pair and an odd row
	// run the narrower forms. A block whose joint guard fails is retried
	// pair by pair, and a pair cell by cell, so only a cell that fails its
	// own guard leaves the packed path.
	sums := img.sums[ins.Sum : ins.Sum+rows]
	r := 0
	for ; r+1 < rows; r += 2 {
		w0, w1 := ins.row(img, r), ins.row(img, r+1)
		w1 = w1[:len(w0)]
		s0, s1, b0, b1 := sums[r], sums[r+1], ins.bias(img, r), ins.bias(img, r+1)
		q := 0
		for ; q+1 < pairs; q += 2 {
			if max(s0, s1)*(p.mag[q]|p.mag[q+1]) > math.MaxInt32 {
				p.matVecPair(x, out, n, r, q, w0, w1, s0, s1, b0, b1)
				p.matVecPair(x, out, n, r, q+1, w0, w1, s0, s1, b0, b1)
				continue
			}
			a00, a01, a10, a11 := packedDot2x2(p.pack[q*width:(q+2)*width], w0, w1)
			putPair(out, n, r, q, a00, b0)
			putPair(out, n, r, q+1, a01, b0)
			putPair(out, n, r+1, q, a10, b1)
			putPair(out, n, r+1, q+1, a11, b1)
		}
		if q < pairs {
			p.matVecPair(x, out, n, r, q, w0, w1, s0, s1, b0, b1)
		}
	}
	if r < rows {
		w, s, b := ins.row(img, r), sums[r], ins.bias(img, r)
		for q := 0; q < pairs; q++ {
			p.matVecCell(x, out, n, r, q, w, s, b)
		}
	}
	ins.epilogue(img, out, n)
}

// matVecPair evaluates rows r and r+1 (weights w0 and w1 of equal length,
// sums s0 and s1, biases b0 and b1) for slot pair q alone.
//
// hotpath: zero-alloc
func (p *Arena) matVecPair(x, out window, n, r, q int, w0, w1 []int32, s0, s1, b0, b1 int64) {
	if m := p.mag[q]; s0*m > math.MaxInt32 || s1*m > math.MaxInt32 {
		p.matVecCell(x, out, n, r, q, w0, s0, b0)
		p.matVecCell(x, out, n, r+1, q, w1, s1, b1)
		return
	}
	acc0, acc1 := packedDot2(p.pack[q*len(w0):(q+1)*len(w0)], w0, w1)
	putPair(out, n, r, q, acc0, b0)
	putPair(out, n, r+1, q, acc1, b1)
}

// matVecCell evaluates row r (weights w, sum s, bias b) for slot pair q
// alone: packed when the guard holds, otherwise slot by slot through dotLanes.
//
// hotpath: zero-alloc
func (p *Arena) matVecCell(x, out window, n, r, q int, w []int32, s, b int64) {
	width := len(w)
	if s*p.mag[q] <= math.MaxInt32 {
		var acc int64
		packed := p.pack[q*width:][:len(w)]
		for i, wv := range w {
			acc += packed[i] * int64(wv)
		}
		putPair(out, n, r, q, acc, b)
		return
	}
	p.fallbacks++
	acc := int64(sat32(dotLanes(w, x.slot(2*q, width))))
	if 2*q+1 < n {
		acc += int64(sat32(dotLanes(w, x.slot(2*q+1, width)))) << 32
	}
	putPair(out, n, r, q, acc, b)
}

// packedDot2x2 is the packed dot of each of two adjacent slot pairs — x holds
// the packed lanes of one, then of the other — with each of two rows; a01 is
// row 0 with the second pair. It stays out of line, as packedDot2 does:
// inlined into matVec the accumulators spill to the stack.
//
//go:noinline
func packedDot2x2(x []int64, w0, w1 []int32) (a00, a01, a10, a11 int64) {
	x0, x1 := x[:len(w0)], x[len(w0):]
	x1, w1 = x1[:len(x0)], w1[:len(x0)]
	for i, xv0 := range x0 {
		xv1 := x1[i]
		wv := int64(w0[i])
		a00 += xv0 * wv
		a01 += xv1 * wv
		wv = int64(w1[i])
		a10 += xv0 * wv
		a11 += xv1 * wv
	}
	return a00, a01, a10, a11
}

// packedDot2 is the packed dot of x with each of two rows. It stays out of
// line: inlined into matVec its accumulators spill to the stack, and the
// 8-64-32-1 sweep runs a third slower.
//
//go:noinline
func packedDot2(x []int64, w0, w1 []int32) (acc0, acc1 int64) {
	w0, w1 = w0[:len(x)], w1[:len(x)]
	for i, xv := range x {
		acc0 += xv * int64(w0[i])
		acc1 += xv * int64(w1[i])
	}
	return acc0, acc1
}

// epilogue applies an OpMatVec's activation and rescale, in place, to the W
// finished lanes of slots 0..n-1: what the OpRelu and OpRequant it replaces
// would have done to the same int32 lanes, one window over.
//
// hotpath: zero-alloc
func (ins *Instr) epilogue(img *Image, out window, n int) {
	if ins.Act == OpNone && ins.Quant == OpNone {
		return
	}
	var m fixed.Multiplier
	if ins.Quant != OpNone {
		m = img.mults[ins.Slot]
	}
	lo, hi := clampOf(ins.Quant)
	for j := 0; j < n; j++ {
		lanes := out.slot(j, ins.W)
		if ins.Act == OpRelu && ins.Quant != OpNone {
			// Every hidden layer of the DNN lowering: one pass, not two.
			reluScaleLanes(lanes, m, lo, hi)
			continue
		}
		switch ins.Act {
		case OpRelu:
			reluLanes(lanes, lanes)
		case OpLeaky:
			leakyLanes(lanes, lanes)
		case OpNeg:
			negLanes(lanes, lanes)
		case OpAbs:
			absLanes(lanes, lanes)
		}
		if ins.Quant != OpNone {
			scaleLanes(lanes, lanes, m, lo, hi)
		}
	}
}

// putPair splits acc = lo + hi<<32 into the dots of slots 2q and 2q+1 and
// stores each, plus the bias b, in lane r.
func putPair(out window, n, r, q int, acc, b int64) {
	lo := int32(acc)
	out.lanes[2*q*out.step+r] = sat32(int64(lo) + b)
	if 2*q+1 < n {
		out.lanes[(2*q+1)*out.step+r] = sat32((acc-int64(lo))>>32 + b)
	}
}

// row returns the weights of an OpMatVec's row r in img.
func (ins *Instr) row(img *Image, r int) []int32 {
	o := &ins.Rows[r]
	return img.lanes[o.Off : o.Off+o.W]
}

// bias returns the bias of an OpMatVec's row r in img, 0 when it has none.
func (ins *Instr) bias(img *Image, r int) int64 {
	if len(ins.Rows) == ins.W {
		return 0
	}
	return int64(img.lanes[ins.Rows[ins.W+r].Off])
}

// abs64 is |v| for v > MinInt64.
func abs64(v int64) int64 {
	s := v >> 63
	return (v ^ s) - s
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

// clampOf is the range a rescale clamps to: int8 for a requantise, the whole
// of int32 (no clamp) for a scale.
func clampOf(op Opcode) (lo, hi int32) {
	if op == OpRequant {
		return -128, 127
	}
	return math.MinInt32, math.MaxInt32
}

// scaleLanes is fixed.Multiplier.Apply per lane, clamped to [lo, hi].
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

// reluScaleLanes is scaleLanes of reluLanes, in place and in one pass.
func reluScaleLanes(v []int32, m fixed.Multiplier, lo, hi int32) {
	if m.Shift >= 63 {
		clear(v)
		return
	}
	m0, half, sh := int64(m.M0), int64(1)<<(m.Shift-1), uint(m.Shift)
	for i, x := range v {
		v[i] = min(max(int32((int64(max(x, 0))*m0+half)>>sh), lo), hi)
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
