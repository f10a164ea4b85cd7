package sched

import (
	"fmt"
	"math"

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
	// OpSqDist fuses KMap(MSub) -> KMap(MMul, d, d) -> KReduce(RAdd): the
	// squared-distance chain of the KMeans lowering.
	OpSqDist
	// OpMatVec is the one fused dot: W (bias-)dots of constant weight rows
	// with one arena-backed input at full width, written to W adjacent lanes.
	// Every such (bias-)dot is a row of one: a concat whose every argument is
	// one sunk into it, over one input, is a W-row OpMatVec that replaces
	// them; any other is a 1-row OpMatVec, written to its own block or, sunk,
	// to its lane of the concat. Lane r is
	// sat32(sat32(sum(sat32(Rows[r][i]*a[i]))) + bias r), exactly what the
	// graph's mul, sum and bias add compute (see matVec), then through the
	// layer's epilogue when it carries one: the activation Act and the
	// rescale or table Quant the layer fed, which it replaces too. The kernel
	// applies the epilogue to each lane as it stores it, so a lane is written
	// once, finished — packed, when the next layer is its only reader.
	OpMatVec
)

// opClass groups opcodes by how RunBatch addresses their operands: which
// operands are read, over how many lanes, and how many destination lanes
// are written.
type opClass uint8

const (
	classBad     opClass = iota // no instruction: OpNone, and every value past OpMatVec
	classBinary                 // reads a[0:W], b[0:W] (or b[0] broadcast); writes W lanes
	classUnary                  // an activation: reads a[0:W]; writes W lanes
	classRescale                // classUnary through the multiplier or table at Slot
	classCopy                   // classUnary, the lanes unchanged
	classReduce                 // reads a[0:A.W]; writes lane 0
	classDist                   // reads a[0:A.W], b likewise (or b[0] broadcast); writes lane 0
	classMatVec                 // reads a[0:A.W] (packed or not), W constant rows (plus W constant biases) and W row sums; writes W lanes (packed or not)
)

// ops holds each opcode's facts as data: its mnemonic and its operand class.
// The equivalence analysis names the expression an instruction builds by its
// opcode (or its epilogue's), so the class is all it reads here. It has an
// entry for every value of an Opcode: any past OpMatVec reads the zero entry,
// classBad with no name.
var ops = [1 << 8]struct {
	name  string
	class opClass
}{
	OpNone:    {"none", classBad},
	OpAdd:     {"add", classBinary},
	OpSub:     {"sub", classBinary},
	OpMul:     {"mul", classBinary},
	OpMin:     {"min", classBinary},
	OpMax:     {"max", classBinary},
	OpRelu:    {"relu", classUnary},
	OpLeaky:   {"leaky", classUnary},
	OpNeg:     {"neg", classUnary},
	OpAbs:     {"abs", classUnary},
	OpSum:     {"sum", classReduce},
	OpRedMin:  {"redmin", classReduce},
	OpRedMax:  {"redmax", classReduce},
	OpArgMin:  {"argmin", classReduce},
	OpArgMax:  {"argmax", classReduce},
	OpRequant: {"requant", classRescale},
	OpScale:   {"scale", classRescale},
	OpLUT:     {"lut", classRescale},
	OpCopy:    {"copy", classCopy},
	OpSqDist:  {"sqdist", classDist},
	OpMatVec:  {"matvec", classMatVec},
}

// String names the opcode, mnemonic-style, for findings and reports.
func (op Opcode) String() string {
	if name := ops[op].name; name != "" {
		return name
	}
	return "op?"
}

// Operand locates one argument's lanes. A constant's lanes sit in the model's
// weight image at Off..Off+W, the same for every packet — the weight rows and
// biases of an OpMatVec included; everything else lives in the batch-major
// arena at Off + j*Stride for packet j, or — Packed, the input of an OpMatVec
// its producer handed over — in the arena's packed lanes, where slot pair q
// (packets 2q and 2q+1) sits at Off + q*Stride: W lanes x_2q[i] +
// x_2q+1[i]<<32, then the pair's magnitude bound (see Arena). An operand holds
// offsets, never storage, so one tape serves every shard's arena and every
// image pushed after it was compiled. The fields are exported for the fuzzers
// that read or corrupt a tape (Program.Code); Verify audits every operand
// against the tape's layout, and runtime code treats them as immutable after
// emit.
type Operand struct {
	Const  bool // lanes image[Off:Off+W], same every packet
	Packed bool // slot pair q's lanes packed[Off+q*Stride:][:W], its bound after them
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
// Slot, OpLUT through the table at Slot, or OpNone — applied to every lane
// after the bias, before the lane is stored (the kernel resolves the pair once
// per sweep, see finishFor). Packed says where it stores: in the arena's
// packed lanes at Dst, DStride per slot pair, in the layout of a Packed
// Operand, which is how the one OpMatVec that reads the layer whole takes it
// as its A. Exported for static inspection and for fault-injection in
// verifier tests (Program.Code).
type Instr struct {
	Op      Opcode
	Dst     int
	DStride int
	W       int
	A, B    Operand
	Rows    []Operand
	Slot    int

	// OpMatVec only.
	Act, Quant Opcode
	Sum        int
	Packed     bool
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

	// packed is the extent of the packed windows one OpMatVec hands the next,
	// and scratch that of the pack scratch after them, in packed lanes.
	packed, scratch int
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

// Arena is the mutable state one shard sweeps in, all preallocated: the
// structure-of-arrays value arena and the packed lanes an OpMatVec reads.
// Its packed lanes hold two packets per int64, pair-major: slot pair q of a
// window W lanes wide is W lanes x_2q[i] + x_2q+1[i]<<32 (an odd last slot is
// packed against zero) followed by M_q >= max|x| over both slots, the
// magnitude half of the matvec's packing guard. A layer whose only reader is
// the next layer stores its lanes there itself (Instr.Packed), in the block
// its int32 lanes would have taken; every other OpMatVec input is packed into
// the shared scratch by a pass first. It is not safe for concurrent use;
// every shard owns one.
type Arena struct {
	vals []int32

	// packed holds the hand-off windows, pack the scratch (sized for the
	// widest input still packed by a pass), overwritten by every matvec that
	// packs. fallbacks counts the (row, slot pair) cells whose guard failed.
	packed, pack []int64
	fallbacks    int
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
	return &Program{tape: t, img: t.NewImage(g), arena: t.NewArena()}, nil
}

// Bind returns the program that runs t over img in a.
func Bind(t *Tape, img *Image, a *Arena) Program { return Program{tape: t, img: img, arena: a} }

// Graph returns the structure the tape was compiled from: its kinds, widths,
// edges and operators, which every image's graph shares. Its weights may be
// stale — an Image holds the live ones. It is the tape's own: read-only.
func (t *Tape) Graph() *mr.Graph { return t.g }

// NewImage copies the weights of g into a fresh Image. g must be a weight-only
// variant of Graph(), which graphcheck.Compatible decides and the caller
// checks first (core.Model.WithWeights runs it in its push gate,
// graphcheck.CheckPush): the copy trusts the layout to fit. g is only read and
// nothing of it is kept.
func (t *Tape) NewImage(g *mr.Graph) *Image {
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
	if wide := t.packed + t.scratch; wide > 0 {
		lanes := make([]int64, wide)
		a.packed, a.pack = lanes[:t.packed], lanes[t.packed:]
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
// peephole passes cut the instruction count before emission: sqdist chains
// fuse into their reductions, every dot of a constant row with an input (and
// the constant bias added to it) becomes a matvec row, values consumed only by
// a concat are produced directly into the concat's window (copy elimination),
// a concat that gathers nothing but the rows of one dense layer becomes a
// single OpMatVec — every other row a 1-row one — with the activation and
// rescale or table that layer alone feeds as its epilogue, and a layer that
// only the next layer reads hands it its lanes packed.
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
	// constant reports whether a node's lanes sit in the weight image: a
	// const, or a slice of one.
	constant := func(id mr.NodeID) bool {
		n := g.Node(id)
		for n.Kind == mr.KSlice {
			n = g.Node(n.Args[0])
		}
		return n.Kind == mr.KConst
	}

	// Dot fusion: KReduce(RAdd) of its sole KMap(MMul) is a squared distance
	// when the product squares its sole KMap(MSub), and a row — input x times
	// constant weights w, full width — when one factor is constant and the
	// other is not; a scalar add of a row's sum and a constant folds in as
	// the row's bias (sat32(sat32(sum) + bias), and int32 addition commutes
	// bit-exactly). Any other dot — of two computed values, of two constants,
	// of a broadcast lane — is left as its mul and its sum.
	//
	// sum[id] is the KReduce of the row node id holds — id itself, or the sum
	// its bias is added to — and -1 for a node that is no row.
	sum := make([]mr.NodeID, len(g.Nodes))
	fused := make([]bool, len(g.Nodes))
	// factors returns the two factors of the product KReduce r sums, the
	// constant one (if either is) as w.
	factors := func(r mr.NodeID) (x, w mr.NodeID) {
		m := g.Node(g.Node(r).Args[0])
		if x, w = m.Args[0], m.Args[1]; constant(x) {
			x, w = w, x
		}
		return x, w
	}
	for _, n := range g.Nodes {
		sum[n.ID] = -1
		switch {
		case n.Kind == mr.KReduce && n.Reduce == mr.RAdd:
			m := g.Node(n.Args[0])
			if m.Kind != mr.KMap || m.Map != mr.MMul || uses[m.ID] != 1 {
				continue
			}
			if d := g.Node(m.Args[0]); m.Args[0] == m.Args[1] && d.Kind == mr.KMap && d.Map == mr.MSub && uses[d.ID] == 2 {
				fused[m.ID], fused[d.ID] = true, true
				continue
			}
			if x, w := factors(n.ID); constant(w) && !constant(x) && g.Node(x).Width == g.Node(w).Width {
				sum[n.ID], fused[m.ID] = n.ID, true
			}
		case n.Kind == mr.KMap && n.Map == mr.MAdd && n.Width == 1:
			for k, r := range n.Args {
				if sum[r] == r && uses[r] == 1 && constant(n.Args[1-k]) {
					sum[n.ID], fused[r] = r, true
					break
				}
			}
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

	// Layer fusion: a concat whose every argument is a row sunk into it, each
	// over the same input (and biased all or none), is one OpMatVec of as
	// many rows. Every other row is a 1-row OpMatVec, issued at its own node:
	// one no concat gathers, or one sunk into a concat that is no layer —
	// rows over different windows (Conv1D), or beside a value that is no row.
	// Nodes are visited last to first, so a concat is decided before the rows
	// it gathers.
	//
	// The layer's epilogue rides on the same instruction: when the layer's
	// only reader is a unary, and when that one's (or the layer's) only
	// reader is a requant, a scale or a LUT, the OpMatVec is issued where the
	// last node of that chain is and writes that node's window; the nodes
	// before it are fused away and get no arena block. A second reader, or a
	// declared output, ends the chain at the node that has it.
	type layer struct {
		input      mr.NodeID
		w          int         // weight rows
		rows       []mr.NodeID // the w weight rows, then their biases if any
		act, quant Opcode
	}
	layers := make(map[mr.NodeID]layer) // by the node the OpMatVec is issued at
	var lone [1]mr.NodeID
	for i := len(g.Nodes) - 1; i >= 0; i-- {
		n := g.Nodes[i]
		gathered := n.Args
		switch {
		case n.Kind == mr.KConcat:
		case sum[n.ID] >= 0 && !fused[n.ID]:
			lone[0] = n.ID
			gathered = lone[:]
		default:
			continue
		}
		rows, biases, input, ok := len(gathered), 0, mr.NodeID(-1), true
		for r, a := range gathered {
			if ok = sum[a] >= 0 && (n.Kind != mr.KConcat || sink[a].target == n.ID); !ok {
				break
			}
			x, _ := factors(sum[a])
			if ok = r == 0 || x == input; !ok {
				break
			}
			input = x
			if sum[a] != a {
				biases++
			}
		}
		if !ok || (biases != 0 && biases != rows) {
			continue
		}
		l, last := layer{input: input, w: rows, rows: make([]mr.NodeID, rows+biases)}, n.ID
		for r, a := range gathered {
			_, l.rows[r] = factors(sum[a])
			if biases > 0 {
				bias := g.Node(a).Args[0]
				if bias == sum[a] {
					bias = g.Node(a).Args[1]
				}
				l.rows[rows+r] = bias
			}
		}
		if n.Kind == mr.KConcat {
			for _, a := range n.Args {
				fused[a] = true // the OpMatVec computes it
			}
		}
		if u := consumer[last]; u >= 0 && g.Node(u).Kind == mr.KUnary {
			l.act = unaryOps[g.Node(u).Unary]
			fused[last], last = true, u
		}
		if q := consumer[last]; q >= 0 {
			switch g.Node(q).Kind {
			case mr.KRequant:
				l.quant = OpRequant
			case mr.KScale:
				l.quant = OpScale
			case mr.KLUT:
				l.quant = OpLUT
			}
			if l.quant != OpNone {
				fused[last], last = true, q
			}
		}
		layers[last] = l
	}
	// Packed hand-off: a layer whose every reader is a weight row of one
	// other layer — that layer's whole input, and no declared output — stores
	// its lanes packed for it. Every other layer's input is packed into the
	// shared scratch, sized for the widest of them.
	handOff := make([]bool, len(g.Nodes))
	maxWidth := 0
	for _, l := range layers {
		if _, ok := layers[l.input]; ok && uses[l.input] == l.w {
			handOff[l.input] = true
		} else {
			maxWidth = max(maxWidth, g.Node(l.input).Width)
		}
	}
	pairs := (t.batch + 1) / 2
	if maxWidth > 0 {
		t.scratch = pairs * (maxWidth + 1)
	}

	// Arena and image layout: one batch-major arena block per value-producing
	// node that is neither fused away nor sunk — a packed one, a slot pair at
	// a time, for a layer handed over packed; one image slot per node that
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
		case handOff[n.ID]:
			loc[n.ID] = Operand{Packed: true, Off: t.packed, Stride: n.Width + 1, W: n.Width}
			resolved[n.ID] = true
			t.packed += pairs * (n.Width + 1)
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
			ins.Packed = d.Packed
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
			ins.Op = [...]Opcode{OpAdd, OpSub, OpMul, OpMin, OpMax}[n.Map]
			ins.A, ins.B = resolve(n.Args[0]), resolve(n.Args[1])
		case mr.KUnary:
			ins.Op, ins.A = unaryOps[n.Unary], resolve(n.Args[0])
		case mr.KReduce:
			// Every row is a matvec's, so a fused argument left here is the
			// product of a squared distance.
			if m := g.Node(n.Args[0]); fused[m.ID] {
				d := g.Node(m.Args[0])
				ins.Op, ins.A, ins.B = OpSqDist, resolve(d.Args[0]), resolve(d.Args[1])
				break
			}
			ins.Op = [...]Opcode{OpSum, OpRedMin, OpRedMax, OpArgMin, OpArgMax}[n.Reduce]
			ins.A = resolve(n.Args[0])
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
		if ins.Op == OpMatVec {
			p.arena.matVec(ins, p.img, n)
			continue
		}
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
		case OpSqDist:
			for j := 0; j < n; j++ {
				out.lanes[j*out.step] = sat32(sqDistLanes(a.slot(j, aw), b.slot(j, bw)))
			}
		}
	}
}

// Fallbacks returns how many (weight row, slot pair) cells of OpMatVec sweeps
// have been evaluated product by product because their operands failed the
// packing guard, in the program's arena since it was allocated.
func (p *Program) Fallbacks() int { return p.arena.fallbacks }

// matVec evaluates one OpMatVec for batch slots 0..n-1: lane r of slot j is
// sat32(sat32(sum_i sat32(w_r[i]*x_j[i])) + bias_r) through the instruction's
// epilogue, which the kernel applies as it stores the lane (finisher): no
// lane is written unfinished and read back.
//
// Two slots share each multiply. The input lanes of slots 2q and 2q+1 come
// packed into one int64, X[i] = x_2q[i] + x_2q+1[i]<<32 (an odd last slot
// packs against zero) — handed over so by the layer before, or packed by a
// pass here — so acc = sum_i X[i]*w[i] is dot_2q + dot_2q+1<<32 and the
// halves come back as lo = int32(acc), hi = (acc-lo)>>32. That is exact iff
// no product and no partial sum of either slot leaves int32, which the
// kernel establishes for the operands it is about to multiply: each packed
// pair carries M >= max|x| of its inputs, the image holds S = sum|w| per row
// of its own lanes, and S*M <= MaxInt32 bounds every product and partial
// sum, making every sat32 of the reference the identity and keeping the low
// half from carrying into the high one. A (row, pair) that fails the guard
// takes the reference's per-product-saturating form on the pair's unpacked
// slots (dotPairLanes). Nothing is assumed about what the inputs hold, and S
// is as new as the weights it was summed from, so a new image needs no
// notification.
//
// On a CPU with AVX2 (fuseFinish), a 2 x 2 block of two full pairs that
// clears the guard, in a layer whose epilogue is a floor and a requant into
// packed lanes — every hidden layer of a shipped DNN — is dotted and
// finished by one kernel, packedDot2x2Finish (dot_amd64.s), which stores
// what packedDot2x2 and finishRow store; every other block, and every CPU
// without AVX2, runs the Go loops and the Go finisher.
//
// hotpath: zero-alloc
func (p *Arena) matVec(ins *Instr, img *Image, n int) {
	rows, width := ins.W, ins.A.W
	var f finisher
	f.finishFor(ins, img, p, n)
	fused := fuseFinish && f.packed != nil && f.table == nil && f.unary == OpNone && !f.trackBound
	x, step := p.pack, width+1
	if ins.A.Packed {
		x, step = p.packed[ins.A.Off:], ins.A.Stride
	} else {
		packLanes(x, window{lanes: p.vals[ins.A.Off:], step: ins.A.Stride}, width, n)
	}

	sums := img.sums[ins.Sum : ins.Sum+rows]
	// Two rows by two pairs per pass, so each packed lane and each weight is
	// loaded once for four multiplies (eight dots); an odd row runs one row
	// by two pairs, an odd pair the narrower forms. A block whose joint guard
	// fails is retried pair by pair, and a pair cell by cell, so only a cell
	// that fails its own guard leaves the packed path.
	pairs := (n + 1) / 2
	r := 0
	for ; r+1 < rows; r += 2 {
		w0, w1 := ins.row(img, r), ins.row(img, r+1)
		w1 = w1[:len(w0)]
		s0, s1, b0, b1 := sums[r], sums[r+1], ins.bias(img, r), ins.bias(img, r+1)
		q := 0
		for ; q+1 < pairs; q += 2 {
			x0, x1 := x[q*step:][:width+1], x[(q+1)*step:][:width+1]
			if max(s0, s1)*(x0[width]|x1[width]) > math.MaxInt32 {
				p.matVecPair(&f, x0, n, r, q, w0, w1, s0, s1, b0, b1)
				p.matVecPair(&f, x1, n, r, q+1, w0, w1, s0, s1, b0, b1)
				continue
			}
			if fused && 2*q+3 < n {
				packedDot2x2Finish(&f, n, r, q, x0[:width], x1[:width], w0, w1, b0, b1)
				continue
			}
			a00, a01, a10, a11 := packedDot2x2(x0[:width], x1[:width], w0, w1)
			f.finishRow(n, r, q, a00, a01, b0)
			f.finishRow(n, r+1, q, a10, a11, b1)
		}
		if q < pairs {
			p.matVecPair(&f, x[q*step:][:width+1], n, r, q, w0, w1, s0, s1, b0, b1)
		}
	}
	if r < rows {
		w, s, b := ins.row(img, r), sums[r], ins.bias(img, r)
		q := 0
		for ; q+1 < pairs; q += 2 {
			x0, x1 := x[q*step:][:width+1], x[(q+1)*step:][:width+1]
			if s*(x0[width]|x1[width]) > math.MaxInt32 {
				p.matVecCell(&f, x0, n, r, q, w, s, b)
				p.matVecCell(&f, x1, n, r, q+1, w, s, b)
				continue
			}
			a0, a1 := packedDot1x2(x0[:width], x1[:width], w)
			f.finishRow(n, r, q, a0, a1, b)
		}
		if q < pairs {
			p.matVecCell(&f, x[q*step:][:width+1], n, r, q, w, s, b)
		}
	}
}

// packLanes packs the n slots of input window x, width lanes each, into dst
// pair by pair — slots 2q and 2q+1 into lanes dst[q*(width+1):][:width], an
// odd last slot against zero — and ORs each pair's input magnitudes into
// the lane after them, an M >= max|x| for the guard.
//
// hotpath: zero-alloc
func packLanes(dst []int64, x window, width, n int) {
	for q := 0; q < (n+1)/2; q++ {
		packed := dst[q*(width+1):][:width]
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
		dst[q*(width+1)+width] = m
	}
}

// matVecPair evaluates rows r and r+1 (weights w0 and w1 of equal length,
// sums s0 and s1, biases b0 and b1) for slot pair q alone, whose packed lanes
// x are followed by their bound.
//
// hotpath: zero-alloc
func (p *Arena) matVecPair(f *finisher, x []int64, n, r, q int, w0, w1 []int32, s0, s1, b0, b1 int64) {
	if m := x[len(w0)]; s0*m > math.MaxInt32 || s1*m > math.MaxInt32 {
		p.matVecCell(f, x, n, r, q, w0, s0, b0)
		p.matVecCell(f, x, n, r+1, q, w1, s1, b1)
		return
	}
	acc0, acc1 := packedDot2(x[:len(w0)], w0, w1)
	f.finishPair(n, r, q, acc0, b0)
	f.finishPair(n, r+1, q, acc1, b1)
}

// matVecCell evaluates row r (weights w, sum s, bias b) for slot pair q
// alone, whose packed lanes x are followed by their bound: packed when the
// guard holds, otherwise slot by slot through dotPairLanes.
//
// hotpath: zero-alloc
func (p *Arena) matVecCell(f *finisher, x []int64, n, r, q int, w []int32, s, b int64) {
	packed := x[:len(w)]
	if s*x[len(w)] <= math.MaxInt32 {
		f.finishPair(n, r, q, packedDot(packed, w), b)
		return
	}
	p.fallbacks++
	lo, hi := dotPairLanes(w, packed)
	f.finishPair(n, r, q, int64(sat32(lo))+int64(sat32(hi))<<32, b)
}

// dotPairLanes is sum(sat32(w[i]*x[i])) for each slot of the packed pair x —
// the low half lo = int32(X) and the high half (X-lo)>>32 of every lane — the
// exact per-product-saturating dot of a cell that fails the packing guard;
// the caller saturates the sums.
func dotPairLanes(w []int32, x []int64) (lo, hi int64) {
	x = x[:len(w)]
	for i, wv := range w {
		l := int32(x[i])
		h := int32((x[i] - int64(l)) >> 32)
		lo += int64(sat32(int64(wv) * int64(l)))
		hi += int64(sat32(int64(wv) * int64(h)))
	}
	return lo, hi
}

// fuseFinish is whether matVec runs packedDot2x2Finish on the blocks it
// fuses: on a CPU with AVX2. Only the tests move it.
var fuseFinish = haveAVX2

// The packed dots below are the kernels of every block packedDot2x2Finish
// does not take, and packedDot2x2 is the specification of its dot loop:
// each is the wrapping int64 sum of X[i]*w[i] per (pair, row).

// packedDot is the packed dot of slot pair x with one row: a lone cell.
func packedDot(x []int64, w []int32) (acc int64) {
	w = w[:len(x)]
	for i, xv := range x {
		acc += xv * int64(w[i])
	}
	return acc
}

// packedDot2x2 is the packed dot of each of two slot pairs, x0 and x1, with
// each of two rows; a01 is row 0 with the second pair. It stays out of line,
// as packedDot2 does: inlined into matVec the accumulators spill to the stack.
// Out of line it runs at about one IMULQ a cycle, the scalar ceiling, which
// no Go loop lifts; on AVX2 the blocks of a fused layer take
// packedDot2x2Finish instead, four products an instruction.
//
//go:noinline
func packedDot2x2(x0, x1 []int64, w0, w1 []int32) (a00, a01, a10, a11 int64) {
	x1, w0, w1 = x1[:len(x0)], w0[:len(x0)], w1[:len(x0)]
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

// packedDot1x2 is the packed dot of each of two slot pairs, x0 and x1, with
// one row: the 2 x 2 block's odd row.
//
//go:noinline
func packedDot1x2(x0, x1 []int64, w []int32) (a0, a1 int64) {
	x1, w = x1[:len(x0)], w[:len(x0)]
	for i, xv0 := range x0 {
		wv := int64(w[i])
		a0 += xv0 * wv
		a1 += x1[i] * wv
	}
	return a0, a1
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

// finisher is an OpMatVec's epilogue resolved against one image, once per
// sweep, and where it stores: what the OpRelu (or other unary) and the
// OpRequant, OpScale or OpLUT the instruction replaces would do to a lane, as
// one per-lane map. A ReLU is the floor 0 (MinInt32, no floor, otherwise);
// OpLeaky, OpNeg and OpAbs are the out-of-line rule unary; the rescale is
// (v*m0 + half) >> sh clamped to [lo, hi] — the identity m0 = 1, sh = 0
// without one, and m0 = 0 for a multiplier that shifts everything out
// (scaleLanes clears those lanes) — and a table's index, looked up in table.
// packedDot2x2Finish's assembly reads floor, lo, hi, m0, half and sh at
// their go_asm.h offsets, as an int32, an int32, an int32, two int64s and a
// 64-bit shift count.
//
// Finished lanes go to the arena's int32 lanes, slot j's lane r at
// lanes[j*step+r], or — for a layer handed over packed — into the packed
// lanes, slot pair q's at packed[q*step+r], with the pair's bound at
// packed[q*step+bound]: 128 without looking when the epilogue ends in int8
// (a requant's clamp or a table), otherwise the OR of every |lane| stored.
type finisher struct {
	unary    Opcode
	floor    int32
	lo, hi   int32
	m0, half int64
	sh       uint
	table    *[mr.LUTSize]int8

	lanes       []int32
	packed      []int64
	step, bound int
	trackBound  bool
}

// finishFor resolves ins's epilogue against img into f, points f at ins's
// destination in arena p, and seeds the bound of every pair a packed
// destination is about to hold in a sweep of n slots. It fills f in place: a
// finisher returned by value was copied through the stack by wide loads of
// its narrow stores, and that store-forwarding stall made a one-slot sweep of
// the 6-12-6-3-1 model about 15 % slower.
func (f *finisher) finishFor(ins *Instr, img *Image, p *Arena, n int) {
	f.unary, f.floor, f.m0, f.half, f.sh, f.table = ins.Act, math.MinInt32, 1, 0, 0, nil
	if ins.Act == OpRelu {
		f.unary, f.floor = OpNone, 0
	}
	f.lo, f.hi = clampOf(ins.Quant)
	if ins.Quant != OpNone {
		var m fixed.Multiplier
		if ins.Quant == OpLUT {
			lut := &img.luts[ins.Slot]
			m, f.table = lut.Mult, &lut.Table
		} else {
			m = img.mults[ins.Slot]
		}
		if m.Shift >= 63 {
			f.m0 = 0
		} else {
			f.m0, f.half, f.sh = int64(m.M0), int64(1)<<(m.Shift-1), uint(m.Shift)
		}
	}

	f.step, f.bound = ins.DStride, ins.W
	if !ins.Packed {
		f.lanes = p.vals[ins.Dst:]
		return
	}
	f.packed = p.packed[ins.Dst:]
	f.trackBound = ins.Quant != OpRequant && ins.Quant != OpLUT
	seed := int64(128)
	if f.trackBound {
		seed = 0
	}
	for q := 0; q < (n+1)/2; q++ {
		f.packed[q*f.step+f.bound] = seed
	}
}

// finishLane is the floor and the rescale of lane x: branch-free, and small
// enough to inline into the stores. The shift is masked because sh < 63,
// which lets the compiler drop its range check.
func (f *finisher) finishLane(x int32) int32 {
	return min(max(int32((int64(max(x, f.floor))*f.m0+f.half)>>(f.sh&63)), f.lo), f.hi)
}

// finishPair splits acc = lo + hi<<32 into the dots of slots 2q and 2q+1,
// adds the bias b to each, finishes them and stores them in lane r (see
// finishPairs).
//
// hotpath: zero-alloc
func (f *finisher) finishPair(n, r, q int, acc, b int64) {
	lo := int32(acc)
	vs := [2]int32{sat32(int64(lo) + b), sat32((acc-int64(lo))>>32 + b)}
	if f.unary != OpNone {
		vs[0], vs[1] = finishUnary(f.unary, vs[0]), finishUnary(f.unary, vs[1])
	}
	f.finishPairs(n, r, q, vs[:])
}

// finishRow is finishPair of pairs q and q+1 (accumulators a0 and a1) in one
// call, for one row of a 2 x 2 block: slots 2q..2q+2 are in the sweep, 2q+3
// may not be. It is the specification of packedDot2x2Finish's epilogue and
// finishes every block that kernel does not. Each finished lane goes
// straight to memory: stored so, the floor and the clamps of finishLane
// compile to conditional moves, where a lane kept for a later store turned
// them into jumps that a ReLU's floor mispredicts on half the lanes of real
// traffic.
//
// hotpath: zero-alloc
func (f *finisher) finishRow(n, r, q int, a0, a1, b int64) {
	lo0, lo1 := int32(a0), int32(a1)
	v0, v1 := sat32(int64(lo0)+b), sat32((a0-int64(lo0))>>32+b)
	v2, v3 := sat32(int64(lo1)+b), sat32((a1-int64(lo1))>>32+b)
	if f.unary != OpNone {
		v0, v1 = finishUnary(f.unary, v0), finishUnary(f.unary, v1)
		v2, v3 = finishUnary(f.unary, v2), finishUnary(f.unary, v3)
	}
	switch {
	case f.table != nil:
		vs := [4]int32{v0, v1, v2, v3}
		f.finishPairs(n, r, q, vs[:])
	case f.packed != nil:
		j := q*f.step + r
		f.packed[j] = int64(f.finishLane(v0)) + int64(f.finishLane(v1))<<32
		hi := int64(f.finishLane(v3))
		if 2*q+3 >= n {
			hi = 0
		}
		f.packed[j+f.step] = int64(f.finishLane(v2)) + hi<<32
		if f.trackBound {
			f.trackPair(q, j)
			f.trackPair(q+1, j+f.step)
		}
	default:
		j := 2*q*f.step + r
		f.lanes[j] = f.finishLane(v0)
		f.lanes[j+f.step] = f.finishLane(v1)
		f.lanes[j+2*f.step] = f.finishLane(v2)
		if 2*q+3 < n {
			f.lanes[j+3*f.step] = f.finishLane(v3)
		}
	}
}

// trackPair ORs the magnitudes of the packed lane at j into the bound of
// pair q.
func (f *finisher) trackPair(q, j int) {
	x := f.packed[j]
	lo := int64(int32(x))
	f.packed[q*f.step+f.bound] |= abs64(lo) | abs64((x-lo)>>32)
}

// finishPairs finishes lane r of the slots from 2q on, one value of vs each
// (the two of pair q, or the four of pairs q and q+1), and stores them:
// slots past the sweep's n are dropped, or packed as zero. It serves the
// table epilogue, an odd last pair and the cells the guard sends down the
// exact path; finishRow stores the 2 x 2 block's lanes itself.
//
// hotpath: zero-alloc
func (f *finisher) finishPairs(n, r, q int, vs []int32) {
	for k := range vs {
		if vs[k] = f.finishLane(vs[k]); f.table != nil {
			vs[k] = tableLane(f.table, vs[k])
		}
	}
	for k := 0; k+1 < len(vs) && 2*q+k < n; k += 2 {
		lo, hi := vs[k], vs[k+1]
		if 2*q+k+1 >= n {
			hi = 0
		}
		if f.packed != nil {
			j := (q+k/2)*f.step + r
			f.packed[j] = int64(lo) + int64(hi)<<32
			if f.trackBound {
				f.trackPair(q+k/2, j)
			}
			continue
		}
		j := (2*q+k)*f.step + r
		f.lanes[j] = lo
		if 2*q+k+1 < n {
			f.lanes[j+f.step] = hi
		}
	}
}

// tableLane is an OpLUT's lookup of a clamped index v, in its lane loop and
// as a matvec epilogue's last stage.
func tableLane(table *[mr.LUTSize]int8, v int32) int32 {
	return int32(table[v+mr.LUTSize/2])
}

// finishUnary is the per-lane rule of an epilogue's OpLeaky, OpNeg or OpAbs.
// It stays out of line: every shipped model's hidden layers are ReLU layers,
// which never call it.
//
//go:noinline
func finishUnary(op Opcode, v int32) int32 {
	switch op {
	case OpLeaky:
		return leakyLane(v)
	case OpNeg:
		return negLane(v)
	case OpAbs:
		return absLane(v)
	}
	return v
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
		out[i] = leakyLane(a[i])
	}
}

func negLanes(out, a []int32) {
	a = a[:len(out)]
	for i := range out {
		out[i] = negLane(a[i])
	}
}

func absLanes(out, a []int32) {
	a = a[:len(out)]
	for i := range out {
		out[i] = absLane(a[i])
	}
}

// leakyLane, negLane and absLane are the per-lane rules of OpLeaky, OpNeg and
// OpAbs, shared by their lane loops and the matvec epilogue (finishUnary).
func leakyLane(v int32) int32 {
	if v < 0 {
		return int32((int64(v)*82 + 4096) >> 13)
	}
	return v
}

func negLane(v int32) int32 { return sat32(-int64(v)) }

func absLane(v int32) int32 {
	if v < 0 {
		return sat32(-int64(v))
	}
	return v
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

// clampOf is the range a rescale clamps to: int8 for a requantise, a table's
// index range for a LUT, the whole of int32 (no clamp) for a scale.
func clampOf(op Opcode) (lo, hi int32) {
	switch op {
	case OpRequant:
		return -128, 127
	case OpLUT:
		return -mr.LUTSize / 2, mr.LUTSize/2 - 1
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

func lutLanes(out, a []int32, lut *mr.LUT) {
	m := lut.Mult
	a = a[:len(out)]
	for i := range out {
		out[i] = tableLane(&lut.Table, min(max(m.Apply(a[i]), -mr.LUTSize/2), mr.LUTSize/2-1))
	}
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
