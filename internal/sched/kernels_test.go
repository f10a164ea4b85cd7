package sched_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"taurus/internal/cgra"
	"taurus/internal/fixed"
	"taurus/internal/lower"
	mr "taurus/internal/mapreduce"
	"taurus/internal/ml"
	"taurus/internal/sched"
)

// operandKind says where a kernel's argument lives: in the weight image (a
// graph node's Const lanes, the same every batch slot) or in the tape's arena
// (a window that moves by a stride per slot).
type operandKind int

const (
	constant operandKind = iota
	arena
)

func (k operandKind) String() string { return [...]string{"const", "arena"}[k] }

// edgeLanes are the values every operand is drawn from: the int32 extremes,
// so that each saturating kernel clips in both directions, around them the
// int8 code range the lowerings run on, and duplicates to force reduce ties.
var edgeLanes = []int32{
	math.MaxInt32, math.MinInt32, math.MaxInt32, math.MinInt32,
	0, 1, -1, 127, -128, 1 << 16, -(1 << 16), 46341, -46341,
}

func drawLanes(rng *rand.Rand, n int) []int32 {
	v := make([]int32, n)
	for i := range v {
		v[i] = edgeLanes[rng.Intn(len(edgeLanes))]
	}
	return v
}

// kernelGraph builds a one-kernel graph. operand places an argument of the
// given kind and width and returns it; the kernel is whatever build makes of
// the operands it asks for.
func kernelGraph(t *testing.T, name string, rng *rand.Rand, build func(b *mr.Builder, operand func(kind operandKind, width int) mr.Value) mr.Value) *mr.Graph {
	t.Helper()
	b := mr.NewBuilder(name)
	n := 0
	operand := func(kind operandKind, width int) mr.Value {
		n++
		if kind == constant {
			return b.Const(fmt.Sprintf("c%d", n), drawLanes(rng, width))
		}
		return b.Input(fmt.Sprintf("x%d", n), width)
	}
	b.Output(build(b, operand))
	g, err := b.Build()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return g
}

// sweepAgainstEval runs sweeps of fill packets over edge-valued inputs until
// at least a full batch of draws went through, holding every slot's output
// to Graph.Eval of that slot's inputs.
func sweepAgainstEval(t *testing.T, g *mr.Graph, p *sched.Program, rng *rand.Rand, fill int, tag string) {
	t.Helper()
	for done := 0; done < p.MaxBatch(); done += fill {
		draws := make([][][]int32, fill)
		for j := range draws {
			draws[j] = make([][]int32, len(g.Inputs))
			for i, id := range g.Inputs {
				draws[j][i] = drawLanes(rng, g.Node(id).Width)
				copy(p.InAt(i, j), draws[j][i])
			}
		}
		p.RunBatch(fill)
		for j := range draws {
			want, err := g.Eval(draws[j]...)
			if err != nil {
				t.Fatal(err)
			}
			for oi := range want {
				got := p.OutAt(oi, j)
				for k := range want[oi] {
					if got[k] != want[oi][k] {
						t.Fatalf("%s %s fill %d slot %d lane %d: tape gives %d, Eval gives %d (inputs %v)",
							g.Name, tag, fill, j, k, got[k], want[oi][k], draws[j])
					}
				}
			}
		}
	}
}

// reimage is the weight push between two sweeps: p is rebound to a fresh image
// of g's weights as they stand, the way Device.UpdateWeights does it.
func reimage(t *testing.T, p *sched.Program, g *mr.Graph) {
	t.Helper()
	img, err := p.Tape().NewImage(g)
	if err != nil {
		t.Fatalf("%s: image of the pushed graph: %v", g.Name, err)
	}
	p.SetImage(img)
}

// pushWeights overwrites everything a weight update may change — constants,
// multipliers, LUT contents — on the graph, which a reimage then pushes.
func pushWeights(t *testing.T, g *mr.Graph, rng *rand.Rand) {
	t.Helper()
	mult, err := fixed.NewMultiplier(0.81)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range g.Nodes {
		switch n.Kind {
		case mr.KConst:
			copy(n.Const, drawLanes(rng, len(n.Const)))
		case mr.KRequant, mr.KScale:
			n.Mult = mult
		case mr.KLUT:
			n.LUT.Mult = mult
			for i := range n.LUT.Table {
				n.LUT.Table[i] = int8(rng.Intn(256))
			}
		}
	}
}

// TestKernelShapeMatrix drives every tape opcode through every shape its
// kernel distinguishes: each argument constant or arena-backed, in either
// argument position, the second argument full-width or a broadcast lane, at
// batch fills of 1, 15 and 16, on inputs that saturate. Each cell is
// bit-exact with Graph.Eval, before and after a weight push between two
// sweeps: a kernel may hoist where its operands lie out of the slot loop,
// never which image they lie in.
func TestKernelShapeMatrix(t *testing.T) {
	mult, err := fixed.NewMultiplier(0.37)
	if err != nil {
		t.Fatal(err)
	}
	newLUT := func() *mr.LUT {
		lut := &mr.LUT{Mult: mult}
		for i := range lut.Table {
			lut.Table[i] = int8(i*31 + 7)
		}
		return lut
	}
	type operandFn = func(kind operandKind, width int) mr.Value

	// One argument: the kernel reads a alone.
	unary := []struct {
		name string
		op   func(b *mr.Builder, a mr.Value) mr.Value
	}{
		{"relu", func(b *mr.Builder, a mr.Value) mr.Value { return b.Unary(mr.UReLU, a) }},
		{"leaky", func(b *mr.Builder, a mr.Value) mr.Value { return b.Unary(mr.ULeakyReLU, a) }},
		{"neg", func(b *mr.Builder, a mr.Value) mr.Value { return b.Unary(mr.UNeg, a) }},
		{"abs", func(b *mr.Builder, a mr.Value) mr.Value { return b.Unary(mr.UAbs, a) }},
		{"sum", func(b *mr.Builder, a mr.Value) mr.Value { return b.Reduce(mr.RAdd, a) }},
		{"redmin", func(b *mr.Builder, a mr.Value) mr.Value { return b.Reduce(mr.RMin, a) }},
		{"redmax", func(b *mr.Builder, a mr.Value) mr.Value { return b.Reduce(mr.RMax, a) }},
		{"argmin", func(b *mr.Builder, a mr.Value) mr.Value { return b.Reduce(mr.RArgMin, a) }},
		{"argmax", func(b *mr.Builder, a mr.Value) mr.Value { return b.Reduce(mr.RArgMax, a) }},
		{"requant", func(b *mr.Builder, a mr.Value) mr.Value { return b.Requant(a, mult) }},
		{"scale", func(b *mr.Builder, a mr.Value) mr.Value { return b.Scale(a, mult) }},
		{"lut", func(b *mr.Builder, a mr.Value) mr.Value { return b.ApplyLUT(a, newLUT()) }},
		{"copy", func(b *mr.Builder, a mr.Value) mr.Value { return b.Concat(a, a) }},
	}
	// Two arguments: b is as wide as a, or one broadcast lane.
	binary := []struct {
		name string
		op   func(b *mr.Builder, a, bb mr.Value) mr.Value
	}{
		{"add", func(b *mr.Builder, a, bb mr.Value) mr.Value { return b.Map(mr.MAdd, a, bb) }},
		{"sub", func(b *mr.Builder, a, bb mr.Value) mr.Value { return b.Map(mr.MSub, a, bb) }},
		{"mul", func(b *mr.Builder, a, bb mr.Value) mr.Value { return b.Map(mr.MMul, a, bb) }},
		{"min", func(b *mr.Builder, a, bb mr.Value) mr.Value { return b.Map(mr.MMin, a, bb) }},
		{"max", func(b *mr.Builder, a, bb mr.Value) mr.Value { return b.Map(mr.MMax, a, bb) }},
		{"dot", func(b *mr.Builder, a, bb mr.Value) mr.Value { return b.Reduce(mr.RAdd, b.Map(mr.MMul, a, bb)) }},
		{"sqdist", func(b *mr.Builder, a, bb mr.Value) mr.Value {
			d := b.Map(mr.MSub, a, bb)
			return b.Reduce(mr.RAdd, b.Map(mr.MMul, d, d))
		}},
	}

	rng := rand.New(rand.NewSource(29))
	kinds := []operandKind{constant, arena}
	var graphs []*mr.Graph
	for _, width := range []int{1, 7} {
		bWidths := []int{1, width}
		if width == 1 {
			bWidths = bWidths[:1]
		}
		for _, ka := range kinds {
			for _, k := range unary {
				graphs = append(graphs, kernelGraph(t, fmt.Sprintf("%s/%v/w%d", k.name, ka, width), rng,
					func(b *mr.Builder, operand operandFn) mr.Value { return k.op(b, operand(ka, width)) }))
			}
			for _, kb := range kinds {
				for _, bWidth := range bWidths {
					shape := fmt.Sprintf("%v-%v/w%d-b%d", ka, kb, width, bWidth)
					for _, k := range binary {
						graphs = append(graphs, kernelGraph(t, k.name+"/"+shape, rng,
							func(b *mr.Builder, operand operandFn) mr.Value {
								return k.op(b, operand(ka, width), operand(kb, bWidth))
							}))
					}
					// The fused dot+bias takes its bias from either kind of
					// operand, on either side of the add.
					for _, kc := range kinds {
						for _, biasFirst := range []bool{false, true} {
							graphs = append(graphs, kernelGraph(t, fmt.Sprintf("dotadd/%s/bias-%v-first-%v", shape, kc, biasFirst), rng,
								func(b *mr.Builder, operand operandFn) mr.Value {
									dot := b.Reduce(mr.RAdd, b.Map(mr.MMul, operand(ka, width), operand(kb, bWidth)))
									bias := operand(kc, 1)
									if biasFirst {
										return b.Map(mr.MAdd, bias, dot)
									}
									return b.Map(mr.MAdd, dot, bias)
								}))
						}
					}
				}
			}
		}
	}

	emitted := map[sched.Opcode]bool{}
	for _, g := range graphs {
		p, err := sched.Compile(g, cgra.DefaultGrid())
		if err != nil {
			t.Fatalf("Compile(%s): %v", g.Name, err)
		}
		for _, ins := range p.Code() {
			emitted[ins.Op] = true
		}
		for _, fill := range []int{1, 15, 16} {
			sweepAgainstEval(t, g, p, rng, fill, "as compiled")
			pushWeights(t, g, rng)
			reimage(t, p, g)
			sweepAgainstEval(t, g, p, rng, fill, "after a weight push")
		}
	}
	t.Run("matvec", func(t *testing.T) { matVecCells(t, rng, emitted) })
	for op := sched.OpAdd; op <= sched.OpMatVec; op++ {
		if !emitted[op] {
			t.Errorf("no graph of the matrix compiled to opcode %v", op)
		}
	}
}

// epilogue is what a dense layer's concat feeds before anything else reads
// it: an activation (OpNone or a unary), then a rescale (OpNone, OpRequant or
// OpScale by mult).
type epilogue struct {
	act, quant sched.Opcode
	mult       fixed.Multiplier
}

var unaryOf = map[sched.Opcode]mr.UnaryOp{
	sched.OpRelu: mr.UReLU, sched.OpLeaky: mr.ULeakyReLU, sched.OpNeg: mr.UNeg, sched.OpAbs: mr.UAbs,
}

// denseGraph builds one dense layer the way the lowerings do: a (bias-)dot
// of each constant weight row with one input, gathered by a concat, through
// the layer's activation and requantisation — the shape emit fuses into a
// single OpMatVec.
func denseGraph(t *testing.T, name string, weights [][]int32, biases []int32, ep epilogue) *mr.Graph {
	t.Helper()
	b := mr.NewBuilder(name)
	x := b.Input("x", len(weights[0]))
	neurons := make([]mr.Value, len(weights))
	for r, w := range weights {
		neurons[r] = b.DotProduct(b.Const(fmt.Sprintf("w%d", r), w), x)
		if biases != nil {
			neurons[r] = b.Map(mr.MAdd, neurons[r], b.Scalar(fmt.Sprintf("b%d", r), biases[r]))
		}
	}
	z := b.Concat(neurons...)
	if ep.act != sched.OpNone {
		z = b.Unary(unaryOf[ep.act], z)
	}
	switch ep.quant {
	case sched.OpRequant:
		z = b.Requant(z, ep.mult)
	case sched.OpScale:
		z = b.Scale(z, ep.mult)
	}
	b.Output(z)
	g, err := b.Build()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return g
}

// compileDense compiles a denseGraph and insists the layer came out as the
// tape's only instruction, an OpMatVec carrying the epilogue.
func compileDense(t *testing.T, g *mr.Graph, ep epilogue) *sched.Program {
	t.Helper()
	p, err := sched.Compile(g, cgra.DefaultGrid())
	if err != nil {
		t.Fatalf("Compile(%s): %v", g.Name, err)
	}
	code := p.Code()
	if len(code) != 1 || code[0].Op != sched.OpMatVec || code[0].Act != ep.act || code[0].Quant != ep.quant {
		t.Fatalf("%s: dense layer compiled to %d instructions starting with %s, want one matvec with epilogue %v, %v",
			g.Name, len(code), code[0].Mnemonic(), ep.act, ep.quant)
	}
	return p
}

func int8Lanes(rng *rand.Rand, n int) []int32 {
	v := make([]int32, n)
	for i := range v {
		v[i] = int32(int8(rng.Intn(256)))
	}
	return v
}

func magnitude(v int32) int64 {
	if v < 0 {
		return -int64(v)
	}
	return int64(v)
}

// exactCells is the packing guard worked out by the test: how many (weight
// row, slot pair) cells of one sweep must leave the packed path because the
// row's sum|w| times the OR of the pair's input magnitudes exceeds MaxInt32.
// A sweep of one slot has no pairs.
func exactCells(g *mr.Graph, slots [][]int32) int {
	if len(slots) < 2 {
		return 0
	}
	cells := 0
	for q := 0; q < len(slots); q += 2 {
		var m int64
		for _, slot := range slots[q:min(q+2, len(slots))] {
			for _, v := range slot {
				m |= magnitude(v)
			}
		}
		for _, n := range g.Nodes {
			if n.Kind != mr.KConst || n.Width != len(slots[0]) || n.Name[0] != 'w' {
				continue
			}
			var s int64
			for _, w := range n.Const {
				s += magnitude(w)
			}
			if s != 0 && m != 0 && (s > math.MaxInt32 || m > math.MaxInt32 || s*m > math.MaxInt32) {
				cells++
			}
		}
	}
	return cells
}

// sweepDense runs one sweep over the given slots, holds every lane to
// Graph.Eval and the program's fallback count to wantExact more than before.
func sweepDense(t *testing.T, g *mr.Graph, p *sched.Program, slots [][]int32, wantExact int, tag string) {
	t.Helper()
	for j, slot := range slots {
		copy(p.InAt(0, j), slot)
	}
	before := p.Fallbacks()
	p.RunBatch(len(slots))
	if got := p.Fallbacks() - before; got != wantExact {
		t.Fatalf("%s %s fill %d: %d cells took the exact path, want %d", g.Name, tag, len(slots), got, wantExact)
	}
	for j, slot := range slots {
		want, err := g.Eval(slot)
		if err != nil {
			t.Fatal(err)
		}
		got := p.OutAt(0, j)
		for k := range want[0] {
			if got[k] != want[0][k] {
				t.Fatalf("%s %s fill %d slot %d row %d: tape gives %d, Eval gives %d (input %v)",
					g.Name, tag, len(slots), j, k, got[k], want[0][k], slot)
			}
		}
	}
}

// matVecCells are OpMatVec's rows of the matrix: layer shapes from one row
// of one lane to 64 x 64, with and without biases, and every epilogue — no
// activation or each unary, then no rescale, a requant, a scale or a
// multiplier that shifts everything out — at fills of odd and even slot and
// pair counts (so the 2 x 2 block and both its tails run), on int8 codes and
// on lanes up to the int32 extremes, against int8 weights, saturating weights
// pushed between sweeps, and int8 weights pushed back. Every cell is
// bit-exact and takes the exact path exactly when the guard, worked out
// independently, says so.
func matVecCells(t *testing.T, rng *rand.Rand, emitted map[sched.Opcode]bool) {
	draw := func(lanes func(*rand.Rand, int) []int32, n, width int) [][]int32 {
		out := make([][]int32, n)
		for i := range out {
			out[i] = lanes(rng, width)
		}
		return out
	}
	packed, exact := 0, 0
	layer := func(rows, width int, biased bool, ep epilogue) {
		var biases []int32
		if biased {
			biases = drawLanes(rng, rows)
		}
		name := fmt.Sprintf("matvec/r%d-w%d-bias-%v/%v-%v-shift%d", rows, width, biased, ep.act, ep.quant, ep.mult.Shift)
		g := denseGraph(t, name, draw(int8Lanes, rows, width), biases, ep)
		p := compileDense(t, g, ep)
		push := func(lanes func(*rand.Rand, int) []int32) {
			for _, n := range g.Nodes {
				if n.Kind == mr.KConst && n.Name[0] == 'w' {
					copy(n.Const, lanes(rng, len(n.Const)))
				}
			}
			reimage(t, p, g)
		}
		for _, fill := range []int{1, 2, 3, 4, 5, 15, 16} {
			codes, edges := draw(int8Lanes, fill, width), draw(drawLanes, fill, width)
			// int8 weights on int8 codes always pack: 64 * 128 * 255 < 1<<31.
			sweepDense(t, g, p, codes, 0, "int8 weights, int8 codes")
			sweepDense(t, g, p, edges, exactCells(g, edges), "int8 weights, edge lanes")
			push(drawLanes)
			for _, slots := range [][][]int32{codes, edges} {
				want := exactCells(g, slots)
				sweepDense(t, g, p, slots, want, "after a saturating weight push")
				exact += want
				packed += rows*((fill+1)/2) - want
			}
			push(int8Lanes)
			sweepDense(t, g, p, codes, 0, "int8 weights pushed back")
		}
	}
	for _, rows := range []int{1, 2, 3, 64} {
		for _, width := range []int{1, 7, 64} {
			for _, biased := range []bool{false, true} {
				layer(rows, width, biased, epilogue{})
			}
		}
	}
	emitted[sched.OpMatVec] = true
	mult, err := fixed.NewMultiplier(0.37)
	if err != nil {
		t.Fatal(err)
	}
	for _, act := range []sched.Opcode{sched.OpNone, sched.OpRelu, sched.OpLeaky, sched.OpNeg, sched.OpAbs} {
		for _, q := range []epilogue{
			{}, {quant: sched.OpRequant, mult: mult}, {quant: sched.OpScale, mult: mult},
			{quant: sched.OpRequant, mult: fixed.Multiplier{M0: 1 << 30, Shift: 63}},
			{quant: sched.OpScale, mult: fixed.Multiplier{M0: 1 << 30, Shift: 64}},
		} {
			q.act = act
			for _, rows := range []int{1, 2, 5} {
				layer(rows, 7, rows != 2, q)
			}
		}
	}
	if packed == 0 || exact == 0 {
		t.Errorf("saturating weights drove %d cells down the packed path and %d down the exact one: the matrix must reach both", packed, exact)
	}

	// One slot of a pair in range, its partner saturating: the whole pair
	// leaves the packed path for every row, the other pairs stay on it.
	g := denseGraph(t, "matvec/mixed-pair", draw(int8Lanes, 3, 7), []int32{5, -5, math.MaxInt32}, epilogue{})
	for _, n := range g.Nodes {
		if n.Kind == mr.KConst && n.Width == 7 {
			n.Const[0] |= 1 // no all-zero row: every row's guard depends on the inputs
		}
	}
	p := compileDense(t, g, epilogue{})
	slots := draw(int8Lanes, 6, 7)
	slots[3] = []int32{1, math.MaxInt32, math.MinInt32, -1, 0, 7, 46341}
	sweepDense(t, g, p, slots, 3, "mixed pair")

	// The guard's boundary, S*M against MaxInt32 (a prime, so the product
	// meets it only as 1 * MaxInt32).
	for _, tc := range []struct {
		name    string
		weights []int32
		a, b    []int32 // the two slots of the pair
		exact   int
	}{
		{"S=1,M=MaxInt32", []int32{1, 0}, []int32{math.MaxInt32, 0}, []int32{0, 5}, 0},
		{"S=1,M=MaxInt32+1", []int32{1, 0}, []int32{math.MinInt32, 0}, []int32{0, 5}, 1},
		{"S=-1,M=MaxInt32", []int32{0, -1}, []int32{9, math.MaxInt32}, []int32{-9, -math.MaxInt32}, 0},
		{"S=MaxInt32,M=1", []int32{math.MaxInt32, 0}, []int32{1, 0}, []int32{-1, 1}, 0},
		{"S=MaxInt32,M=2", []int32{math.MaxInt32, 0}, []int32{0, 0}, []int32{-2, 0}, 1},
		{"S=MaxInt32+1,M=1", []int32{math.MinInt32, 0}, []int32{1, 0}, []int32{-1, 0}, 1},
		{"S=MaxInt32+1,M=1,split", []int32{math.MaxInt32, 1}, []int32{1, 1}, []int32{1, 1}, 1},
		{"S>MaxInt32,M=0", []int32{math.MinInt32, math.MinInt32}, []int32{0, 0}, []int32{0, 0}, 0},
		{"S=0,M>MaxInt32", []int32{0, 0}, []int32{math.MinInt32, math.MaxInt32}, []int32{math.MinInt32, 1}, 0},
	} {
		// A second, all-ones row shares the sweep: its guard is decided on
		// its own sum, whatever the row under test does.
		g := denseGraph(t, "matvec/boundary/"+tc.name, [][]int32{tc.weights, {1, 1}}, []int32{math.MaxInt32, math.MinInt32}, epilogue{})
		p := compileDense(t, g, epilogue{})
		pair := [][]int32{tc.a, tc.b}
		ones := exactCells(denseGraph(t, "ones", [][]int32{{1, 1}}, nil, epilogue{}), pair)
		sweepDense(t, g, p, pair, tc.exact+ones, "boundary")
	}
}

// TestMatVecEmit pins when emit may fuse a concat of neurons into one
// OpMatVec — every argument a sunk (bias-)dot of a constant row with the
// same arena-backed input at full width — and that where it does, the
// per-neuron instructions are gone rather than kept beside it.
func TestMatVecEmit(t *testing.T) {
	count := func(g *mr.Graph) (matvecs, dots int) {
		t.Helper()
		p, err := sched.Compile(g, cgra.DefaultGrid())
		if err != nil {
			t.Fatalf("Compile(%s): %v", g.Name, err)
		}
		type span struct{ lo, hi int }
		var layers []span
		for _, ins := range p.Code() {
			if ins.Op == sched.OpMatVec {
				matvecs++
				layers = append(layers, span{ins.Dst, ins.Dst + ins.W})
			}
		}
		for _, ins := range p.Code() {
			if ins.Op != sched.OpDot && ins.Op != sched.OpDotAdd {
				continue
			}
			dots++
			for _, l := range layers {
				if ins.Dst >= l.lo && ins.Dst < l.hi {
					t.Errorf("%s: a %v writes lane %d of the window [%d,%d) a matvec fills", g.Name, ins.Op, ins.Dst, l.lo, l.hi)
				}
			}
		}
		return matvecs, dots
	}
	build := func(name string, f func(b *mr.Builder) mr.Value) *mr.Graph {
		t.Helper()
		b := mr.NewBuilder(name)
		b.Output(f(b))
		g, err := b.Build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return g
	}
	row := func(b *mr.Builder, r, width int) mr.Value {
		w := make([]int32, width)
		for i := range w {
			w[i] = int32(r*7 + i - 3)
		}
		return b.Const(fmt.Sprintf("w%d", r), w)
	}

	for _, g := range []*mr.Graph{
		build("broadcast-input", func(b *mr.Builder) mr.Value {
			x := b.Input("x", 1)
			return b.Concat(b.DotProduct(row(b, 0, 7), x), b.DotProduct(row(b, 1, 7), x))
		}),
		build("constant-input", func(b *mr.Builder) mr.Value {
			x, c := b.Input("x", 7), row(b, 9, 7)
			return b.Concat(b.DotProduct(row(b, 0, 7), c), b.DotProduct(row(b, 1, 7), c), b.Reduce(mr.RAdd, x))
		}),
		build("arena-weights", func(b *mr.Builder) mr.Value {
			x, y := b.Input("x", 7), b.Input("y", 7)
			return b.Concat(b.DotProduct(y, x), b.DotProduct(y, x))
		}),
		build("mixed-row-widths", func(b *mr.Builder) mr.Value {
			x := b.Input("x", 7)
			return b.Concat(b.DotProduct(row(b, 0, 7), x), b.DotProduct(row(b, 1, 3), b.Slice(x, 0, 3)))
		}),
		build("dots-and-a-non-dot", func(b *mr.Builder) mr.Value {
			x := b.Input("x", 7)
			return b.Concat(b.DotProduct(row(b, 0, 7), x), b.Reduce(mr.RMax, x), b.DotProduct(row(b, 1, 7), x))
		}),
		build("some-rows-biased", func(b *mr.Builder) mr.Value {
			x := b.Input("x", 7)
			return b.Concat(b.DotProduct(row(b, 0, 7), x), b.Map(mr.MAdd, b.DotProduct(row(b, 1, 7), x), b.Scalar("b1", 4)))
		}),
		build("arena-bias", func(b *mr.Builder) mr.Value {
			x, y := b.Input("x", 7), b.Input("y", 1)
			return b.Concat(b.Map(mr.MAdd, b.DotProduct(row(b, 0, 7), x), y), b.Map(mr.MAdd, b.DotProduct(row(b, 1, 7), x), y))
		}),
		build("row-used-twice", func(b *mr.Builder) mr.Value {
			x := b.Input("x", 7)
			d := b.DotProduct(row(b, 0, 7), x)
			return b.Concat(d, b.DotProduct(row(b, 1, 7), x), d)
		}),
		build("conv1d-windows", func(b *mr.Builder) mr.Value {
			x, k := b.Input("x", 9), row(b, 0, 3)
			outs := make([]mr.Value, 7)
			for o := range outs {
				outs[o] = b.DotProduct(k, b.Slice(x, o, 3))
			}
			return b.Concat(outs...)
		}),
	} {
		if matvecs, _ := count(g); matvecs != 0 {
			t.Errorf("%s: emitted %d matvecs, want none", g.Name, matvecs)
		}
	}

	// Where the pattern holds: weights on either side of the multiply, a
	// sliced input shared by every row, and the dense layers of the models.
	for _, tc := range []struct {
		g             *mr.Graph
		matvecs, dots int
	}{
		{build("input-times-weights", func(b *mr.Builder) mr.Value {
			x := b.Input("x", 7)
			return b.Concat(b.DotProduct(x, row(b, 0, 7)), b.DotProduct(row(b, 1, 7), x))
		}), 1, 0},
		{build("shared-window", func(b *mr.Builder) mr.Value {
			win := b.Slice(b.Input("x", 9), 2, 3)
			return b.Concat(b.DotProduct(row(b, 0, 3), win), b.DotProduct(row(b, 1, 3), win))
		}), 1, 0},
		// 6-12-6-3-1: three layers, and the lone output neuron no concat gathers.
		{modelGraphs(t)["dnn"], 3, 1},
		// The four gate layers and the output layer of an LSTM step.
		{lstmGraph(t), 5, 0},
	} {
		matvecs, dots := count(tc.g)
		if matvecs != tc.matvecs || dots != tc.dots {
			t.Errorf("%s: emitted %d matvecs and %d per-neuron dots, want %d and %d", tc.g.Name, matvecs, dots, tc.matvecs, tc.dots)
		}
	}
	// KMeans distances are sqdist chains and the SVM's one dot stands alone:
	// neither holds the pattern.
	for _, name := range []string{"kmeans", "svm"} {
		if matvecs, _ := count(modelGraphs(t)[name]); matvecs != 0 {
			t.Errorf("%s: emitted %d matvecs, want none", name, matvecs)
		}
	}

	// 6-12-6-3-1 whole: each hidden layer is one instruction.
	dnn, err := sched.Compile(modelGraphs(t)["dnn"], cgra.DefaultGrid())
	if err != nil {
		t.Fatal(err)
	}
	hidden := "matvec+relu+requant"
	if got, want := mnemonics(dnn), []string{hidden, hidden, hidden, "dotadd", "lut"}; !slices.Equal(got, want) {
		t.Errorf("dnn: tape is %v, want %v", got, want)
	}

	// The epilogue: a unary the layer alone feeds, then a requant or scale
	// that one (or the layer) alone feeds, ride on the matvec; a second
	// reader or a declared output ends the chain at the node that has it,
	// and nothing else is taken. Each tape is listed whole, in issue order.
	mult, err := fixed.NewMultiplier(0.37)
	if err != nil {
		t.Fatal(err)
	}
	dense := func(b *mr.Builder, x mr.Value, first int) mr.Value {
		return b.Concat(b.DotProduct(row(b, first, 7), x), b.DotProduct(row(b, first+1, 7), x))
	}
	for _, tc := range []struct {
		name  string
		f     func(b *mr.Builder, x mr.Value) []mr.Value // the declared outputs
		want  []string
		lanes int // of arena per packet: the 7 of x, and those of every node left standing
	}{
		{"requant-on-a-declared-output", func(b *mr.Builder, x mr.Value) []mr.Value {
			return []mr.Value{b.Requant(b.Unary(mr.UReLU, dense(b, x, 0)), mult)}
		}, []string{"matvec+relu+requant"}, 9},
		{"linear-layer", func(b *mr.Builder, x mr.Value) []mr.Value {
			return []mr.Value{b.Requant(dense(b, x, 0), mult)}
		}, []string{"matvec+requant"}, 9},
		{"abs-then-scale", func(b *mr.Builder, x mr.Value) []mr.Value {
			return []mr.Value{b.Scale(b.Unary(mr.UAbs, dense(b, x, 0)), mult)}
		}, []string{"matvec+abs+scale"}, 9},
		{"stacked-layers", func(b *mr.Builder, x mr.Value) []mr.Value {
			h := b.Requant(b.Unary(mr.ULeakyReLU, dense(b, x, 0)), mult)
			return []mr.Value{b.Unary(mr.UNeg, b.Concat(b.DotProduct(row(b, 2, 2), h), b.DotProduct(row(b, 3, 2), h)))}
		}, []string{"matvec+leaky+requant", "matvec+neg"}, 11},
		{"activation-sunk-into-another-concat", func(b *mr.Builder, x mr.Value) []mr.Value {
			return []mr.Value{b.Concat(b.Unary(mr.UReLU, dense(b, x, 0)), b.Unary(mr.UReLU, dense(b, x, 2)))}
		}, []string{"matvec+relu", "matvec+relu"}, 11},
		{"shared-activation", func(b *mr.Builder, x mr.Value) []mr.Value {
			a := b.Unary(mr.UReLU, dense(b, x, 0))
			return []mr.Value{b.Requant(a, mult), b.Reduce(mr.RMax, a)}
		}, []string{"matvec+relu", "requant", "redmax"}, 12},
		{"activation-is-a-declared-output", func(b *mr.Builder, x mr.Value) []mr.Value {
			a := b.Unary(mr.UReLU, dense(b, x, 0))
			return []mr.Value{a, b.Requant(a, mult)}
		}, []string{"matvec+relu", "requant"}, 11},
		{"layer-is-a-declared-output", func(b *mr.Builder, x mr.Value) []mr.Value {
			l := dense(b, x, 0)
			return []mr.Value{l, b.Requant(b.Unary(mr.UReLU, l), mult)}
		}, []string{"matvec", "relu", "requant"}, 13},
		{"rescale-before-activation", func(b *mr.Builder, x mr.Value) []mr.Value {
			return []mr.Value{b.Unary(mr.UReLU, b.Requant(dense(b, x, 0), mult))}
		}, []string{"matvec+requant", "relu"}, 11},
		{"two-activations", func(b *mr.Builder, x mr.Value) []mr.Value {
			return []mr.Value{b.Unary(mr.UNeg, b.Unary(mr.UReLU, dense(b, x, 0)))}
		}, []string{"matvec+relu", "neg"}, 11},
		{"table-activation", func(b *mr.Builder, x mr.Value) []mr.Value {
			return []mr.Value{b.ApplyLUT(dense(b, x, 0), &mr.LUT{Mult: mult})}
		}, []string{"matvec", "lut"}, 11},
	} {
		b := mr.NewBuilder(tc.name)
		b.Output(tc.f(b, b.Input("x", 7))...)
		g, err := b.Build()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		p, err := sched.Compile(g, cgra.DefaultGrid())
		if err != nil {
			t.Fatalf("Compile(%s): %v", tc.name, err)
		}
		if got := mnemonics(p); !slices.Equal(got, tc.want) {
			t.Errorf("%s: tape is %v, want %v", tc.name, got, tc.want)
		}
		// A node fused away holds no arena block.
		if got := sched.Verify(p).Arena / p.MaxBatch(); got != tc.lanes {
			t.Errorf("%s: the arena holds %d lanes a packet, want %d", tc.name, got, tc.lanes)
		}
	}
}

// mnemonics lists a tape's instructions in issue order.
func mnemonics(p *sched.Program) []string {
	var m []string
	for pc := range p.Code() {
		m = append(m, p.Code()[pc].Mnemonic())
	}
	return m
}

// TestImageSums: whatever the graph and whatever was pushed, an image's row
// sums are those of its own lanes — sums[ins.Sum+r] is min(sum|w|, 1<<31) over
// the lanes row r of matvec ins reads, every row of every matvec has one, and
// there are no others — on the image an install builds and on the image of a
// push.
func TestImageSums(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	mult, err := fixed.NewMultiplier(0.37)
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, p *sched.Program) (rows int) {
		t.Helper()
		lanes, sums := p.Image().Lanes(), p.Image().Sums()
		for _, ins := range p.Code() {
			if ins.Op != sched.OpMatVec {
				continue
			}
			if ins.Sum != rows {
				t.Fatalf("%s: a matvec's sums start at %d, the rows before it end at %d", name, ins.Sum, rows)
			}
			for r := 0; r < ins.W; r++ {
				var want int64
				for _, w := range lanes[ins.Rows[r].Off : ins.Rows[r].Off+ins.Rows[r].W] {
					want += magnitude(w)
				}
				if want = min(want, math.MaxInt32+1); sums[ins.Sum+r] != want {
					t.Fatalf("%s: row %d of the matvec at sum %d holds %d, its lanes sum to %d", name, r, ins.Sum, sums[ins.Sum+r], want)
				}
			}
			rows += ins.W
		}
		if len(sums) != rows {
			t.Fatalf("%s: the image holds %d sums, the tape's matvecs have %d rows", name, len(sums), rows)
		}
		return rows
	}
	total := 0
	for i := 0; i < 60; i++ {
		// A stack of dense layers of random shape, weights drawn from int8
		// codes or from the saturating edge values, some rows windows of a
		// wider constant, some layers biased, some carrying an epilogue.
		name := fmt.Sprintf("stack%d", i)
		b := mr.NewBuilder(name)
		x := b.Input("x", 1+rng.Intn(9))
		for l := 0; l < 1+rng.Intn(3); l++ {
			lanes := []func(*rand.Rand, int) []int32{int8Lanes, drawLanes}[rng.Intn(2)]
			biased := rng.Intn(2) == 0
			neurons := make([]mr.Value, 1+rng.Intn(6))
			for r := range neurons {
				pad := rng.Intn(3)
				w := b.Slice(b.Const(fmt.Sprintf("w%d_%d", l, r), lanes(rng, x.Width()+pad)), pad, x.Width())
				neurons[r] = b.DotProduct(w, x)
				if biased {
					neurons[r] = b.Map(mr.MAdd, neurons[r], b.Scalar(fmt.Sprintf("b%d_%d", l, r), int32(rng.Intn(512)-256)))
				}
			}
			x = b.Concat(neurons...)
			if rng.Intn(2) == 0 {
				x = b.Unary(mr.UnaryOp(rng.Intn(4)), x)
			}
			if rng.Intn(2) == 0 {
				x = b.Requant(x, mult)
			}
		}
		b.Output(x)
		g, err := b.Build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		p, err := sched.Compile(g, cgra.DefaultGrid())
		if err != nil {
			t.Fatalf("Compile(%s): %v", name, err)
		}
		total += check(name+" as installed", p)
		pushWeights(t, g, rng)
		reimage(t, p, g)
		check(name+" after a push", p)
	}
	if total == 0 {
		t.Fatal("no random stack compiled to a matvec")
	}
}

func lstmGraph(t *testing.T) *mr.Graph {
	t.Helper()
	g, err := lower.LSTMStep(ml.NewLSTM(4, 32, 5, rand.New(rand.NewSource(7))), fixed.NewQuantizer(1), "lstm")
	if err != nil {
		t.Fatal(err)
	}
	return g
}
