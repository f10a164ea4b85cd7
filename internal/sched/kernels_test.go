package sched_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"taurus/internal/cgra"
	"taurus/internal/fixed"
	mr "taurus/internal/mapreduce"
	"taurus/internal/sched"
)

// operandKind says where a kernel's argument lives: in a graph node's Const
// slice (read in place, the same lanes every batch slot) or in the tape's
// arena (a window that moves by a stride per slot).
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

// pushWeights overwrites everything a weight update may change — constants,
// multipliers, LUT contents — in place on the graph the tape aliases, the way
// Device.UpdateWeights does.
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
// sweeps: a kernel may hoist where its operands live out of the slot loop,
// never what they hold.
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
			sweepAgainstEval(t, g, p, rng, fill, "after a weight push")
		}
	}
	for op := sched.OpAdd; op <= sched.OpSqDist; op++ {
		if !emitted[op] {
			t.Errorf("no graph of the matrix compiled to opcode %v", op)
		}
	}
}
