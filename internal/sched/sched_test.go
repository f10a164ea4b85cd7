package sched_test

import (
	"math/rand"
	"strings"
	"testing"

	"taurus/internal/cgra"
	"taurus/internal/dataset"
	"taurus/internal/fixed"
	"taurus/internal/lower"
	mr "taurus/internal/mapreduce"
	"taurus/internal/ml"
	"taurus/internal/sched"
	"taurus/internal/tensor"
)

// randInputs draws int8-domain feature codes, the domain the quantised
// lowerings run on (saturation behaviour is still exercised by the
// hand-built edge graphs below, which feed extreme int32 values).
func randInputs(rng *rand.Rand, g *mr.Graph) [][]int32 {
	ins := make([][]int32, len(g.Inputs))
	for i, id := range g.Inputs {
		v := make([]int32, g.Node(id).Width)
		for k := range v {
			v[k] = int32(int8(rng.Intn(256)))
		}
		ins[i] = v
	}
	return ins
}

// diffTest asserts Program.Run and Program.RunBatch are bit-equal with the
// reference Graph.Eval over several random input draws.
func diffTest(t *testing.T, g *mr.Graph, draws ...[][]int32) {
	t.Helper()
	p, err := sched.Compile(g, cgra.DefaultGrid())
	if err != nil {
		t.Fatalf("Compile(%s): %v", g.Name, err)
	}
	// Single-packet Run, one draw at a time.
	for d, ins := range draws {
		want, err := g.Eval(ins...)
		if err != nil {
			t.Fatalf("Eval(%s) draw %d: %v", g.Name, d, err)
		}
		for i := range ins {
			copy(p.In(i), ins[i])
		}
		p.Run()
		for oi := range want {
			got := p.Out(oi)
			if len(got) != len(want[oi]) {
				t.Fatalf("%s draw %d output %d: width %d, want %d", g.Name, d, oi, len(got), len(want[oi]))
			}
			for k := range got {
				if got[k] != want[oi][k] {
					t.Fatalf("%s draw %d output %d lane %d: Run gives %d, Eval gives %d",
						g.Name, d, oi, k, got[k], want[oi][k])
				}
			}
		}
	}
	// All draws at once through RunBatch.
	n := len(draws)
	if n > p.MaxBatch() {
		n = p.MaxBatch()
	}
	if n == 0 {
		return
	}
	for j := 0; j < n; j++ {
		for i := range draws[j] {
			copy(p.InAt(i, j), draws[j][i])
		}
	}
	p.RunBatch(n)
	for j := 0; j < n; j++ {
		want, err := g.Eval(draws[j]...)
		if err != nil {
			t.Fatal(err)
		}
		for oi := range want {
			got := p.OutAt(oi, j)
			for k := range got {
				if got[k] != want[oi][k] {
					t.Fatalf("%s slot %d output %d lane %d: RunBatch gives %d, Eval gives %d",
						g.Name, j, oi, k, got[k], want[oi][k])
				}
			}
		}
	}
}

func drawsFor(rng *rand.Rand, g *mr.Graph, n int) [][][]int32 {
	out := make([][][]int32, n)
	for i := range out {
		out[i] = randInputs(rng, g)
	}
	return out
}

// modelGraphs trains the three deployable families on synthetic anomaly
// data and lowers them, mirroring the production LoadModel path, and lowers
// an LSTM step (the fourth family taurus-compile checks; no device loads it).
func modelGraphs(t testing.TB) map[string]*mr.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	gen, err := dataset.NewAnomalyGenerator(dataset.DefaultAnomalyConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	X, y := dataset.Split(gen.Records(400))
	out := map[string]*mr.Graph{}

	n := ml.NewDNN([]int{6, 12, 6, 3, 1}, ml.ReLU, ml.Sigmoid, rng)
	ml.NewTrainer(n, ml.SGDConfig{LearningRate: 0.05, Momentum: 0.9, BatchSize: 32, Epochs: 4}, rng).Fit(X, y)
	q, err := ml.Quantize(n, X[:100])
	if err != nil {
		t.Fatal(err)
	}
	if out["dnn"], err = lower.DNN(q, "dnn"); err != nil {
		t.Fatal(err)
	}

	km, err := ml.TrainKMeans(X, 4, 20, rng)
	if err != nil {
		t.Fatal(err)
	}
	inQ := fixed.QuantizerFor(flatten(X))
	if out["kmeans"], err = lower.KMeans(km, inQ, "kmeans"); err != nil {
		t.Fatal(err)
	}

	Xpm, ypm := dataset.SplitPM(gen.Records(400))
	svm, err := ml.TrainSVM(Xpm, ypm, ml.DefaultSVMConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	if out["svm"], err = lower.SVM(svm, inQ, 8, "svm"); err != nil {
		t.Fatal(err)
	}

	l := ml.NewLSTM(4, 32, 5, rng)
	if out["lstm"], err = lower.LSTMStep(l, fixed.NewQuantizer(1), "lstm"); err != nil {
		t.Fatal(err)
	}
	return out
}

func flatten(X []tensor.Vec) []float32 {
	var out []float32
	for _, x := range X {
		out = append(out, x...)
	}
	return out
}

// TestModelsBitExact is the headline contract: the compiled tape matches
// the reference semantics on every lowered model family.
func TestModelsBitExact(t *testing.T) { eachDotKernel(t, modelsBitExact) }

func modelsBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for name, g := range modelGraphs(t) {
		t.Run(name, func(t *testing.T) {
			diffTest(t, g, drawsFor(rng, g, 16)...)
		})
	}
}

// TestMicrobenchGraphs covers the kernel zoo (inner products, convolutions,
// activation chains, LUTs) from the lowering package's microbenchmarks.
func TestMicrobenchGraphs(t *testing.T) { eachDotKernel(t, microbenchGraphs) }

func microbenchGraphs(t *testing.T) {
	graphs, err := lower.Microbenchmarks(16)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	for name, g := range graphs {
		t.Run(name, func(t *testing.T) {
			diffTest(t, g, drawsFor(rng, g, 8)...)
		})
	}
}

// TestEdgeGraphs feeds hand-built graphs that exercise every opcode,
// broadcast operands, slices and concats of constants, reduce tie-breaking
// and saturation — with extreme int32 inputs, not just the int8 domain — and
// the dots that are no matvec row. Each verifies clean and matches Graph.Eval
// at every batch fill; the tapes of the dot shapes are pinned.
func TestEdgeGraphs(t *testing.T) { eachDotKernel(t, edgeGraphs) }

func edgeGraphs(t *testing.T) {
	mult, err := fixed.NewMultiplier(0.37)
	if err != nil {
		t.Fatal(err)
	}
	lut := &mr.LUT{Mult: mult}
	for i := range lut.Table {
		lut.Table[i] = int8(i*31 + 7)
	}

	build := func(name string, f func(b *mr.Builder)) *mr.Graph {
		b := mr.NewBuilder(name)
		f(b)
		g, err := b.Build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return g
	}

	graphs := []*mr.Graph{
		build("allmaps", func(b *mr.Builder) {
			x := b.Input("x", 8)
			c := b.Const("c", []int32{3, -3, 1 << 30, -(1 << 30), 0, 7, -7, 42})
			s := b.Scalar("s", -5)
			var outs []mr.Value
			for _, op := range []mr.MapOp{mr.MAdd, mr.MSub, mr.MMul, mr.MMin, mr.MMax} {
				outs = append(outs, b.Map(op, x, c), b.Map(op, x, s))
			}
			b.Output(b.Concat(outs...))
		}),
		build("unaries", func(b *mr.Builder) {
			x := b.Input("x", 8)
			b.Output(b.Concat(
				b.Unary(mr.UReLU, x), b.Unary(mr.ULeakyReLU, x),
				b.Unary(mr.UNeg, x), b.Unary(mr.UAbs, x)))
		}),
		build("reduces-ties", func(b *mr.Builder) {
			// Duplicate extremes force the tie-break (first index wins).
			c := b.Const("c", []int32{5, -9, 5, -9, 3, 3})
			x := b.Input("x", 6)
			m := b.Map(mr.MMin, x, c)
			b.Output(b.Concat(
				b.Reduce(mr.RAdd, m), b.Reduce(mr.RMin, m), b.Reduce(mr.RMax, m),
				b.Reduce(mr.RArgMin, m), b.Reduce(mr.RArgMax, m)))
		}),
		build("slices", func(b *mr.Builder) {
			x := b.Input("x", 10)
			c := b.Const("w", []int32{9, 8, 7, 6, 5, 4, 3, 2, 1, 0})
			win := b.Slice(x, 2, 4)
			cwin := b.Slice(c, 3, 4)
			b.Output(b.Reduce(mr.RAdd, b.Map(mr.MMul, win, cwin)), b.Slice(cwin, 1, 2))
		}),
		build("dot-self", func(b *mr.Builder) {
			x := b.Input("x", 8)
			b.Output(b.Reduce(mr.RAdd, b.Map(mr.MMul, x, x)))
		}),
		build("sqdist", func(b *mr.Builder) {
			x := b.Input("x", 8)
			c := b.Const("centroid", []int32{1, -2, 3, -4, 5, -6, 7, -8})
			d := b.Map(mr.MSub, x, c)
			b.Output(b.Reduce(mr.RAdd, b.Map(mr.MMul, d, d)))
		}),
		build("shared-product", func(b *mr.Builder) {
			// The product has two consumers, so dot fusion must NOT fire.
			x := b.Input("x", 4)
			c := b.Const("c", []int32{2, 3, 4, 5})
			m := b.Map(mr.MMul, x, c)
			b.Output(b.Reduce(mr.RAdd, m), b.Reduce(mr.RMax, m))
		}),
		build("requant-scale-lut", func(b *mr.Builder) {
			x := b.Input("x", 6)
			acc := b.Map(mr.MMul, x, x)
			b.Output(b.Concat(b.Requant(acc, mult), b.Scale(acc, mult), b.ApplyLUT(acc, lut)))
		}),
		build("const-output", func(b *mr.Builder) {
			x := b.Input("x", 2)
			b.Output(b.Const("k", []int32{11, -22, 33}), b.Reduce(mr.RAdd, x))
		}),
		build("dot-two-inputs", func(b *mr.Builder) {
			x, y := b.Input("x", 8), b.Input("y", 8)
			b.Output(b.Reduce(mr.RAdd, b.Map(mr.MMul, x, y)))
		}),
		build("dot-self-two-inputs", func(b *mr.Builder) {
			x, y := b.Input("x", 8), b.Input("y", 8)
			b.Output(b.Reduce(mr.RAdd, b.Map(mr.MMul, x, x)), y)
		}),
		build("dot-two-inputs-biased", func(b *mr.Builder) {
			x, y := b.Input("x", 8), b.Input("y", 8)
			b.Output(b.Map(mr.MAdd, b.Reduce(mr.RAdd, b.Map(mr.MMul, x, y)), b.Scalar("b", -7)))
		}),
		build("row-sum-read-twice", func(b *mr.Builder) {
			// The sum has a second reader, so no bias folds into the row.
			x := b.Input("x", 8)
			s := b.DotProduct(b.Const("w", []int32{3, -1, 4, -1, 5, -9, 2, -6}), x)
			b.Output(b.Map(mr.MAdd, s, b.Scalar("b", 5)), b.Unary(mr.UNeg, s))
		}),
	}
	conv, err := lower.Conv1D(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	graphs = append(graphs, conv)
	tapes := map[string]string{
		"dot-self":              "mul sum",
		"dot-two-inputs":        "mul sum",
		"dot-self-two-inputs":   "mul sum",
		"dot-two-inputs-biased": "mul sum add",
		"row-sum-read-twice":    "matvec add neg",
		conv.Name:               strings.TrimSpace(strings.Repeat("matvec ", 8)),
	}

	rng := rand.New(rand.NewSource(17))
	extreme := []int32{0, 1, -1, 127, -128, 1<<31 - 1, -(1 << 31), 1 << 16, -(1 << 16)}
	for _, g := range graphs {
		t.Run(g.Name, func(t *testing.T) {
			draws := drawsFor(rng, g, 6)
			// Add draws of extreme values to hit the saturation paths.
			for trial := 0; trial < 6; trial++ {
				ins := make([][]int32, len(g.Inputs))
				for i, id := range g.Inputs {
					v := make([]int32, g.Node(id).Width)
					for k := range v {
						v[k] = extreme[rng.Intn(len(extreme))]
					}
					ins[i] = v
				}
				draws = append(draws, ins)
			}
			diffTest(t, g, draws...)
			p, err := sched.Compile(g, cgra.DefaultGrid())
			if err != nil {
				t.Fatal(err)
			}
			if rep := sched.Verify(p); len(rep.Findings) != 0 {
				t.Fatalf("findings on a faithful tape:\n%s", rep)
			}
			if want, ok := tapes[g.Name]; ok {
				if got := strings.Join(mnemonics(p), " "); got != want {
					t.Errorf("tape is %q, want %q", got, want)
				}
			}
			for fill := 1; fill <= p.MaxBatch(); fill++ {
				sweepAgainstEval(t, g, p, rng, fill, "")
			}
		})
	}
}

// TestWeightUpdateVisible proves the tape reads its weights from the image it
// is bound to: an image of the updated graph, swapped in the way
// UpdateWeights does, must change the compiled program's output without
// recompiling.
func TestWeightUpdateVisible(t *testing.T) {
	mult, err := fixed.NewMultiplier(0.5)
	if err != nil {
		t.Fatal(err)
	}
	lut := &mr.LUT{Mult: mult}
	for i := range lut.Table {
		lut.Table[i] = int8(i)
	}
	b := mr.NewBuilder("upd")
	x := b.Input("x", 4)
	w := b.Const("w", []int32{1, 2, 3, 4})
	dot := b.Reduce(mr.RAdd, b.Map(mr.MMul, x, w))
	b.Output(b.Concat(b.Requant(dot, mult), b.ApplyLUT(dot, lut)))
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	p, err := sched.Compile(g, cgra.DefaultGrid())
	if err != nil {
		t.Fatal(err)
	}
	in := []int32{10, 20, 30, 40}

	check := func(tag string) {
		t.Helper()
		want, err := g.Eval(in)
		if err != nil {
			t.Fatal(err)
		}
		copy(p.In(0), in)
		p.Run()
		got := p.Out(0)
		for k := range got {
			if got[k] != want[0][k] {
				t.Fatalf("%s: lane %d compiled %d, reference %d", tag, k, got[k], want[0][k])
			}
		}
	}
	check("before update")

	before := append([]int32(nil), p.Out(0)...)
	// The UpdateWeights contract: consts, LUT contents and multipliers are
	// copied out of the pushed graph into a new image.
	for _, n := range g.Nodes {
		switch n.Kind {
		case mr.KConst:
			copy(n.Const, []int32{4, 3, 2, 1})
		case mr.KRequant:
			m2, _ := fixed.NewMultiplier(0.9)
			n.Mult = m2
		case mr.KLUT:
			for i := range n.LUT.Table {
				n.LUT.Table[i] = int8(127 - i)
			}
		}
	}
	p.SetImage(p.Tape().NewImage(g))
	check("after update")
	same := true
	for k, v := range p.Out(0) {
		if v != before[k] {
			same = false
		}
	}
	if same {
		t.Fatal("weight update had no effect on compiled output")
	}
}

// TestScheduleLegality checks structural invariants of the bundle schedule
// on real model graphs: dependences respected, II and depth sane.
func TestScheduleLegality(t *testing.T) {
	for name, g := range modelGraphs(t) {
		s, err := sched.Plan(g, cgra.DefaultGrid())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s.II < 1 {
			t.Fatalf("%s: II %d", name, s.II)
		}
		for _, n := range g.Nodes {
			for _, a := range n.Args {
				if s.Start[n.ID] < s.Done[a] {
					t.Fatalf("%s: node %d starts at %d before arg %d finishes at %d",
						name, n.ID, s.Start[n.ID], a, s.Done[a])
				}
			}
			if s.Done[n.ID] > s.Depth {
				t.Fatalf("%s: node %d finishes at %d past depth %d", name, n.ID, s.Done[n.ID], s.Depth)
			}
		}
		cus := s.Spec.CUCount()
		if s.MaxBundle > cus {
			t.Fatalf("%s: bundle width %d exceeds %d CUs", name, s.MaxBundle, cus)
		}
		if occ := s.Occupancy(); occ < 0 || occ > 1 {
			t.Fatalf("%s: occupancy %f out of range", name, occ)
		}
	}
}

// TestZeroAlloc pins the steady-state allocation contract of the hot path.
func TestZeroAlloc(t *testing.T) {
	g := modelGraphs(t)["dnn"]
	p, err := sched.Compile(g, cgra.DefaultGrid())
	if err != nil {
		t.Fatal(err)
	}
	for i := range p.In(0) {
		p.In(0)[i] = int32(i - 3)
	}
	if avg := testing.AllocsPerRun(100, p.Run); avg != 0 {
		t.Fatalf("Run allocates %.1f objects per call", avg)
	}
	if avg := testing.AllocsPerRun(100, func() { p.RunBatch(p.MaxBatch()) }); avg != 0 {
		t.Fatalf("RunBatch allocates %.1f objects per call", avg)
	}
}

// TestCompileRejectsInvalid: the planner runs Validate first.
func TestCompileRejectsInvalid(t *testing.T) {
	g := &mr.Graph{Name: "bad", Nodes: []*mr.Node{{ID: 0, Kind: mr.KInput, Width: 0}}}
	if _, err := sched.Compile(g, cgra.DefaultGrid()); err == nil {
		t.Fatal("Compile accepted an invalid graph")
	}
	if _, err := sched.Plan(g, cgra.DefaultGrid()); err == nil {
		t.Fatal("Plan accepted an invalid graph")
	}
}
