package graphcheck_test

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"taurus/internal/cgra"
	"taurus/internal/dataset"
	"taurus/internal/fixed"
	"taurus/internal/graphcheck"
	"taurus/internal/lower"
	mr "taurus/internal/mapreduce"
	"taurus/internal/ml"
	"taurus/internal/tensor"
)

// mustMult builds a multiplier or fails the test.
func mustMult(t testing.TB, f float64) fixed.Multiplier {
	t.Helper()
	m, err := fixed.NewMultiplier(f)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// assertClean verifies g and fails on any error-severity finding.
func assertClean(t *testing.T, g *mr.Graph) *graphcheck.Report {
	t.Helper()
	rep := graphcheck.Verify(g)
	if !rep.OK() {
		t.Fatalf("graph %q rejected:\n%s", g.Name, rep)
	}
	for _, f := range rep.Findings {
		if f.Check == graphcheck.CheckDead {
			t.Errorf("graph %q has dead nodes: %s", g.Name, f)
		}
	}
	return rep
}

// Every lowering the repo ships must pass the verifier with no errors and
// no dead nodes — the acceptance bar for wiring graphcheck into the push
// paths.
func TestDNNLoweringVerifiesClean(t *testing.T) {
	rep := assertClean(t, dnnGraph(t))
	if rep.WeightBytes == 0 || rep.LUTCount == 0 {
		t.Errorf("census missed DNN storage: %+v", rep)
	}
}

func TestSVMLoweringVerifiesClean(t *testing.T) { assertClean(t, svmGraph(t)) }

func TestKMeansLoweringVerifiesClean(t *testing.T) { assertClean(t, kmeansGraph(t)) }

func TestLSTMLoweringVerifiesClean(t *testing.T) { assertClean(t, lstmGraph(t)) }

// dnnGraph lowers the anomaly DNN (6-12-6-3-1), trained briefly.
func dnnGraph(t testing.TB) *mr.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(100))
	gen, err := dataset.NewAnomalyGenerator(dataset.DefaultAnomalyConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	X, y := dataset.Split(gen.Records(600))
	n := ml.NewDNN([]int{6, 12, 6, 3, 1}, ml.ReLU, ml.Sigmoid, rng)
	tr := ml.NewTrainer(n, ml.SGDConfig{LearningRate: 0.05, Momentum: 0.9, BatchSize: 32, Epochs: 15}, rng)
	tr.Fit(X, y)
	q, err := ml.Quantize(n, X[:200])
	if err != nil {
		t.Fatal(err)
	}
	g, err := lower.DNN(q, "anomaly-dnn")
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// untrainedDNN lowers a freshly initialised DNN of the given layer sizes,
// quantised against uniform inputs in [-1, 1).
func untrainedDNN(t testing.TB, sizes []int) *mr.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(104))
	X := make([]tensor.Vec, 64)
	for i := range X {
		X[i] = make(tensor.Vec, sizes[0])
		for j := range X[i] {
			X[i][j] = rng.Float32()*2 - 1
		}
	}
	q, err := ml.Quantize(ml.NewDNN(sizes, ml.ReLU, ml.Sigmoid, rng), X)
	if err != nil {
		t.Fatal(err)
	}
	g, err := lower.DNN(q, fmt.Sprint("dnn", sizes))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func svmGraph(t testing.TB) *mr.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(102))
	gen, err := dataset.NewAnomalyGenerator(dataset.AnomalyConfig{
		NumFeatures: 8, AnomalyFraction: 0.4, Separation: 1.4,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	X, y := dataset.SplitPM(gen.Records(250))
	svm, err := ml.TrainSVM(X, y, ml.DefaultSVMConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	var flat []float32
	for _, x := range X {
		flat = append(flat, x...)
	}
	g, err := lower.SVM(svm, fixed.QuantizerFor(flat), 16, "anomaly-svm")
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func kmeansGraph(t testing.TB) *mr.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(101))
	gen, err := dataset.NewIoTGenerator(dataset.KMeansIoTConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	X, _ := gen.Samples(400)
	km, err := ml.TrainKMeans(X, 5, 50, rng)
	if err != nil {
		t.Fatal(err)
	}
	var flat []float32
	for _, x := range X {
		flat = append(flat, x...)
	}
	g, err := lower.KMeans(km, fixed.QuantizerFor(flat), "iot-kmeans")
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func lstmGraph(t testing.TB) *mr.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(103))
	l := ml.NewLSTM(4, 32, 5, rng)
	g, err := lower.LSTMStep(l, fixed.NewQuantizer(1), "indigo-lstm")
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// narrowOpts seeds every input with [-n, n] so brute-force enumeration
// over the same domain checks the transfer functions.
func narrowOpts(n int64) graphcheck.Options {
	return graphcheck.Options{
		InputRange: func(int, string) (graphcheck.Interval, bool) {
			return graphcheck.Interval{Lo: -n, Hi: n}, true
		},
	}
}

// TestMapTransferBruteForce checks every binary map operator's interval
// against exhaustive enumeration on a narrow domain: the computed interval
// must contain every reachable value (soundness) and its endpoints must be
// reached (tightness — these transfers are exact).
func TestMapTransferBruteForce(t *testing.T) {
	const n = 20
	for _, op := range []mr.MapOp{mr.MAdd, mr.MSub, mr.MMul, mr.MMin, mr.MMax} {
		b := mr.NewBuilder("map-" + op.String())
		x := b.Input("x", 1)
		y := b.Input("y", 1)
		z := b.Map(op, x, y)
		b.Output(z)
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		rep := graphcheck.VerifyWith(g, narrowOpts(n))
		if !rep.OK() {
			t.Fatalf("%v: rejected:\n%s", op, rep)
		}
		iv := rep.Ranges[z.ID()]
		seenLo, seenHi := int64(1)<<40, -int64(1)<<40
		for a := int32(-n); a <= n; a++ {
			for c := int32(-n); c <= n; c++ {
				got := int64(op.Apply(a, c))
				if !iv.Contains(got) {
					t.Fatalf("%v: %d op %d = %d outside %s", op, a, c, got, iv)
				}
				if got < seenLo {
					seenLo = got
				}
				if got > seenHi {
					seenHi = got
				}
			}
		}
		if seenLo != iv.Lo || seenHi != iv.Hi {
			t.Errorf("%v: interval %s not tight (reached [%d, %d])", op, iv, seenLo, seenHi)
		}
	}
}

func TestUnaryTransferBruteForce(t *testing.T) {
	const n = 50
	for _, op := range []mr.UnaryOp{mr.UReLU, mr.ULeakyReLU, mr.UNeg, mr.UAbs} {
		b := mr.NewBuilder("unary-" + op.String())
		x := b.Input("x", 1)
		z := b.Unary(op, x)
		b.Output(z)
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		rep := graphcheck.VerifyWith(g, narrowOpts(n))
		if !rep.OK() {
			t.Fatalf("%v: rejected:\n%s", op, rep)
		}
		iv := rep.Ranges[z.ID()]
		seenLo, seenHi := int64(1)<<40, -int64(1)<<40
		for a := int32(-n); a <= n; a++ {
			got := int64(op.Apply(a))
			if !iv.Contains(got) {
				t.Fatalf("%v(%d) = %d outside %s", op, a, got, iv)
			}
			if got < seenLo {
				seenLo = got
			}
			if got > seenHi {
				seenHi = got
			}
		}
		if seenLo != iv.Lo || seenHi != iv.Hi {
			t.Errorf("%v: interval %s not tight (reached [%d, %d])", op, iv, seenLo, seenHi)
		}
	}
}

func TestRequantScaleLUTTransferBruteForce(t *testing.T) {
	mult := mustMult(t, 0.37)
	var lut mr.LUT
	lut.Mult = mustMult(t, 0.25)
	rng := rand.New(rand.NewSource(7))
	for i := range lut.Table {
		lut.Table[i] = int8(rng.Intn(256) - 128)
	}

	b := mr.NewBuilder("rescale")
	x := b.Input("x", 1)
	rq := b.Requant(x, mult)
	sc := b.Scale(x, mult)
	lu := b.ApplyLUT(x, &lut)
	b.Output(rq, sc, lu)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	const n = 3000
	rep := graphcheck.VerifyWith(g, narrowOpts(n))
	if !rep.OK() {
		t.Fatalf("rejected:\n%s", rep)
	}
	ivRq := rep.Ranges[rq.ID()]
	ivSc := rep.Ranges[sc.ID()]
	ivLu := rep.Ranges[lu.ID()]
	for a := int32(-n); a <= n; a++ {
		if got := int64(mult.ApplySat8(a)); !ivRq.Contains(got) {
			t.Fatalf("requant(%d) = %d outside %s", a, got, ivRq)
		}
		if got := int64(mult.Apply(a)); !ivSc.Contains(got) {
			t.Fatalf("scale(%d) = %d outside %s", a, got, ivSc)
		}
		if got := int64(lut.Apply(a)); !ivLu.Contains(got) {
			t.Fatalf("lut(%d) = %d outside %s", a, got, ivLu)
		}
	}
}

func TestReduceTransferBruteForce(t *testing.T) {
	const width, n = 4, 9
	for _, op := range []mr.ReduceOp{mr.RAdd, mr.RMin, mr.RMax, mr.RArgMin, mr.RArgMax} {
		b := mr.NewBuilder("reduce-" + op.String())
		x := b.Input("x", width)
		z := b.Reduce(op, x)
		b.Output(z)
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		rep := graphcheck.VerifyWith(g, narrowOpts(n))
		if !rep.OK() {
			t.Fatalf("%v: rejected:\n%s", op, rep)
		}
		iv := rep.Ranges[z.ID()]
		rng := rand.New(rand.NewSource(11))
		vals := make([]int32, width)
		for trial := 0; trial < 20000; trial++ {
			for i := range vals {
				vals[i] = int32(rng.Intn(2*n+1) - n)
			}
			if got := int64(op.Apply(vals)); !iv.Contains(got) {
				t.Fatalf("%v(%v) = %d outside %s", op, vals, got, iv)
			}
		}
	}
}

// overflowGraph is a chain whose worst case exceeds the Fix32 accumulator;
// sq is the squaring map that saturates.
func overflowGraph(t testing.TB) (g *mr.Graph, sq mr.NodeID) {
	b := mr.NewBuilder("overflow")
	x := b.Input("x", 4)
	big := b.Const("big", []int32{1 << 20, 1 << 20, 1 << 20, 1 << 20})
	wide := b.Map(mr.MMul, x, big) // |wide| <= 2^27, fine
	sqv := b.Map(mr.MMul, wide, wide)
	b.Output(b.Reduce(mr.RAdd, sqv))
	return mustBuild(t, b), sqv.ID()
}

// scaleWrapGraph ends in a KScale whose int32 result can wrap.
func scaleWrapGraph(t testing.TB) (g *mr.Graph, sc mr.NodeID) {
	b := mr.NewBuilder("scale-wrap")
	x := b.Input("x", 1)
	c := b.Scalar("c", 1<<23)
	wide := b.Map(mr.MMul, x, c)         // up to 2^30, fits
	scv := b.Scale(wide, mustMult(t, 4)) // up to 2^32: wraps
	b.Output(scv)
	return mustBuild(t, b), scv.ID()
}

// requantClipsGraph ends in a requant whose every feasible value clips.
func requantClipsGraph(t testing.TB) *mr.Graph {
	b := mr.NewBuilder("requant-pinned")
	x := b.Input("x", 1)
	shifted := b.Map(mr.MAdd, x, b.Scalar("bias", 10000))
	b.Output(b.Requant(shifted, mustMult(t, 1.0)))
	return mustBuild(t, b)
}

// lutOutsideGraph feeds a LUT an index that always lands past the table's
// top end (lane 1) beside one that lands inside it (lane 0).
func lutOutsideGraph(t testing.TB) (g *mr.Graph, lut mr.NodeID) {
	var table mr.LUT
	table.Mult = mustMult(t, 1.0)
	for i := range table.Table {
		table.Table[i] = int8(i - mr.LUTSize/2)
	}
	b := mr.NewBuilder("lut-outside")
	x := b.Input("x", 2)
	shifted := b.Map(mr.MAdd, x, b.Const("bias", []int32{0, 10000}))
	lu := b.ApplyLUT(shifted, &table)
	b.Output(lu)
	return mustBuild(t, b), lu.ID()
}

func mustBuild(t testing.TB, b *mr.Builder) *mr.Graph {
	t.Helper()
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestOverflowGraphRejected: a chain whose worst case exceeds the Fix32
// accumulator must be rejected, naming the offending node.
func TestOverflowGraphRejected(t *testing.T) {
	g, sq := overflowGraph(t)
	rep := graphcheck.Verify(g)
	if rep.OK() {
		t.Fatalf("overflow graph accepted:\n%s", rep)
	}
	err := rep.Err()
	if !errors.Is(err, graphcheck.ErrBadGraph) {
		t.Fatalf("Err() = %v, want ErrBadGraph", err)
	}
	if !strings.Contains(err.Error(), fmt.Sprintf("node %d", sq)) {
		t.Errorf("error %q does not name node %d (the squaring map)", err, sq)
	}
	if !strings.Contains(err.Error(), "saturate") {
		t.Errorf("error %q does not explain the saturation", err)
	}
}

// TestScaleWrapRejected: KScale's multiplier truncates to int32 instead of
// saturating; a result that can exceed the range is flagged as a wrap.
func TestScaleWrapRejected(t *testing.T) {
	g, sc := scaleWrapGraph(t)
	rep := graphcheck.Verify(g)
	if rep.OK() {
		t.Fatalf("wrapping scale accepted:\n%s", rep)
	}
	if err := rep.Err(); !strings.Contains(err.Error(), fmt.Sprintf("node %d", sc)) ||
		!strings.Contains(err.Error(), "wraps") {
		t.Errorf("error %q does not name the wrapping scale node %d", err, sc)
	}
}

// TestRequantAlwaysClipsRejected: a requant whose every feasible value
// clips produces a constant lane — a miscalibrated multiplier.
func TestRequantAlwaysClipsRejected(t *testing.T) {
	rep := graphcheck.Verify(requantClipsGraph(t))
	if rep.OK() {
		t.Fatalf("always-clipping requant accepted:\n%s", rep)
	}
	if err := rep.Err(); !strings.Contains(err.Error(), "clips") {
		t.Errorf("error %q does not explain the clip", err)
	}
}

// TestLUTOutsideDomainWarns: a LUT lane whose every feasible index clamps to
// a table end is degenerate but warned, not rejected — named at that lane.
func TestLUTOutsideDomainWarns(t *testing.T) {
	g, lu := lutOutsideGraph(t)
	rep := graphcheck.Verify(g)
	if !rep.OK() {
		t.Fatalf("out-of-domain LUT must warn, not reject:\n%s", rep)
	}
	if len(rep.Findings) != 1 {
		t.Fatalf("findings = %v, want the one LUT warning", rep.Findings)
	}
	f := rep.Findings[0]
	if f.Node != lu || f.Severity != graphcheck.SevWarning || f.Check != graphcheck.CheckRange ||
		!strings.Contains(f.Msg, "lane 1 ") || !strings.Contains(f.Msg, "outside the table domain") {
		t.Errorf("finding %s is not the lane-1 out-of-domain warning on node %d", f, lu)
	}
}

func TestDeadNodeWarning(t *testing.T) {
	b := mr.NewBuilder("deadwood")
	x := b.Input("x", 4)
	live := b.Reduce(mr.RAdd, x)
	dead := b.Unary(mr.UAbs, x)
	b.Output(live)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	rep := graphcheck.Verify(g)
	if !rep.OK() {
		t.Fatalf("dead node must warn, not reject:\n%s", rep)
	}
	if len(rep.DeadNodes) != 1 || rep.DeadNodes[0] != dead.ID() {
		t.Fatalf("DeadNodes = %v, want [%d]", rep.DeadNodes, dead.ID())
	}
	found := false
	for _, f := range rep.Findings {
		if f.Check == graphcheck.CheckDead && f.Node == dead.ID() && f.Severity == graphcheck.SevWarning {
			found = true
		}
	}
	if !found {
		t.Errorf("no dead-node warning in findings: %v", rep.Findings)
	}
}

func TestStorageOverflowRejected(t *testing.T) {
	spec := cgraSmall()
	// One MU on the small grid holds MUBanks*MUEntries bytes; ask for more.
	w := 16*1024*spec.MUCount() + 1
	b := mr.NewBuilder("too-fat")
	c := b.Const("w", make([]int32, w))
	b.Output(c)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	rep := graphcheck.VerifyWith(g, graphcheck.Options{Grid: spec})
	if rep.OK() {
		t.Fatalf("oversized weights accepted:\n%s", rep)
	}
	if err := rep.Err(); !strings.Contains(err.Error(), "storage does not fit") {
		t.Errorf("error %q is not the storage finding", err)
	}
}

func TestComputeOversubscriptionWarns(t *testing.T) {
	spec := cgraSmall()
	b := mr.NewBuilder("busy")
	x := b.Input("x", 4)
	v := x
	for i := 0; i < spec.CUCount()*spec.Stages+4; i++ {
		v = b.Unary(mr.UAbs, v)
	}
	b.Output(v)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	rep := graphcheck.VerifyWith(g, graphcheck.Options{Grid: spec})
	if !rep.OK() {
		t.Fatalf("oversubscription must warn, not reject:\n%s", rep)
	}
	found := false
	for _, f := range rep.Findings {
		if f.Check == graphcheck.CheckResource && f.Severity == graphcheck.SevWarning {
			found = true
		}
	}
	if !found {
		t.Errorf("no oversubscription warning: %v", rep.Findings)
	}
}

// cgraSmall is a tiny grid (3 CUs, 1 MU) so resource limits are cheap to hit.
func cgraSmall() cgra.GridSpec {
	return cgra.GridSpec{Rows: 2, Cols: 2, Lanes: 4, Stages: 2, CUMURatio: 3, Precision: fixed.Fix8}
}

func TestVerifyInvalidGraph(t *testing.T) {
	g := &mr.Graph{Name: "no-outputs", Nodes: []*mr.Node{
		{ID: 0, Kind: mr.KInput, Width: 4, Name: "x"},
	}, Inputs: []mr.NodeID{0}}
	rep := graphcheck.Verify(g)
	if rep.Valid || rep.OK() {
		t.Fatalf("invalid graph accepted: %+v", rep)
	}
	if err := rep.Err(); !errors.Is(err, graphcheck.ErrBadGraph) {
		t.Errorf("Err() = %v, want ErrBadGraph", err)
	}
}

func TestCompatible(t *testing.T) {
	build := func(mutate func(*mr.Graph)) *mr.Graph {
		b := mr.NewBuilder("m")
		x := b.Input("x", 4)
		w := b.Const("w", []int32{1, 2, 3, 4})
		d := b.DotProduct(w, x)
		rq := b.Requant(d, mustMult(t, 0.01))
		b.Output(rq)
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		if mutate != nil {
			mutate(g)
		}
		return g
	}
	old := build(nil)

	if err := graphcheck.Compatible(old, build(func(g *mr.Graph) {
		g.Nodes[1].Const = []int32{9, 8, 7, 6} // weight-only
		g.Nodes[3].Mult = mustMult(t, 0.02)
	})); err != nil {
		t.Errorf("weight-only update rejected: %v", err)
	}

	cases := []struct {
		name   string
		mutate func(*mr.Graph)
		want   string
	}{
		{"kind", func(g *mr.Graph) { g.Nodes[2].Kind = mr.KUnary }, "kind"},
		{"width", func(g *mr.Graph) {
			g.Nodes[0].Width = 5
		}, "width"},
		{"rewire", func(g *mr.Graph) { g.Nodes[2].Args[0] = 0 }, "rewired"},
		{"op", func(g *mr.Graph) { g.Nodes[2].Map = mr.MAdd }, "map op"},
		{"outputs", func(g *mr.Graph) { g.Outputs[0] = 2 }, "outputs[0]"},
	}
	for _, tc := range cases {
		err := graphcheck.Compatible(old, build(tc.mutate))
		if !errors.Is(err, graphcheck.ErrIncompatible) {
			t.Errorf("%s: err = %v, want ErrIncompatible", tc.name, err)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}

	if err := graphcheck.Compatible(old, nil); !errors.Is(err, graphcheck.ErrIncompatible) {
		t.Errorf("nil graph: err = %v", err)
	}
	if err := graphcheck.Compatible(old, build(func(g *mr.Graph) {
		g.Nodes = g.Nodes[:len(g.Nodes)-1]
		g.Outputs = []mr.NodeID{2}
	})); !errors.Is(err, graphcheck.ErrIncompatible) {
		t.Errorf("node count: err = %v", err)
	}
}

func TestReportString(t *testing.T) {
	b := mr.NewBuilder("pretty")
	x := b.Input("x", 4)
	b.Output(b.Reduce(mr.RAdd, x))
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := graphcheck.Verify(g).String()
	for _, want := range []string{"pretty", "OK", "resources:", "findings:"} {
		if !strings.Contains(s, want) {
			t.Errorf("report %q missing %q", s, want)
		}
	}
}
