package compiler

import (
	"math/rand"
	"testing"

	"taurus/internal/cgra"
	"taurus/internal/dataset"
	"taurus/internal/fixed"
	"taurus/internal/lower"
	mr "taurus/internal/mapreduce"
	"taurus/internal/ml"
	"taurus/internal/tensor"
)

// compileMicro compiles a named microbenchmark at width 16.
func compileMicro(t *testing.T, name string) *Result {
	t.Helper()
	suite, err := lower.Microbenchmarks(16)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Compile(suite[name], Options{})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return res
}

func TestInnerProductOperatingPoint(t *testing.T) {
	res := compileMicro(t, "InnerProduct")
	// Table 6: the 16-element inner product runs at line rate in a single
	// CU with ~23 ns latency (ours: PHV 4+4, links, 5-cycle traversal).
	if res.Stats.II != 1 {
		t.Errorf("II = %d, want 1", res.Stats.II)
	}
	if res.Usage.CUs != 1 {
		t.Errorf("CUs = %d, want 1", res.Usage.CUs)
	}
	if res.Stats.LatencyCycles < 18 || res.Stats.LatencyCycles > 28 {
		t.Errorf("latency = %d, want ~23 cycles", res.Stats.LatencyCycles)
	}
}

func TestReLUOperatingPoint(t *testing.T) {
	res := compileMicro(t, "ReLU")
	if res.Stats.II != 1 || res.Usage.CUs != 1 {
		t.Errorf("II=%d CUs=%d", res.Stats.II, res.Usage.CUs)
	}
	if res.Stats.LatencyCycles < 17 || res.Stats.LatencyCycles > 26 {
		t.Errorf("latency = %d, want ~22 cycles", res.Stats.LatencyCycles)
	}
}

// Table 6 orderings that must hold: nonlinear Taylor > piecewise > LUT in
// area; everything at line rate.
func TestMicrobenchmarkShape(t *testing.T) {
	suite, err := lower.Microbenchmarks(16)
	if err != nil {
		t.Fatal(err)
	}
	areas := map[string]float64{}
	for name, g := range suite {
		res, err := Compile(g, Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Stats.II != 1 {
			t.Errorf("%s: II = %d, want line rate", name, res.Stats.II)
		}
		areas[name] = res.AreaMM2()
	}
	if !(areas["TanhExp"] > areas["TanhPW"]) {
		t.Errorf("TanhExp (%.3f) should exceed TanhPW (%.3f)", areas["TanhExp"], areas["TanhPW"])
	}
	if !(areas["SigmoidExp"] > areas["ActLUT"]) {
		t.Errorf("SigmoidExp (%.3f) should exceed ActLUT (%.3f)", areas["SigmoidExp"], areas["ActLUT"])
	}
	if !(areas["Conv1D"] > areas["InnerProduct"]) {
		t.Errorf("Conv1D (%.3f) should exceed InnerProduct (%.3f)", areas["Conv1D"], areas["InnerProduct"])
	}
	if !(areas["ReLU"] <= areas["TanhPW"]) {
		t.Errorf("ReLU (%.3f) should not exceed TanhPW (%.3f)", areas["ReLU"], areas["TanhPW"])
	}
}

// Table 7: unrolling Conv1D trades area for line rate.
func TestConv1DUnrollingSweep(t *testing.T) {
	conv, err := lower.Conv1D(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	prevArea := 0.0
	for _, u := range []struct {
		maxCU    int
		wantRate float64
	}{
		{1, 1.0 / 8}, {2, 1.0 / 4}, {4, 1.0 / 2}, {8, 1},
	} {
		res, err := Compile(conv, Options{MaxCUs: u.maxCU})
		if err != nil {
			t.Fatalf("unroll %d: %v", u.maxCU, err)
		}
		if got := res.Stats.LineRateFraction(); got != u.wantRate {
			t.Errorf("maxCU=%d: line rate %v, want %v", u.maxCU, got, u.wantRate)
		}
		if res.Usage.CUs != u.maxCU {
			t.Errorf("maxCU=%d: used %d CUs", u.maxCU, res.Usage.CUs)
		}
		if res.AreaMM2() <= prevArea {
			t.Errorf("area should grow with unrolling: %v after %v", res.AreaMM2(), prevArea)
		}
		prevArea = res.AreaMM2()
	}
}

// The compiled DNN must compute exactly what the quantised reference does,
// run at line rate, and land near the paper's resource envelope.
func TestCompiledDNN(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	gen, err := dataset.NewAnomalyGenerator(dataset.DefaultAnomalyConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	X, y := dataset.Split(gen.Records(400))
	n := ml.NewDNN([]int{6, 12, 6, 3, 1}, ml.ReLU, ml.Sigmoid, rng)
	ml.NewTrainer(n, ml.SGDConfig{LearningRate: 0.05, Momentum: 0.9, BatchSize: 32, Epochs: 8}, rng).Fit(X, y)
	q, err := ml.Quantize(n, X[:100])
	if err != nil {
		t.Fatal(err)
	}
	g, err := lower.DNN(q, "dnn")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Compile(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.II != 1 {
		t.Errorf("DNN II = %d, want line rate", res.Stats.II)
	}
	// Paper: DNN ~1.0 mm² (≈0.8% of chip), ~221 ns. Same order for us.
	if a := res.AreaMM2(); a < 0.5 || a > 2.0 {
		t.Errorf("DNN area = %.3f mm², want ~1", a)
	}
	if l := res.Stats.LatencyCycles; l < 60 || l > 300 {
		t.Errorf("DNN latency = %d ns, want same order as 221", l)
	}
	// Bit-exactness of the graph the design places.
	if err := res.Placement.Validate(g); err != nil {
		t.Fatal(err)
	}
	for _, x := range X[:50] {
		codes := q.InputQ.QuantizeSlice(x)
		in := make([]int32, len(codes))
		for i, c := range codes {
			in[i] = int32(c)
		}
		outs, err := g.Eval(in)
		if err != nil {
			t.Fatal(err)
		}
		want := q.ForwardCodes(codes)
		if outs[0][0] != int32(want[0]) {
			t.Fatalf("CGRA output %d != reference %d", outs[0][0], want[0])
		}
	}
	_ = y
}

// Table 5 cross-model shape: KMeans < SVM < DNN < LSTM in area; LSTM is the
// only model below line rate.
func TestTable5Shape(t *testing.T) {
	rng := rand.New(rand.NewSource(56))

	ig, _ := dataset.NewIoTGenerator(dataset.KMeansIoTConfig(), rng)
	XI, _ := ig.Samples(300)
	km, err := ml.TrainKMeans(XI, 5, 30, rng)
	if err != nil {
		t.Fatal(err)
	}
	var flat []float32
	for _, x := range XI {
		flat = append(flat, x...)
	}
	kmG, err := lower.KMeans(km, fixed.QuantizerFor(flat), "kmeans")
	if err != nil {
		t.Fatal(err)
	}

	genS, _ := dataset.NewAnomalyGenerator(dataset.AnomalyConfig{NumFeatures: 8, AnomalyFraction: 0.4, Separation: 1.2}, rng)
	XS, yS := dataset.SplitPM(genS.Records(200))
	svm, err := ml.TrainSVM(XS, yS, ml.DefaultSVMConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	var flatS []float32
	for _, x := range XS {
		flatS = append(flatS, x...)
	}
	svmG, err := lower.SVM(svm, fixed.QuantizerFor(flatS), 12, "svm")
	if err != nil {
		t.Fatal(err)
	}

	gen, _ := dataset.NewAnomalyGenerator(dataset.DefaultAnomalyConfig(), rng)
	X, y := dataset.Split(gen.Records(300))
	dnn := ml.NewDNN([]int{6, 12, 6, 3, 1}, ml.ReLU, ml.Sigmoid, rng)
	ml.NewTrainer(dnn, ml.SGDConfig{LearningRate: 0.05, Momentum: 0.9, BatchSize: 32, Epochs: 5}, rng).Fit(X, y)
	q, err := ml.Quantize(dnn, X[:100])
	if err != nil {
		t.Fatal(err)
	}
	dnnG, err := lower.DNN(q, "dnn")
	if err != nil {
		t.Fatal(err)
	}

	lstm := ml.NewLSTM(4, 32, 5, rng)
	lstmG, err := lower.LSTMStep(lstm, fixed.NewQuantizer(1.0), "lstm")
	if err != nil {
		t.Fatal(err)
	}

	results := map[string]*Result{}
	for name, g := range map[string]*mr.Graph{"kmeans": kmG, "svm": svmG, "dnn": dnnG, "lstm": lstmG} {
		res, err := Compile(g, Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		results[name] = res
	}

	if !(results["kmeans"].AreaMM2() < results["svm"].AreaMM2() &&
		results["svm"].AreaMM2() < results["dnn"].AreaMM2() &&
		results["dnn"].AreaMM2() < results["lstm"].AreaMM2()) {
		t.Errorf("area ordering violated: kmeans=%.2f svm=%.2f dnn=%.2f lstm=%.2f",
			results["kmeans"].AreaMM2(), results["svm"].AreaMM2(),
			results["dnn"].AreaMM2(), results["lstm"].AreaMM2())
	}
	for _, name := range []string{"kmeans", "svm", "dnn"} {
		if results[name].Stats.II != 1 {
			t.Errorf("%s: II = %d, want line rate", name, results[name].Stats.II)
		}
	}
	if results["lstm"].Stats.II <= 1 {
		t.Error("LSTM should run below line rate (paper: Perf —)")
	}
	if !(results["kmeans"].Stats.LatencyCycles < results["dnn"].Stats.LatencyCycles &&
		results["dnn"].Stats.LatencyCycles < results["lstm"].Stats.LatencyCycles) {
		t.Errorf("latency ordering violated: kmeans=%d dnn=%d lstm=%d",
			results["kmeans"].Stats.LatencyCycles,
			results["dnn"].Stats.LatencyCycles,
			results["lstm"].Stats.LatencyCycles)
	}
	// All models fit in the 12x10 grid with its 3.8% chip overhead.
	full := results["lstm"].Usage
	if full.CUs > 90 {
		t.Errorf("LSTM uses %d CUs, exceeds the 90-CU grid", full.CUs)
	}
	_ = y
}

func TestCompileErrors(t *testing.T) {
	// Invalid graph.
	b := mr.NewBuilder("bad")
	b.Input("x", 2)
	if _, err := b.Build(); err == nil {
		t.Fatal("expected build error")
	}
	g := &mr.Graph{Name: "empty"}
	if _, err := Compile(g, Options{}); err == nil {
		t.Error("empty graph should fail")
	}
	// Invalid grid.
	ok, _ := lower.ReLUBench(4)
	if _, err := Compile(ok, Options{Grid: cgra.GridSpec{Rows: -1}}); err == nil {
		t.Error("bad grid should fail")
	}
}

func TestCompileWideVectorChunks(t *testing.T) {
	// A 36-wide dot product needs ceil(36/16)=3 iterations -> II=3.
	b := mr.NewBuilder("wide")
	x := b.Input("x", 36)
	w := make([]int32, 36)
	for i := range w {
		w[i] = 1
	}
	wv := b.Const("w", w)
	b.Output(b.DotProduct(wv, x))
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Compile(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.II != 3 {
		t.Errorf("wide dot II = %d, want 3", res.Stats.II)
	}
}

func TestPrecisionScalesArea(t *testing.T) {
	g, err := lower.InnerProduct(16)
	if err != nil {
		t.Fatal(err)
	}
	spec8 := cgra.DefaultGrid()
	spec16 := spec8
	spec16.Precision = fixed.Fix16
	r8, err := Compile(g, Options{Grid: spec8})
	if err != nil {
		t.Fatal(err)
	}
	r16, err := Compile(g, Options{Grid: spec16})
	if err != nil {
		t.Fatal(err)
	}
	ratio := r16.AreaMM2() / r8.AreaMM2()
	if ratio < 1.4 || ratio > 2.2 {
		t.Errorf("fix16/fix8 area ratio = %v, want ~2 (Table 4)", ratio)
	}
}

// TestPlacementDeterministic: placement is a function of the graph. Both
// designs oversubscribe the grid, so groups share units — the path that once
// picked among equally loaded units in map-iteration order and gave one graph
// a different latency and II per compile.
func TestPlacementDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	X := make([]tensor.Vec, 64)
	for i := range X {
		X[i] = make(tensor.Vec, 8)
		for j := range X[i] {
			X[i][j] = rng.Float32()
		}
	}
	q, err := ml.Quantize(ml.NewDNN([]int{8, 64, 32, 1}, ml.ReLU, ml.Sigmoid, rng), X)
	if err != nil {
		t.Fatal(err)
	}
	wide, err := lower.DNN(q, "wide")
	if err != nil {
		t.Fatal(err)
	}
	lstm, err := lower.LSTMStep(ml.NewLSTM(4, 32, 5, rng), fixed.NewQuantizer(1.0), "lstm")
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []*mr.Graph{wide, lstm} {
		first, err := Compile(g, Options{})
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		shared := map[cgra.Coord]bool{}
		sharing := false
		for _, grp := range first.Placement.Groups {
			if grp.Kind == cgra.GroupCU {
				sharing = sharing || shared[grp.Pos]
				shared[grp.Pos] = true
			}
		}
		if !sharing {
			t.Fatalf("%s: no CU is shared; the test no longer reaches the tie-break", g.Name)
		}
		for run := 1; run < 20; run++ {
			res, err := Compile(g, Options{})
			if err != nil {
				t.Fatalf("%s: %v", g.Name, err)
			}
			if res.Stats != first.Stats {
				t.Fatalf("%s: compile %d stats %+v, first compile %+v", g.Name, run, res.Stats, first.Stats)
			}
			for i, grp := range res.Placement.Groups {
				if want := first.Placement.Groups[i].Pos; grp.Pos != want {
					t.Fatalf("%s: compile %d placed group %d at %v, first compile at %v", g.Name, run, i, grp.Pos, want)
				}
			}
		}
	}
}
