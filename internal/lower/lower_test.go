package lower

import (
	"math"
	"math/rand"
	"testing"

	"taurus/internal/dataset"
	"taurus/internal/fixed"
	mr "taurus/internal/mapreduce"
	"taurus/internal/ml"
	"taurus/internal/tensor"
)

// trainAnomalyDNN trains the paper's 6-12-6-3-1 anomaly DNN on synthetic
// KDD-like data and quantises it.
func trainAnomalyDNN(t *testing.T) (*ml.QuantizedDNN, []tensor.Vec) {
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
	return q, X
}

func codesOf(q *ml.QuantizedDNN, x tensor.Vec) []int32 {
	codes := q.InputQ.QuantizeSlice(x)
	out := make([]int32, len(codes))
	for i, c := range codes {
		out[i] = int32(c)
	}
	return out
}

func TestDNNLoweringBitExact(t *testing.T) {
	q, X := trainAnomalyDNN(t)
	g, err := DNN(q, "anomaly-dnn")
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, x := range X[:100] {
		want := q.ForwardCodes(q.InputQ.QuantizeSlice(x))
		outs, err := g.Eval(codesOf(q, x))
		if err != nil {
			t.Fatal(err)
		}
		got := outs[0]
		if len(got) != len(want) {
			t.Fatalf("width %d, want %d", len(got), len(want))
		}
		for i := range got {
			if got[i] != int32(want[i]) {
				t.Fatalf("lowered DNN diverges at lane %d: %d vs %d", i, got[i], want[i])
			}
		}
	}
}

func TestDNNLoweringEmpty(t *testing.T) {
	if _, err := DNN(&ml.QuantizedDNN{}, "x"); err == nil {
		t.Error("empty DNN should fail")
	}
}

func TestKMeansLoweringMatchesReference(t *testing.T) {
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
	inQ := fixed.QuantizerFor(flat)
	g, err := KMeans(km, inQ, "iot-kmeans")
	if err != nil {
		t.Fatal(err)
	}
	agree := 0
	for _, x := range X[:200] {
		codes := inQ.QuantizeSlice(x)
		in := make([]int32, len(codes))
		for i, c := range codes {
			in[i] = int32(c)
		}
		outs, err := g.Eval(in)
		if err != nil {
			t.Fatal(err)
		}
		gotIdx := int(outs[0][0])
		if gotIdx != QuantizeKMeansPredict(km, inQ, x) {
			t.Fatalf("graph argmin diverges from quantised reference")
		}
		if gotIdx == km.Predict(x) {
			agree++
		}
	}
	// Quantised nearest-centroid should almost always match float.
	if agree < 190 {
		t.Errorf("quantised KMeans agrees with float on %d/200", agree)
	}
}

func TestSVMLoweringSignAgreement(t *testing.T) {
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
	inQ := fixed.QuantizerFor(flat)
	g, err := SVM(svm, inQ, 16, "anomaly-svm")
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewSVMReference(svm, inQ, 16)
	if err != nil {
		t.Fatal(err)
	}
	agree := 0
	n := 200
	compressed := svm.Compress(16)
	for _, x := range X[:n] {
		codes := inQ.QuantizeSlice(x)
		in := make([]int32, len(codes))
		for i, c := range codes {
			in[i] = int32(c)
		}
		outs, err := g.Eval(in)
		if err != nil {
			t.Fatal(err)
		}
		// Reference path must be bit-identical.
		want, err := ref.Decision(x)
		if err != nil {
			t.Fatal(err)
		}
		if outs[0][0] != want {
			t.Fatalf("graph decision %d != reference %d", outs[0][0], want)
		}
		if (outs[0][0] > 0) == compressed.Predict(x) {
			agree++
		}
	}
	if agree < n*85/100 {
		t.Errorf("quantised SVM agrees with float on %d/%d", agree, n)
	}
}

func TestLSTMLoweringRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	l := ml.NewLSTM(4, 32, 5, rng)
	inQ := fixed.NewQuantizer(1.0)
	g, err := LSTMStep(l, inQ, "indigo-lstm")
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Drive a few steps through the quantised graph, threading state.
	h := make([]int32, 32)
	c := make([]int32, 32)
	stF := l.ZeroState()
	agreeTop := 0
	const steps = 20
	for s := 0; s < steps; s++ {
		xf := tensor.Vec{
			float32(rng.NormFloat64() * 0.3),
			float32(rng.NormFloat64() * 0.3),
			float32(rng.NormFloat64() * 0.3),
			float32(rng.NormFloat64() * 0.3),
		}
		codes := inQ.QuantizeSlice(xf)
		x := make([]int32, len(codes))
		for i, cd := range codes {
			x[i] = int32(cd)
		}
		outs, err := g.Eval(x, h, c)
		if err != nil {
			t.Fatal(err)
		}
		logits, hNew, cNew := outs[0], outs[1], outs[2]
		if len(logits) != 5 || len(hNew) != 32 || len(cNew) != 32 {
			t.Fatalf("output widths %d/%d/%d", len(logits), len(hNew), len(cNew))
		}
		for _, v := range hNew {
			if v > 127 || v < -128 {
				t.Fatalf("h code %d out of int8 range", v)
			}
		}
		// Compare argmax action against the float model.
		var probs tensor.Vec
		probs, stF = l.Step(xf, stF)
		gotBest := 0
		for i, v := range logits {
			if v > logits[gotBest] {
				gotBest = i
			}
		}
		if gotBest == tensor.ArgMax(probs) {
			agreeTop++
		}
		h, c = hNew, cNew
	}
	// Quantised recurrence drifts, but the chosen action should usually
	// match the float model.
	if agreeTop < steps*6/10 {
		t.Errorf("quantised LSTM action agrees on %d/%d steps", agreeTop, steps)
	}
}

func evalMicro(t *testing.T, g *mr.Graph, codes []int32) []int32 {
	t.Helper()
	outs, err := g.Eval(codes)
	if err != nil {
		t.Fatalf("%s: %v", g.Name, err)
	}
	return outs[0]
}

func TestMicroInnerProduct(t *testing.T) {
	g, err := InnerProduct(16)
	if err != nil {
		t.Fatal(err)
	}
	in := make([]int32, 16)
	var want int64
	for i := range in {
		in[i] = int32(i - 8)
		want += int64(in[i]) * int64((i*7)%15-7)
	}
	out := evalMicro(t, g, in)
	if int64(out[0]) != want {
		t.Errorf("inner product = %d, want %d", out[0], want)
	}
}

func TestMicroConv1D(t *testing.T) {
	g, err := Conv1D(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	in := make([]int32, 9)
	for i := range in {
		in[i] = int32(i + 1)
	}
	out := evalMicro(t, g, in)
	if len(out) != 8 {
		t.Fatalf("conv output width %d", len(out))
	}
	// kernel = [1, 4]: out[o] = 1*in[o] + 4*in[o+1].
	for o := 0; o < 8; o++ {
		want := in[o] + 4*in[o+1]
		if out[o] != want {
			t.Errorf("conv[%d] = %d, want %d", o, out[o], want)
		}
	}
}

func TestMicroReLUs(t *testing.T) {
	g, _ := ReLUBench(4)
	out := evalMicro(t, g, []int32{-5, 0, 3, -1})
	want := []int32{0, 0, 3, 0}
	for i := range want {
		if out[i] != want[i] {
			t.Errorf("relu[%d] = %d", i, out[i])
		}
	}
	g, _ = LeakyReLUBench(2)
	out = evalMicro(t, g, []int32{-1000, 1000})
	if out[1] != 1000 {
		t.Errorf("leaky positive = %d", out[1])
	}
	if out[0] >= 0 || out[0] < -11 {
		t.Errorf("leaky negative = %d, want ~-10", out[0])
	}
}

// nonlinear accuracy: drive the quantised graphs across their input range
// and compare against the exact function.
func TestMicroNonlinearAccuracy(t *testing.T) {
	cases := []struct {
		name  string
		build func(int) (*mr.Graph, error)
		fn    func(float64) float64
		lo    float64
		hi    float64
		tol   float64
	}{
		{"tanhexp", TanhExpBench, math.Tanh, -1, 1, 0.12},
		{"sigmoidexp", SigmoidExpBench, func(x float64) float64 { return 1 / (1 + math.Exp(-x)) }, -1.5, 1.5, 0.1},
		{"tanhpw", TanhPWBench, math.Tanh, -2, 2, 0.12},
		{"sigmoidpw", SigmoidPWBench, func(x float64) float64 { return 1 / (1 + math.Exp(-x)) }, -2, 2, 0.12},
		{"actlut", ActLUTBench, math.Tanh, -4, 4, 0.05},
	}
	for _, c := range cases {
		g, err := c.build(1)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for x := c.lo; x <= c.hi; x += 0.125 {
			codeIn := int32(math.RoundToEven(x / MicroInScale))
			out := evalMicro(t, g, []int32{codeIn})
			got := float64(out[0]) * MicroOutScale
			want := c.fn(float64(codeIn) * MicroInScale)
			if math.Abs(got-want) > c.tol {
				t.Errorf("%s(%v) = %v, want %v", c.name, x, got, want)
			}
		}
	}
}

func TestMicrobenchmarksSuite(t *testing.T) {
	suite, err := Microbenchmarks(16)
	if err != nil {
		t.Fatal(err)
	}
	wantNames := []string{"InnerProduct", "ReLU", "LeakyReLU", "TanhExp",
		"SigmoidExp", "TanhPW", "SigmoidPW", "ActLUT", "Conv1D"}
	for _, n := range wantNames {
		g, ok := suite[n]
		if !ok {
			t.Errorf("missing microbenchmark %s", n)
			continue
		}
		if err := g.Validate(); err != nil {
			t.Errorf("%s invalid: %v", n, err)
		}
	}
}

func TestConv1DBadDims(t *testing.T) {
	if _, err := Conv1D(0, 2); err == nil {
		t.Error("expected error")
	}
}
