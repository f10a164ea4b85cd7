package core

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"taurus/internal/compiler"
	"taurus/internal/dataset"
	"taurus/internal/fixed"
	"taurus/internal/lower"
	mr "taurus/internal/mapreduce"
	"taurus/internal/ml"
	"taurus/internal/tensor"
)

// familyGraphs trains and lowers the four model families the way the sched
// tests do (seed 7): the 6-12-6-3-1 DNN, a 4-centroid KMeans, an 8-support-
// vector SVM whose eight kernel lookups share one table, and an LSTM step.
func familyGraphs(t *testing.T) map[string]*mr.Graph {
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
	var flat []float32
	for _, x := range X {
		flat = append(flat, x...)
	}
	inQ := fixed.QuantizerFor(flat)
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
	if out["lstm"], err = lower.LSTMStep(ml.NewLSTM(4, 32, 5, rand.New(rand.NewSource(7))), fixed.NewQuantizer(1), "lstm"); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestInstallPlacesLikeCompile: the design a device installs is the one
// compiler.Compile places for the same graph. Install compiles a clone, so a
// clone must keep everything placement reads, shared tables included; the
// LSTM step (three inputs: no device serves it) is held to that directly.
func TestInstallPlacesLikeCompile(t *testing.T) {
	for name, g := range familyGraphs(t) {
		res, err := compiler.Compile(g, compiler.Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := res.Stats
		if len(g.Inputs) != 1 {
			clone, err := compiler.Compile(g.Clone(), compiler.Options{})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if clone.Stats != want {
				t.Errorf("%s: a clone places as %+v, the graph as %+v", name, clone.Stats, want)
			}
			continue
		}
		dev, err := NewDevice(DefaultConfig(g.Node(g.Inputs[0]).Width))
		if err != nil {
			t.Fatal(err)
		}
		if err := dev.LoadModel(g, fixed.NewQuantizer(1), compiler.Options{}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if lat := dev.ModelLatencyNs(); lat != want.LatencyNs() {
			t.Errorf("%s: the device installs %v ns; compiler.Compile places %v ns (%d MUs)",
				name, lat, want.LatencyNs(), want.MUsUsed)
		}
	}
}

// TestPushGateAllocs pins what a warm weight push allocates on the wide
// benchmark model (8-64-32-1, 4 shards): 8 objects — the new image (its
// header and four arrays), the Model, and the publish event's detail string
// and boxed graph name (an epoch below 256 boxes without allocating). The
// push gate itself allocates nothing once its pooled workspace is warm. The
// least of ten pushes, alternating two weight sets, is the steady cost. A
// rollback of a push allocates 2: the Model and its event's detail string.
func TestPushGateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	var X []tensor.Vec
	for range 64 {
		x := make(tensor.Vec, 8)
		for j := range x {
			x[j] = rng.Float32()*2 - 1
		}
		X = append(X, x)
	}
	q, err := ml.Quantize(ml.NewDNN([]int{8, 64, 32, 1}, ml.ReLU, ml.Sigmoid, rng), X)
	if err != nil {
		t.Fatal(err)
	}
	g, err := lower.DNN(q, "wide")
	if err != nil {
		t.Fatal(err)
	}
	flipped := g.Clone()
	for _, n := range flipped.Nodes {
		if n.Kind == mr.KConst {
			for i := range n.Const {
				n.Const[i] = -n.Const[i]
			}
		}
	}
	m, err := Install(DefaultConfig(8), nil, g, q.InputQ, compiler.Options{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	weights := []*mr.Graph{flipped, g}
	push := func(i int) {
		if m, err = m.WithWeights(weights[i%2]); err != nil {
			t.Fatal(err)
		}
	}
	push(0)
	least := uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for i := range 10 {
		runtime.ReadMemStats(&before)
		push(i + 1)
		runtime.ReadMemStats(&after)
		least = min(least, after.Mallocs-before.Mallocs)
	}
	const budget = 8
	if least > budget {
		t.Errorf("a warm WithWeights(8-64-32-1) makes %d allocations, budget %d", least, budget)
	}
	t.Logf("warm WithWeights(8-64-32-1): %d allocations", least)

	least = math.MaxUint64
	for i := range 10 {
		push(i)
		runtime.ReadMemStats(&before)
		m = m.Rollback()
		runtime.ReadMemStats(&after)
		least = min(least, after.Mallocs-before.Mallocs)
	}
	if least > 2 {
		t.Errorf("a Rollback makes %d allocations, budget 2", least)
	}
}
