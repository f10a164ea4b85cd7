package ml

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"taurus/internal/tensor"
)

// xorData is the classic non-linearly-separable sanity set.
func xorData() ([]tensor.Vec, []int) {
	X := []tensor.Vec{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
	y := []int{0, 1, 1, 0}
	return X, y
}

func TestNewDNNShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := NewDNN([]int{6, 12, 6, 3, 1}, ReLU, Sigmoid, rng)
	if len(n.Layers) != 4 {
		t.Fatalf("layers = %d", len(n.Layers))
	}
	sizes := n.Sizes()
	want := []int{6, 12, 6, 3, 1}
	for i := range want {
		if sizes[i] != want[i] {
			t.Errorf("Sizes()[%d] = %d, want %d", i, sizes[i], want[i])
		}
	}
	if got := n.KernelString(); got != "6 x 12 x 6 x 3 x 1" {
		t.Errorf("KernelString = %q", got)
	}
	if n.Layers[0].Act != ReLU || n.Layers[3].Act != Sigmoid {
		t.Error("activation assignment wrong")
	}
	if n.Layers[2].In() != 6 || n.Layers[2].Out() != 3 {
		t.Errorf("layer dims: in=%d out=%d", n.Layers[2].In(), n.Layers[2].Out())
	}
}

func TestNewDNNPanicsOnShort(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for <2 sizes")
		}
	}()
	NewDNN([]int{3}, ReLU, Sigmoid, rand.New(rand.NewSource(1)))
}

func TestForwardDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := NewDNN([]int{4, 8, 2}, ReLU, Linear, rng)
	x := tensor.Vec{0.1, -0.2, 0.3, 0.4}
	a := n.Forward(x)
	b := n.Forward(x)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Forward not deterministic")
		}
	}
}

func TestTrainXORBinary(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := NewDNN([]int{2, 8, 1}, Tanh, Sigmoid, rng)
	tr := NewTrainer(n, SGDConfig{LearningRate: 0.5, Momentum: 0.9, BatchSize: 4, Epochs: 2000}, rng)
	X, y := xorData()
	loss := tr.Fit(X, y)
	if loss > 0.1 {
		t.Fatalf("XOR did not converge: loss %v", loss)
	}
	for i, x := range X {
		if got := n.PredictClass(x); got != y[i] {
			t.Errorf("XOR(%v) = %d, want %d", x, got, y[i])
		}
	}
}

func TestTrainXORSoftmax(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := NewDNN([]int{2, 8, 2}, Tanh, Linear, rng)
	tr := NewTrainer(n, SGDConfig{LearningRate: 0.3, Momentum: 0.9, BatchSize: 4, Epochs: 2000}, rng)
	X, y := xorData()
	tr.Fit(X, y)
	for i, x := range X {
		if got := n.PredictClass(x); got != y[i] {
			t.Errorf("XOR(%v) = %d, want %d", x, got, y[i])
		}
	}
}

func TestFitEpochLossDecreases(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := NewDNN([]int{2, 6, 1}, ReLU, Sigmoid, rng)
	tr := NewTrainer(n, SGDConfig{LearningRate: 0.2, Momentum: 0.5, BatchSize: 2, Epochs: 1}, rng)
	X, y := xorData()
	first := tr.FitEpoch(X, y)
	var last float64
	for i := 0; i < 300; i++ {
		last = tr.FitEpoch(X, y)
	}
	if last >= first {
		t.Errorf("loss did not decrease: first %v last %v", first, last)
	}
}

func TestFitMismatchedLengthsPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n := NewDNN([]int{2, 2}, ReLU, Sigmoid, rng)
	tr := NewTrainer(n, DefaultSGD(), rng)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	tr.Fit([]tensor.Vec{{1, 2}}, []int{0, 1})
}

func TestFitEmptyDataset(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := NewDNN([]int{2, 1}, ReLU, Sigmoid, rng)
	tr := NewTrainer(n, DefaultSGD(), rng)
	if loss := tr.Fit(nil, nil); loss != 0 {
		t.Errorf("empty fit loss = %v", loss)
	}
}

func TestPredictClassBinaryThreshold(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	n := NewDNN([]int{1, 1}, ReLU, Sigmoid, rng)
	// Force weights so output is sigmoid(10*x): x=1 -> ~1, x=-1 -> ~0.
	n.Layers[0].W.Set(0, 0, 10)
	n.Layers[0].B[0] = 0
	if got := n.PredictClass(tensor.Vec{1}); got != 1 {
		t.Errorf("PredictClass(1) = %d", got)
	}
	if got := n.PredictClass(tensor.Vec{-1}); got != 0 {
		t.Errorf("PredictClass(-1) = %d", got)
	}
}

// Numeric gradient check on a tiny network validates backprop.
func TestBackpropGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := NewDNN([]int{2, 3, 1}, Tanh, Sigmoid, rng)
	tr := NewTrainer(n, SGDConfig{LearningRate: 0, Momentum: 0, BatchSize: 1, Epochs: 1}, rng)
	x := tensor.Vec{0.3, -0.7}
	label := 1

	tr.backprop(x, label)
	gradW := tr.gradW

	lossAt := func() float64 {
		out := n.Forward(x)
		p := clampProb(out[0])
		return -math.Log(float64(p))
	}
	const h = 1e-3
	for li, l := range n.Layers {
		for j := range l.W.Data {
			orig := l.W.Data[j]
			l.W.Data[j] = orig + h
			up := lossAt()
			l.W.Data[j] = orig - h
			down := lossAt()
			l.W.Data[j] = orig
			numeric := (up - down) / (2 * h)
			got := float64(gradW[li].Data[j])
			if math.Abs(numeric-got) > 1e-2*(1+math.Abs(numeric)) {
				t.Errorf("layer %d W[%d]: analytic %v numeric %v", li, j, got, numeric)
			}
		}
	}
}

// oracleTrainer is the allocating trainer this package had before the
// workspace: step, backprop and forwardTrace are kept verbatim (a fresh
// gradient set per minibatch, a slice per layer per sample, the delta
// back-propagation walking W by column) as the reference the in-place
// trainer must match bit for bit.
type oracleTrainer struct {
	Net *DNN
	Cfg SGDConfig
	rng *rand.Rand

	velW []tensor.Mat
	velB []tensor.Vec
}

func newOracleTrainer(net *DNN, cfg SGDConfig, rng *rand.Rand) *oracleTrainer {
	t := &oracleTrainer{Net: net, Cfg: cfg, rng: rng}
	for _, l := range net.Layers {
		t.velW = append(t.velW, tensor.NewMat(l.W.Rows, l.W.Cols))
		t.velB = append(t.velB, make(tensor.Vec, len(l.B)))
	}
	return t
}

func (t *oracleTrainer) FitEpoch(X []tensor.Vec, y []int) float64 {
	idx := t.rng.Perm(len(X))
	var totalLoss float64
	bs := t.Cfg.BatchSize
	if bs <= 0 {
		bs = 1
	}
	for start := 0; start < len(idx); start += bs {
		end := start + bs
		if end > len(idx) {
			end = len(idx)
		}
		batch := idx[start:end]
		totalLoss += t.step(X, y, batch)
	}
	if len(X) == 0 {
		return 0
	}
	return totalLoss / float64(len(X))
}

func (t *oracleTrainer) step(X []tensor.Vec, y []int, batch []int) float64 {
	net := t.Net
	gradW := make([]tensor.Mat, len(net.Layers))
	gradB := make([]tensor.Vec, len(net.Layers))
	for i, l := range net.Layers {
		gradW[i] = tensor.NewMat(l.W.Rows, l.W.Cols)
		gradB[i] = make(tensor.Vec, len(l.B))
	}

	var loss float64
	for _, s := range batch {
		loss += t.backprop(X[s], y[s], gradW, gradB)
	}

	scale := t.Cfg.LearningRate / float32(len(batch))
	for i, l := range net.Layers {
		for j := range l.W.Data {
			t.velW[i].Data[j] = t.Cfg.Momentum*t.velW[i].Data[j] - scale*gradW[i].Data[j]
			l.W.Data[j] += t.velW[i].Data[j]
		}
		for j := range l.B {
			t.velB[i][j] = t.Cfg.Momentum*t.velB[i][j] - scale*gradB[i][j]
			l.B[j] += t.velB[i][j]
		}
	}
	return loss
}

func oracleForwardTrace(n *DNN, x tensor.Vec) (pre, post []tensor.Vec) {
	cur := x
	for _, l := range n.Layers {
		z := tensor.MatVec(l.W, cur)
		tensor.AddInPlace(z, l.B)
		pre = append(pre, z)
		cur = l.Act.ApplyVec(z)
		post = append(post, cur)
	}
	return pre, post
}

func (t *oracleTrainer) backprop(x tensor.Vec, label int, gradW []tensor.Mat, gradB []tensor.Vec) float64 {
	net := t.Net
	pre, post := oracleForwardTrace(net, x)
	L := len(net.Layers)
	outLayer := net.Layers[L-1]
	out := post[L-1]

	delta := make(tensor.Vec, len(out))
	var loss float64
	switch {
	case len(out) == 1 && outLayer.Act == Sigmoid:
		target := float32(0)
		if label != 0 {
			target = 1
		}
		p := clampProb(out[0])
		if target == 1 {
			loss = -math.Log(float64(p))
		} else {
			loss = -math.Log(float64(1 - p))
		}
		delta[0] = out[0] - target
	case outLayer.Act == Linear || outLayer.Act == Sigmoid || len(out) > 1:
		probs := tensor.Softmax(out)
		p := clampProb(probs[label])
		loss = -math.Log(float64(p))
		for i := range delta {
			target := float32(0)
			if i == label {
				target = 1
			}
			delta[i] = (probs[i] - target) * outLayer.Act.Derivative(pre[L-1][i])
		}
	default:
		panic("ml: unsupported output configuration")
	}

	for li := L - 1; li >= 0; li-- {
		layer := net.Layers[li]
		var input tensor.Vec
		if li == 0 {
			input = x
		} else {
			input = post[li-1]
		}
		for r := 0; r < layer.W.Rows; r++ {
			d := delta[r]
			gradB[li][r] += d
			row := gradW[li].Row(r)
			for c := range input {
				row[c] += d * input[c]
			}
		}
		if li > 0 {
			nextDelta := make(tensor.Vec, layer.W.Cols)
			for c := 0; c < layer.W.Cols; c++ {
				var s float32
				for r := 0; r < layer.W.Rows; r++ {
					s += layer.W.At(r, c) * delta[r]
				}
				nextDelta[c] = s * net.Layers[li-1].Act.Derivative(pre[li-1][c])
			}
			delta = nextDelta
		}
	}
	return loss
}

// trainingSet draws n seeded samples of the given width with labels in
// [0, classes). Values straddle zero so every activation sees both branches.
func trainingSet(n, width, classes int, seed int64) ([]tensor.Vec, []int) {
	rng := rand.New(rand.NewSource(seed))
	X := make([]tensor.Vec, n)
	y := make([]int, n)
	for i := range X {
		X[i] = tensor.RandVec(width, 3, rng)
		y[i] = rng.Intn(classes)
	}
	return X, y
}

func sameBits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	for j := range want {
		if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
			t.Fatalf("%s[%d] = %x (%v), oracle %x (%v)", what, j,
				math.Float32bits(got[j]), got[j], math.Float32bits(want[j]), want[j])
		}
	}
}

// The in-place trainer runs the oracle's float operations in the oracle's
// order: after three warm Fits of eight epochs every weight, bias and
// velocity has the same bits, and both consumed the same rng stream.
func TestTrainerMatchesAllocatingOracle(t *testing.T) {
	nets := []struct {
		name        string
		sizes       []int
		hidden, out Activation
	}{
		{"anomaly-6-12-6-3-1", []int{6, 12, 6, 3, 1}, ReLU, Sigmoid},
		{"wide-8-64-32-1", []int{8, 64, 32, 1}, ReLU, Sigmoid},
		{"softmax-6-8-3", []int{6, 8, 3}, ReLU, Linear},
		{"derivative-5-7-4-3", []int{5, 7, 4, 3}, LeakyReLU, Tanh},
	}
	for _, nc := range nets {
		for _, bs := range []int{32, 1, 7} {
			nc, bs := nc, bs
			t.Run(fmt.Sprintf("%s/batch%d", nc.name, bs), func(t *testing.T) {
				classes := nc.sizes[len(nc.sizes)-1]
				if classes == 1 {
					classes = 2
				}
				X, y := trainingSet(512, nc.sizes[0], classes, 11)
				cfg := SGDConfig{LearningRate: 0.05, Momentum: 0.9, BatchSize: bs, Epochs: 8}
				net := NewDNN(nc.sizes, nc.hidden, nc.out, rand.New(rand.NewSource(12)))
				ref := net.Clone()
				rng, refRng := rand.New(rand.NewSource(13)), rand.New(rand.NewSource(13))
				tr := NewTrainer(net, cfg, rng)
				or := newOracleTrainer(ref, cfg, refRng)
				for fit := 0; fit < 3; fit++ {
					var loss, refLoss float64
					for e := 0; e < cfg.Epochs; e++ {
						loss, refLoss = tr.FitEpoch(X, y), or.FitEpoch(X, y)
					}
					if math.Float64bits(loss) != math.Float64bits(refLoss) {
						t.Fatalf("fit %d: loss %v, oracle %v", fit, loss, refLoss)
					}
					for i, l := range net.Layers {
						sameBits(t, fmt.Sprintf("fit %d layer %d W", fit, i), l.W.Data, ref.Layers[i].W.Data)
						sameBits(t, fmt.Sprintf("fit %d layer %d B", fit, i), l.B, ref.Layers[i].B)
						sameBits(t, fmt.Sprintf("fit %d layer %d velW", fit, i), tr.velW[i].Data, or.velW[i].Data)
						sameBits(t, fmt.Sprintf("fit %d layer %d velB", fit, i), tr.velB[i], or.velB[i])
					}
				}
				if a, b := rng.Int63(), refRng.Int63(); a != b {
					t.Fatalf("rng streams diverged: next draw %d, oracle %d", a, b)
				}
			})
		}
	}
}

// Forward is the oracle's forward pass too, and hands back storage the
// network does not reuse.
func TestForwardMatchesOracleTrace(t *testing.T) {
	n := NewDNN([]int{5, 7, 4, 3}, LeakyReLU, Tanh, rand.New(rand.NewSource(21)))
	X, _ := trainingSet(32, 5, 3, 22)
	first := n.Forward(X[0])
	keep := first.Clone()
	for _, x := range X {
		_, post := oracleForwardTrace(n, x)
		sameBits(t, "Forward", n.Forward(x), post[len(post)-1])
	}
	sameBits(t, "first result after later calls", first, keep)
}

// A warm epoch runs entirely in the trainer's workspace.
func TestFitEpochZeroAlloc(t *testing.T) {
	for _, sizes := range [][]int{{6, 12, 6, 3, 1}, {6, 8, 3}} {
		X, y := trainingSet(512, sizes[0], 2, 31)
		n := NewDNN(sizes, ReLU, Sigmoid, rand.New(rand.NewSource(32)))
		tr := NewTrainer(n, SGDConfig{LearningRate: 0.05, Momentum: 0.9, BatchSize: 32, Epochs: 1}, rand.New(rand.NewSource(33)))
		tr.FitEpoch(X, y)
		if allocs := testing.AllocsPerRun(5, func() { tr.FitEpoch(X, y) }); allocs != 0 {
			t.Errorf("%v: warm FitEpoch allocates %v times, want 0", sizes, allocs)
		}
	}
}
