package ml

import (
	"bytes"
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
	tr := NewTrainer(n, SGDConfig{LearningRate: 0.05, Momentum: 0.9, BatchSize: 32, Epochs: 20}, rng)
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
	tr := NewTrainer(n, SGDConfig{LearningRate: 0.05, Momentum: 0.9, BatchSize: 32, Epochs: 20}, rng)
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

// Value classes of a fitArgs feature; any byte from featOrdinary up (mod 16)
// is an ordinary value in [-3, 3).
const (
	featZero byte = iota
	featNegZero
	featSubnormal
	featNaN
	featInf
	featNegInf
	featHuge
	featOrdinary
)

func featureValue(class byte, rng *rand.Rand) float32 {
	switch class {
	case featZero:
		return 0
	case featNegZero:
		return float32(math.Copysign(0, -1))
	case featSubnormal:
		return math.Float32frombits(0x00012345)
	case featNaN:
		return float32(math.NaN())
	case featInf:
		return float32(math.Inf(1))
	case featNegInf:
		return float32(math.Inf(-1))
	case featHuge:
		return 3e38
	}
	return rng.Float32()*6 - 3
}

// featAt is a feature list that is ordinary up to index i, which has class c.
func featAt(i int, c byte) []byte {
	f := bytes.Repeat([]byte{featOrdinary}, i+1)
	f[i] = c
	return f
}

const fitSamples, fitEpochs = 32, 3

// fitArgs is one trainer-versus-oracle run in the form FuzzFitOracle takes.
// Bytes out of range wrap, and each field's in-range values map to
// themselves:
//   - dims: layer widths, input first — 1–16 inputs, 1–3 hidden layers of
//     1–40 units, 1–3 outputs (padded with 1s to three widths);
//   - hidden, out: activations; a single output is Sigmoid unless out is
//     Linear, the two single-output losses backprop has;
//   - batch: 1–40; lr: its magnitude, at most 1e30;
//   - kill: every hidden bias starts at -3, so most ReLUs never fire;
//   - seed: weights, labels, ordinary features and both shuffles;
//   - feats[i]: the value class of feature i of the fitSamples samples
//     laid end to end; ordinary past its end.
type fitArgs struct {
	dims        []byte
	hidden, out uint8
	batch       uint8
	lr          float32
	kill        bool
	seed        int64
	feats       []byte
}

// sameFloats is sameBits with one allowance: a NaN matches any NaN. Which
// NaN an operation on two NaNs returns is left open by IEEE 754; amd64
// returns the first operand's, and which operand is first is the register
// allocator's choice. It differs between the trainer's loops and the
// oracle's, and between plain and instrumented (fuzzing) builds of either,
// so NaN sign and payload are not part of the contract. Everything else is:
// ±0, ±Inf and every finite value, and where NaN is.
func sameFloats(t *testing.T, what string, got, want []float32) {
	t.Helper()
	for j := range want {
		g, w := got[j], want[j]
		if math.Float32bits(g) != math.Float32bits(w) && (g == g || w == w) {
			t.Fatalf("%s[%d] = %x (%v), oracle %x (%v)", what, j,
				math.Float32bits(g), g, math.Float32bits(w), w)
		}
	}
}

// check trains one network with the Trainer and a clone with the oracle
// for fitEpochs epochs over the same samples, and requires every weight,
// bias, velocity and loss to match (sameFloats) after every epoch, and the
// two rng streams to agree on the next draw.
func (a fitArgs) check(t *testing.T) {
	dims := append([]byte(nil), a.dims...)
	for len(dims) < 3 {
		dims = append(dims, 1)
	}
	if len(dims) > 5 {
		dims = dims[:5]
	}
	last := len(dims) - 1
	sizes := make([]int, len(dims))
	sizes[0] = 1 + (int(dims[0])+15)%16
	for i := 1; i < last; i++ {
		sizes[i] = 1 + (int(dims[i])+39)%40
	}
	sizes[last] = 1 + (int(dims[last])+2)%3

	hidden, out := Activation(a.hidden%5), Activation(a.out%5)
	classes := sizes[last]
	if classes == 1 && out != Linear {
		out, classes = Sigmoid, 2
	}
	lr := float32(math.Abs(float64(a.lr)))
	if !(lr <= 1e30) {
		lr = 1e30
	}
	cfg := SGDConfig{LearningRate: lr, Momentum: 0.9, BatchSize: 1 + (int(a.batch)+39)%40}

	rng := rand.New(rand.NewSource(a.seed))
	net := NewDNN(sizes, hidden, out, rng)
	if a.kill {
		for _, l := range net.Layers[:last-1] {
			for j := range l.B {
				l.B[j] = -3
			}
		}
	}
	X, y := make([]tensor.Vec, fitSamples), make([]int, fitSamples)
	feats := a.feats
	for s := range X {
		X[s] = make(tensor.Vec, sizes[0])
		for f := range X[s] {
			class := featOrdinary
			if len(feats) > 0 {
				class, feats = feats[0]%16, feats[1:]
			}
			X[s][f] = featureValue(class, rng)
		}
		y[s] = rng.Intn(classes)
	}

	ref := net.Clone()
	trRng, refRng := rand.New(rand.NewSource(a.seed+1)), rand.New(rand.NewSource(a.seed+1))
	tr := NewTrainer(net, cfg, trRng)
	or := newOracleTrainer(ref, cfg, refRng)
	for e := 0; e < fitEpochs; e++ {
		loss, refLoss := tr.FitEpoch(X, y), or.FitEpoch(X, y)
		if math.Float64bits(loss) != math.Float64bits(refLoss) && (loss == loss || refLoss == refLoss) {
			t.Fatalf("%v epoch %d: loss %v, oracle %v", sizes, e, loss, refLoss)
		}
		for i, l := range net.Layers {
			what := fmt.Sprintf("%v epoch %d layer %d ", sizes, e, i)
			sameFloats(t, what+"W", l.W.Data, ref.Layers[i].W.Data)
			sameFloats(t, what+"B", l.B, ref.Layers[i].B)
			sameFloats(t, what+"velW", tr.velW[i].Data, or.velW[i].Data)
			sameFloats(t, what+"velB", tr.velB[i], or.velB[i])
		}
	}
	if a, b := trRng.Int63(), refRng.Int63(); a != b {
		t.Fatalf("rng streams diverged: next draw %d, oracle %d", a, b)
	}
}

// hostileFits are inputs on which skipping a zero-delta row is exact only
// behind the finiteness guard: where an input or a weight is NaN or ±Inf,
// 0 times it is NaN, so the oracle's weights go NaN where a bare skip's stay
// finite. Each fails a trainer that skips without the guard; all but
// nan-feature fail one that drops either half of it. They seed
// FuzzFitOracle.
var hostileFits = []struct {
	name string
	args fitArgs
}{
	// 0·NaN in layer 0's gradient: the weights on the feature go NaN.
	{"nan-feature", fitArgs{dims: []byte{6, 12, 6, 3, 1}, hidden: uint8(ReLU), out: uint8(Sigmoid), batch: 8, lr: 0.05, seed: 41, feats: featAt(20, featNaN)}},
	// +Inf pre-activations pass a ReLU; below a dead row, 0·Inf is NaN in
	// gradW, and in Wᵀ·delta once a weight has gone Inf.
	{"inf-feature", fitArgs{dims: []byte{6, 12, 6, 3, 1}, hidden: uint8(ReLU), out: uint8(Sigmoid), batch: 8, lr: 0.05, seed: 1, feats: featAt(20, featInf)}},
	// A finite feature whose products overflow to ±Inf.
	{"huge-feature", fitArgs{dims: []byte{6, 12, 6, 3, 1}, hidden: uint8(ReLU), out: uint8(Sigmoid), batch: 8, lr: 0.05, seed: 7, feats: featAt(20, featHuge)}},
	// The first steps overflow the weights.
	{"divergent-lr", fitArgs{dims: []byte{6, 12, 6, 3, 1}, hidden: uint8(ReLU), out: uint8(Sigmoid), batch: 8, lr: 1e30, seed: 2}},
	// Nearly every hidden delta is ±0, so nearly every row is skipped; one
	// Inf feature makes some of those skips need the guard.
	{"almost-all-dead", fitArgs{dims: []byte{6, 12, 6, 3, 1}, hidden: uint8(ReLU), out: uint8(Sigmoid), batch: 8, lr: 0.05, kill: true, seed: 1, feats: featAt(20, featInf)}},
}

func TestTrainerMatchesOracleOnHostileInputs(t *testing.T) {
	for _, c := range hostileFits {
		t.Run(c.name, c.args.check)
	}
}

// FuzzFitOracle holds the Trainer to the oracle over random shapes,
// activation pairs, batch sizes, learning rates up to 1e30, dead networks
// and features drawn from {±0, subnormal, NaN, ±Inf, 3e38, ordinary}.
func FuzzFitOracle(f *testing.F) {
	for _, c := range hostileFits {
		a := c.args
		f.Add(a.dims, a.hidden, a.out, a.batch, a.lr, a.kill, a.seed, a.feats)
	}
	f.Fuzz(func(t *testing.T, dims []byte, hidden, out, batch uint8, lr float32, kill bool, seed int64, feats []byte) {
		fitArgs{dims, hidden, out, batch, lr, kill, seed, feats}.check(t)
	})
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
