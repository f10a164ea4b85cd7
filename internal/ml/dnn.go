package ml

import (
	"fmt"
	"math"
	"math/rand"

	"taurus/internal/tensor"
)

// Dense is one fully-connected layer: y = act(W*x + b).
type Dense struct {
	W   tensor.Mat // Out x In
	B   tensor.Vec // Out
	Act Activation
}

// In returns the layer's input width.
func (d *Dense) In() int { return d.W.Cols }

// Out returns the layer's output width.
func (d *Dense) Out() int { return d.W.Rows }

// DNN is a feed-forward network — the paper's workhorse model (the
// anomaly-detection DNN of Tang et al. has hidden layers 12, 6, 3; the TMC
// IoT classifiers of Table 3 are 4x10x2, 4x5x5x2 and 4x10x10x2).
type DNN struct {
	Layers []*Dense
}

// NewDNN builds a network with the given layer sizes (len >= 2). Hidden
// layers use hiddenAct; the output layer uses outAct. Weights are
// Glorot-initialised from rng.
func NewDNN(sizes []int, hiddenAct, outAct Activation, rng *rand.Rand) *DNN {
	if len(sizes) < 2 {
		panic(fmt.Sprintf("ml: DNN needs >=2 layer sizes, got %v", sizes))
	}
	n := &DNN{}
	for i := 1; i < len(sizes); i++ {
		act := hiddenAct
		if i == len(sizes)-1 {
			act = outAct
		}
		n.Layers = append(n.Layers, &Dense{
			W:   tensor.RandMat(sizes[i], sizes[i-1], rng),
			B:   make(tensor.Vec, sizes[i]),
			Act: act,
		})
	}
	return n
}

// Sizes returns the layer widths, input first.
func (n *DNN) Sizes() []int {
	out := []int{n.Layers[0].In()}
	for _, l := range n.Layers {
		out = append(out, l.Out())
	}
	return out
}

// KernelString formats the architecture the way Table 3 does, e.g.
// "4 x 10 x 2".
func (n *DNN) KernelString() string {
	s := ""
	for i, v := range n.Sizes() {
		if i > 0 {
			s += " x "
		}
		s += fmt.Sprint(v)
	}
	return s
}

// Clone returns a deep copy of the network — layers, weights, biases —
// sharing no storage with the original.
func (n *DNN) Clone() *DNN {
	out := &DNN{}
	for _, l := range n.Layers {
		out.Layers = append(out.Layers, &Dense{
			W:   l.W.Clone(),
			B:   l.B.Clone(),
			Act: l.Act,
		})
	}
	return out
}

// Forward runs float inference, returning the output activations.
func (n *DNN) Forward(x tensor.Vec) tensor.Vec {
	act := n.layerVecs()
	return n.forwardInto(x, act, act)
}

// layerVecs returns one zero vector per layer, as wide as the layer's
// output, all carved out of one backing array.
func (n *DNN) layerVecs() []tensor.Vec {
	total := 0
	for _, l := range n.Layers {
		total += l.Out()
	}
	buf := make(tensor.Vec, total)
	vecs := make([]tensor.Vec, len(n.Layers))
	for i, l := range n.Layers {
		vecs[i], buf = buf[:l.Out():l.Out()], buf[l.Out():]
	}
	return vecs
}

// forwardInto is the one float forward pass — inference, the trainer's
// trace and quantisation's range calibration all run it. Layer i's
// pre-activations W·in + b go to pre[i] and its activations to post[i], each
// already as wide as the layer; a caller with no use for the pre-activations
// passes the same vectors for both. It returns post[last].
//
// Rows go four to a pass over the input, each summing c = 0, 1, 2, … into
// its own accumulator: every z[r] is the serial chain a one-row loop adds,
// but four chains are in flight at once instead of one. The bias goes on in
// a pass of its own, z[r] += b[r] as tensor.AddInPlace adds it, which keeps
// the four-row loop within the registers it has.
//
// hotpath: zero-alloc
func (n *DNN) forwardInto(x tensor.Vec, pre, post []tensor.Vec) tensor.Vec {
	cur := x
	for i, l := range n.Layers {
		if len(cur) != l.W.Cols {
			panic("ml: DNN layer input width mismatch")
		}
		z := pre[i]
		k := len(cur)
		rows := l.W.Data // rows[:k] is the next row of W
		r := 0
		for ; r+4 <= len(z); r += 4 {
			w0, w1, w2, w3 := rows[:k], rows[k:][:k], rows[2*k:][:k], rows[3*k:][:k]
			var s0, s1, s2, s3 float32
			for c, v := range cur {
				s0 += w0[c] * v
				s1 += w1[c] * v
				s2 += w2[c] * v
				s3 += w3[c] * v
			}
			z[r], z[r+1], z[r+2], z[r+3] = s0, s1, s2, s3
			rows = rows[4*k:]
		}
		for ; r < len(z); r++ {
			var s float32
			for c, w := range rows[:k] {
				s += w * cur[c]
			}
			z[r] = s
			rows = rows[k:]
		}
		for r, b := range l.B[:len(z)] {
			z[r] += b
		}
		l.Act.applyTo(post[i], z)
		cur = post[i]
	}
	return cur
}

// PredictClass returns the argmax output index for multi-class networks, or
// thresholds the single output at 0.5 for binary sigmoid networks.
func (n *DNN) PredictClass(x tensor.Vec) int {
	out := n.Forward(x)
	if len(out) == 1 {
		if out[0] >= 0.5 {
			return 1
		}
		return 0
	}
	return tensor.ArgMax(out)
}

// SGDConfig controls DNN training.
type SGDConfig struct {
	LearningRate float32
	Momentum     float32
	BatchSize    int
	Epochs       int
}

// Trainer performs minibatch SGD with momentum on a DNN. Loss is softmax
// cross-entropy for multi-output networks and binary cross-entropy for
// single-sigmoid-output networks.
//
// A velocity lane below 2⁻¹⁰⁰ in magnitude is snapped to +0 before each
// update (the velocity floor; see momentumUpdate). A step differs from plain
// momentum SGD only on a lane whose weight is below 2⁻⁷⁶ in magnitude or
// whose own |scale*grad| is that small; the floor spares dead units their
// subnormal arithmetic.
//
// Every buffer a sample or a minibatch needs is sized from the layer shapes
// in NewTrainer and reused, so a warm epoch allocates nothing; a Trainer is
// therefore not safe for concurrent use.
type Trainer struct {
	Net *DNN
	Cfg SGDConfig
	rng *rand.Rand

	velW []tensor.Mat
	velB []tensor.Vec

	// The workspace. pre, post and delta hold one sample's forward trace and
	// back-propagated dLoss/dPre per layer; gradW and gradB accumulate one
	// minibatch; probs is the softmax of the output layer; perm is the
	// epoch's visiting order; finiteW[i] says whether layer i's weights were
	// all finite when the minibatch began; live lists the rows a layer's
	// Wᵀ·delta walks.
	pre, post, delta []tensor.Vec
	gradW            []tensor.Mat
	gradB            []tensor.Vec
	probs            tensor.Vec
	perm, live       []int
	finiteW          []bool
}

// NewTrainer wires a trainer to net.
func NewTrainer(net *DNN, cfg SGDConfig, rng *rand.Rand) *Trainer {
	t := &Trainer{
		Net: net, Cfg: cfg, rng: rng,
		velB: net.layerVecs(), gradB: net.layerVecs(),
		pre: net.layerVecs(), post: net.layerVecs(), delta: net.layerVecs(),
		finiteW: make([]bool, len(net.Layers)),
	}
	widest := 0
	for _, l := range net.Layers {
		t.velW = append(t.velW, tensor.NewMat(l.W.Rows, l.W.Cols))
		t.gradW = append(t.gradW, tensor.NewMat(l.W.Rows, l.W.Cols))
		widest = max(widest, l.Out())
	}
	t.probs = make(tensor.Vec, len(t.post[len(t.post)-1]))
	t.live = make([]int, widest)
	return t
}

// Fit trains for Cfg.Epochs over the dataset (X[i] has label y[i], a class
// index). It returns the mean loss of the final epoch.
func (t *Trainer) Fit(X []tensor.Vec, y []int) float64 {
	if len(X) != len(y) {
		panic(fmt.Sprintf("ml: Fit length mismatch %d vs %d", len(X), len(y)))
	}
	var last float64
	for e := 0; e < t.Cfg.Epochs; e++ {
		last = t.FitEpoch(X, y)
	}
	return last
}

// FitEpoch performs one shuffled epoch of minibatch SGD and returns the mean
// per-sample loss.
func (t *Trainer) FitEpoch(X []tensor.Vec, y []int) float64 {
	idx := t.shuffle(len(X))
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

// shuffle fills the trainer's permutation buffer with a random order of
// [0, n) by the loop rand.Perm runs — the same Intn draws in the same order,
// so the rng stream and the order are the ones t.rng.Perm(n) would give —
// and grows the buffer only when n does.
func (t *Trainer) shuffle(n int) []int {
	if cap(t.perm) < n {
		t.perm = make([]int, n)
	}
	m := t.perm[:n]
	for i := range m {
		j := t.rng.Intn(i + 1)
		m[i] = m[j]
		m[j] = i
	}
	return m
}

// step accumulates gradients over one minibatch and applies a momentum
// update; it returns the summed loss.
//
// hotpath: zero-alloc
func (t *Trainer) step(X []tensor.Vec, y []int, batch []int) float64 {
	for i, l := range t.Net.Layers {
		clear(t.gradW[i].Data)
		clear(t.gradB[i])
		t.finiteW[i] = allFinite(l.W.Data)
	}

	var loss float64
	for _, s := range batch {
		loss += t.backprop(X[s], y[s])
	}

	mom := t.Cfg.Momentum
	scale := t.Cfg.LearningRate / float32(len(batch))
	for i, l := range t.Net.Layers {
		momentumUpdate(l.W.Data, t.velW[i].Data, t.gradW[i].Data, mom, scale)
		momentumUpdate(l.B, t.velB[i], t.gradB[i], mom, scale)
	}
	return loss
}

// velFloorBits is the bit pattern of 2⁻¹⁰⁰: a velocity whose magnitude bits
// are below it is snapped to +0. NaN and ±Inf sit above it and never snap.
const velFloorBits = 0x0d800000

// momentumUpdate applies vel = mom*vel - scale*grad; w += vel lane by lane,
// with a velocity floor: a lane with |vel| < 2⁻¹⁰⁰ enters the step as +0.
// The velocities of dead units otherwise decay by mom every step into the
// subnormal range, where each multiply costs a microcode assist.
//
// The floor is part of the trainer's bit-exactness contract. A snapped
// velocity is below half an ulp of any weight with |w| ≥ 2⁻⁷⁶, so adding it
// never changed such a weight, and it could change mom*vel - scale*grad only
// where |scale*grad| is that small too. It is per lane and deterministic, so
// merged retrain graphs stay byte-equal across worker counts and crashes.
//
// hotpath: zero-alloc
func momentumUpdate(w, vel, grad []float32, mom, scale float32) {
	vel, grad = vel[:len(w)], grad[:len(w)]
	for j := range w {
		v := vel[j]
		if math.Float32bits(v)&0x7fffffff < velFloorBits {
			v = 0
		}
		vel[j] = mom*v - scale*grad[j]
		w[j] += vel[j]
	}
}

// backprop adds one sample's gradients into t.gradW/t.gradB and returns its
// loss.
//
// hotpath: zero-alloc
func (t *Trainer) backprop(x tensor.Vec, label int) float64 {
	net := t.Net
	out := net.forwardInto(x, t.pre, t.post)
	L := len(net.Layers)
	outLayer := net.Layers[L-1]

	// delta at the output layer: dLoss/dPre.
	delta := t.delta[L-1]
	var loss float64
	switch {
	case len(out) == 1 && outLayer.Act == Sigmoid:
		// Binary cross-entropy; dL/dz = p - y for sigmoid output.
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
		// Softmax cross-entropy over the (pre-activation) outputs. We apply
		// softmax to the *post*-activation values; for Linear they coincide.
		probs := t.probs
		tensor.SoftmaxInto(probs, out)
		p := clampProb(probs[label])
		loss = -math.Log(float64(p))
		for i := range delta {
			target := float32(0)
			if i == label {
				target = 1
			}
			// Chain through the output activation derivative too (identity
			// for Linear).
			delta[i] = (probs[i] - target) * outLayer.Act.Derivative(t.pre[L-1][i])
		}
	default:
		panic("ml: unsupported output configuration")
	}

	// Walk layers backwards. A row whose delta is ±0 (every dead ReLU unit's)
	// is skipped in both walks: its products are ±0 when the other factor is
	// finite, and adding ±0 changes no sum here — each starts at +0, and
	// under round-to-nearest a sum that starts at +0 can never become −0.
	// Where an input or a weight is NaN or ±Inf, 0·it is NaN, so that walk
	// stays dense.
	for li := L - 1; li >= 0; li-- {
		layer := net.Layers[li]
		input := x
		if li > 0 {
			input = t.post[li-1]
		}
		delta := t.delta[li]
		gradB := t.gradB[li]
		sparse := allFinite(input)
		rows := t.gradW[li].Data // rows[:len(input)] is the next row of gradW
		for r, d := range delta {
			gradB[r] += d
			if d != 0 || !sparse {
				row := rows[:len(input)]
				for c, in := range input {
					row[c] += d * in
				}
			}
			rows = rows[len(input):]
		}
		if li > 0 {
			// Wᵀ·delta over the live rows, four columns at a time: next[c]
			// sums r = 0, 1, 2, … into a zero, the order a column walk adds
			// in, and four sums stay in registers across the rows instead of
			// every product loading and storing next[c].
			live := t.live[:len(delta)]
			n := 0
			for r, d := range delta {
				if d != 0 || !t.finiteW[li] {
					live[n] = r
					n++
				}
			}
			live = live[:n]
			next, W := t.delta[li-1], layer.W.Data
			cols := len(next)
			c := 0
			for ; c+4 <= cols; c += 4 {
				var s0, s1, s2, s3 float32
				for _, r := range live {
					w, d := W[r*cols+c:][:4], delta[r]
					s0 += w[0] * d
					s1 += w[1] * d
					s2 += w[2] * d
					s3 += w[3] * d
				}
				next[c], next[c+1], next[c+2], next[c+3] = s0, s1, s2, s3
			}
			for ; c < cols; c++ {
				var s float32
				for _, r := range live {
					s += W[r*cols+c] * delta[r]
				}
				next[c] = s
			}
			net.Layers[li-1].Act.mulDerivative(next, t.pre[li-1])
		}
	}
	return loss
}

// allFinite reports whether no lane of v is NaN or ±Inf.
//
// hotpath: zero-alloc
func allFinite(v []float32) bool {
	for _, x := range v {
		if math.Float32bits(x)&0x7f800000 == 0x7f800000 {
			return false
		}
	}
	return true
}

func clampProb(p float32) float32 {
	const eps = 1e-7
	if p < eps {
		return eps
	}
	if p > 1-eps {
		return 1 - eps
	}
	return p
}
