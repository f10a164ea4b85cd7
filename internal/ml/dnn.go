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
	return n.forwardInto(x, act, act, nil, nil)
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

// activeLists returns one buffer per layer for the indices of its active
// units — the ReLU outputs that are not 0 — where the next layer's walks go
// by them: every ReLU layer that has a layer after it. Other layers get nil.
// The choice follows the layer activations, which stay as they are for the
// lists' lifetime. No width threshold pays for itself: listing even the
// 3-wide layer of 6-12-6-3-1 made its Fit faster.
func (n *DNN) activeLists() [][]int {
	lists := make([][]int, len(n.Layers))
	for i, l := range n.Layers[:len(n.Layers)-1] {
		if l.Act == ReLU {
			lists[i] = make([]int, 0, l.Out())
		}
	}
	return lists
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
// Where active[i] is a buffer (activeLists), layer i's ReLU pass also lists
// its active units in increasing order and leaves active[i] holding them.
// The next layer's rows then sum over the listed inputs only if its weights
// are all finite (finiteW[i+1]): every input dropped is exactly 0, so every
// term dropped is finite·0 = ±0, and adding ±0 to a sum that starts at +0
// changes no bit (see backprop). With a NaN or ±Inf weight, 0·it is NaN, so
// the layer keeps the dense sum. Forward passes no lists and no flags.
//
// hotpath: zero-alloc
func (n *DNN) forwardInto(x tensor.Vec, pre, post []tensor.Vec, active [][]int, finiteW []bool) tensor.Vec {
	cur := x
	var on []int // cur's active units, when the layer that wrote cur listed them
	for i, l := range n.Layers {
		if len(cur) != l.W.Cols {
			panic("ml: DNN layer input width mismatch")
		}
		z := pre[i]
		k := len(cur)
		if on != nil && finiteW[i] {
			sumListed(z, l.W.Data, cur, on)
		} else {
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
		}
		for r, b := range l.B[:len(z)] {
			z[r] += b
		}
		if active != nil && active[i] != nil {
			on = reluListing(post[i], z, active[i][:cap(active[i])])
			active[i] = on
		} else {
			l.Act.applyTo(post[i], z)
			on = nil
		}
		cur = post[i]
	}
	return cur
}

// sumListed is forwardInto's row sums over the listed inputs only: z[r] sums
// w[r][c]·in[c] for c in on, in on's (increasing) order, four rows to a pass.
//
// hotpath: zero-alloc
func sumListed(z, w, in tensor.Vec, on []int) {
	k := len(in)
	r := 0
	for ; r+4 <= len(z); r += 4 {
		w0, w1, w2, w3 := w[:k], w[k:][:k], w[2*k:][:k], w[3*k:][:k]
		var s0, s1, s2, s3 float32
		for _, c := range on {
			v := in[c]
			s0 += w0[c] * v
			s1 += w1[c] * v
			s2 += w2[c] * v
			s3 += w3[c] * v
		}
		z[r], z[r+1], z[r+2], z[r+3] = s0, s1, s2, s3
		w = w[4*k:]
	}
	for ; r < len(z); r++ {
		row := w[:k]
		var s float32
		for _, c := range on {
			s += row[c] * in[c]
		}
		z[r] = s
		w = w[k:]
	}
}

// reluListing is applyTo's ReLU pass that also writes the index of every
// output that is not 0 — every x > 0 — to on, in increasing order, and
// returns that prefix of on.
//
// hotpath: zero-alloc
func reluListing(dst, xs []float32, on []int) []int {
	dst, on = dst[:len(xs)], on[:len(xs)]
	n := 0
	for i, x := range xs {
		if x > 0 {
			dst[i] = x
			on[n] = i
			n++
		} else {
			dst[i] = 0
		}
	}
	return on[:n]
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
// Nothing else differs by a bit: the trainer skips only work whose result is
// known exactly — the rows of a delta that is ±0 and, behind a ReLU layer,
// the columns of an output that is 0 — and each skip sits behind the
// finiteness guard that makes it exact (backprop). The layers whose units
// are listed are chosen in NewTrainer from the layer activations, which a
// Trainer's life does not change.
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
	// back-propagated dLoss/dPre per layer; active[i] lists layer i's
	// non-zero outputs for the walks that go by them (nil where layer i is
	// not listed, see DNN.activeLists); gradW and gradB accumulate one
	// minibatch; probs is the softmax of the output layer; perm is the
	// epoch's visiting order; finiteW[i] says whether layer i's weights were
	// all finite when the minibatch began, and maxW[i] is then their largest
	// magnitude; live lists the rows a layer's Wᵀ·delta walks.
	pre, post, delta []tensor.Vec
	active           [][]int
	gradW            []tensor.Mat
	gradB            []tensor.Vec
	probs            tensor.Vec
	perm, live       []int
	finiteW          []bool
	maxW             []float32
}

// NewTrainer wires a trainer to net.
func NewTrainer(net *DNN, cfg SGDConfig, rng *rand.Rand) *Trainer {
	t := &Trainer{
		Net: net, Cfg: cfg, rng: rng,
		velB: net.layerVecs(), gradB: net.layerVecs(),
		pre: net.layerVecs(), post: net.layerVecs(), delta: net.layerVecs(),
		active:  net.activeLists(),
		finiteW: make([]bool, len(net.Layers)),
		maxW:    make([]float32, len(net.Layers)),
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
		m := maxMagnitudeBits(l.W.Data)
		t.finiteW[i], t.maxW[i] = m < 0x7f800000, math.Float32frombits(m)
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
	out := net.forwardInto(x, t.pre, t.post, t.active, t.finiteW)
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

	// Walk layers backwards, skipping what only ever adds ±0. Every sum here
	// starts at +0, under round-to-nearest a sum that starts at +0 can never
	// become −0, and adding ±0 to anything else returns it unchanged; a
	// product is ±0 when one factor is ±0 and the other finite, but 0·NaN and
	// 0·Inf are NaN, so each skip waits on the finiteness of the other factor:
	//   - a row whose delta is ±0 (every dead ReLU unit's) adds nothing to
	//     gradW if the layer's input is all finite, and nothing to Wᵀ·delta
	//     if the layer's weights are (finiteW);
	//   - an input that is 0 behind a listed ReLU layer adds nothing to a
	//     row of gradW whose delta is finite, so that row walks the listed
	//     inputs only;
	//   - a unit of the listed layer below whose output is 0 has ReLU
	//     derivative 0, so its next delta is (Wᵀ·delta)[c]·0 = ±0 as long as
	//     that sum is finite. With finite weights and max|w|·Σ|delta| ≤
	//     MaxFloat32/2 no partial sum can overflow, so Wᵀ·delta is summed for
	//     the listed units only (whose derivative is 1) and the others are
	//     set to +0. That can turn a −0 delta into +0, which nothing reads:
	//     every walk treats ±0 deltas alike, and gradB adds them to sums that
	//     are never −0.
	// Elsewhere the dense walk runs.
	for li := L - 1; li >= 0; li-- {
		layer := net.Layers[li]
		input := x
		var on []int // input's non-zero lanes, when layer li-1 listed them
		if li > 0 {
			input, on = t.post[li-1], t.active[li-1]
		}
		delta := t.delta[li]
		gradB := t.gradB[li]
		sparse := allFinite(input)
		rows := t.gradW[li].Data // rows[:len(input)] is the next row of gradW
		for r, d := range delta {
			gradB[r] += d
			row := rows[:len(input)]
			switch {
			case d == 0 && sparse:
			case on != nil && isFinite(d):
				for _, c := range on {
					row[c] += d * input[c]
				}
			default:
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
			var mass float32 // Σ|delta|
			for r, d := range delta {
				if d != 0 || !t.finiteW[li] {
					live[n] = r
					n++
				}
				mass += math.Float32frombits(math.Float32bits(d) &^ (1 << 31))
			}
			live = live[:n]
			next, W := t.delta[li-1], layer.W.Data
			if on != nil && t.maxW[li]*mass <= math.MaxFloat32/2 {
				clear(next)
				sumColumns(next, W, delta, live, on)
				continue
			}
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

// sumColumns is backprop's Wᵀ·delta for the listed columns only, four to a
// pass over the live rows: next[c] for c in on sums W[r][c]·delta[r] over r
// in live, in live's order.
//
// hotpath: zero-alloc
func sumColumns(next, W, delta tensor.Vec, live, on []int) {
	cols := len(next)
	j := 0
	for ; j+4 <= len(on); j += 4 {
		c0, c1, c2, c3 := on[j], on[j+1], on[j+2], on[j+3]
		var s0, s1, s2, s3 float32
		for _, r := range live {
			w, d := W[r*cols:][:cols], delta[r]
			s0 += w[c0] * d
			s1 += w[c1] * d
			s2 += w[c2] * d
			s3 += w[c3] * d
		}
		next[c0], next[c1], next[c2], next[c3] = s0, s1, s2, s3
	}
	for ; j < len(on); j++ {
		c := on[j]
		var s float32
		for _, r := range live {
			s += W[r*cols+c] * delta[r]
		}
		next[c] = s
	}
}

// isFinite reports whether x is neither NaN nor ±Inf.
func isFinite(x float32) bool { return math.Float32bits(x)&0x7f800000 != 0x7f800000 }

// allFinite reports whether no lane of v is NaN or ±Inf.
//
// hotpath: zero-alloc
func allFinite(v []float32) bool {
	for _, x := range v {
		if !isFinite(x) {
			return false
		}
	}
	return true
}

// maxMagnitudeBits returns the largest of v's bit patterns with the sign
// cleared: at least 0x7f800000 if v holds a NaN or ±Inf, and otherwise the
// bits of max|v| — one pass gives both the finiteness flag and the bound.
//
// hotpath: zero-alloc
func maxMagnitudeBits(v []float32) uint32 {
	var m uint32
	for _, x := range v {
		m = max(m, math.Float32bits(x)&^(1<<31))
	}
	return m
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
