package ml

import (
	"fmt"
	"math"

	"taurus/internal/fixed"
	"taurus/internal/tensor"
)

// QuantizedDense is an 8-bit version of one Dense layer: int8 weights with a
// per-tensor scale, int32 biases at the accumulator scale, and an integer
// requantisation multiplier to the layer's output scale. This is exactly the
// arithmetic the CGRA datapath executes (§5.1.1, Table 3).
type QuantizedDense struct {
	W       [][]int8 // Out x In
	B       []int32  // Out, at scale inScale*wScale
	Act     Activation
	WScale  float64          // weight quantiser scale
	InQ     fixed.Quantizer  // input quantiser
	OutQ    fixed.Quantizer  // output quantiser
	Requant fixed.Multiplier // inScale*wScale/outScale

	// ActTable realises Sigmoid/Tanh as a 1024-entry 8-bit lookup table
	// (§5.1.3), shared bit-exactly with the CGRA lowering.
	ActTable *QuantLUT
}

// QuantLUTSize matches the hardware table size (§5.1.3: 1024 8-bit entries).
const QuantLUTSize = 1024

// QuantLUT maps a 32-bit accumulator to an 8-bit output code: the
// accumulator is requantised to a 10-bit index (clamped), which selects a
// precomputed entry.
type QuantLUT struct {
	IdxMult fixed.Multiplier
	Table   [QuantLUTSize]int8
}

// Apply evaluates the table.
func (l *QuantLUT) Apply(acc int32) int8 {
	idx := l.IdxMult.Apply(acc)
	if idx < -QuantLUTSize/2 {
		idx = -QuantLUTSize / 2
	}
	if idx > QuantLUTSize/2-1 {
		idx = QuantLUTSize/2 - 1
	}
	return l.Table[idx+QuantLUTSize/2]
}

// lutPreClamp bounds the pre-activation range the table covers; sigmoid and
// tanh are saturated well before ±8.
const lutPreClamp = 8.0

// NewQuantLUT tabulates act over pre-activations in [-lutPreClamp,
// +lutPreClamp], where the accumulator's real value is acc*accScale and
// outputs are coded with outQ.
func NewQuantLUT(act Activation, accScale float64, outQ fixed.Quantizer) (*QuantLUT, error) {
	idxScale := lutPreClamp / float64(QuantLUTSize/2-1)
	mult, err := fixed.NewMultiplier(accScale / idxScale)
	if err != nil {
		return nil, fmt.Errorf("ml: LUT index multiplier: %w", err)
	}
	l := &QuantLUT{IdxMult: mult}
	for i := 0; i < QuantLUTSize; i++ {
		pre := float64(i-QuantLUTSize/2) * idxScale
		l.Table[i] = outQ.Quantize(act.Apply(float32(pre)))
	}
	return l, nil
}

// In returns the layer input width.
func (l *QuantizedDense) In() int {
	if len(l.W) == 0 {
		return 0
	}
	return len(l.W[0])
}

// Out returns the layer output width.
func (l *QuantizedDense) Out() int { return len(l.W) }

// QuantizedDNN is an int8 feed-forward network produced by post-training
// quantisation of a float DNN against a calibration set.
type QuantizedDNN struct {
	Layers []*QuantizedDense
	// InputQ quantises raw float features into the first layer's domain
	// (in hardware this is done by the preprocessing MATs, §3.1).
	InputQ fixed.Quantizer
}

// Quantize converts a trained float DNN to int8 using calib (a sample of
// inputs) to calibrate per-layer activation ranges. It returns an error when
// the calibration set is empty.
func Quantize(n *DNN, calib []tensor.Vec) (*QuantizedDNN, error) {
	return quantize(n, calib, nil)
}

// QuantizeWithInput quantises like Quantize but pins the input quantiser to
// inQ instead of calibrating it. The control plane uses this when retraining
// a model that is already deployed: the data plane's preprocessing MATs keep
// quantising features with the quantiser installed at LoadModel, so pushed
// weights must be scaled against that same input domain — not against
// whatever range the retraining batch happened to cover.
func QuantizeWithInput(n *DNN, calib []tensor.Vec, inQ fixed.Quantizer) (*QuantizedDNN, error) {
	return quantize(n, calib, &inQ)
}

func quantize(n *DNN, calib []tensor.Vec, pinnedInQ *fixed.Quantizer) (*QuantizedDNN, error) {
	if len(calib) == 0 {
		return nil, fmt.Errorf("ml: quantisation needs a calibration set")
	}
	// Observe the dynamic range of every layer boundary over the
	// calibration set, by the trainer's forward pass: the weights' finiteness
	// is taken once, and the layers the trainer lists units of are listed.
	inMax := make([]float32, len(n.Layers)+1) // inMax[i] = absmax input to layer i
	act, active := n.layerVecs(), n.activeLists()
	finiteW := make([]bool, len(n.Layers))
	for i, l := range n.Layers {
		finiteW[i] = allFinite(l.W.Data)
	}
	for _, x := range calib {
		if m := tensor.AbsMax(x); m > inMax[0] {
			inMax[0] = m
		}
		n.forwardInto(x, act, act, active, finiteW)
		for i, a := range act {
			if m := tensor.AbsMax(a); m > inMax[i+1] {
				inMax[i+1] = m
			}
		}
	}

	q := &QuantizedDNN{InputQ: fixed.NewQuantizer(float64(inMax[0]))}
	if pinnedInQ != nil {
		q.InputQ = *pinnedInQ
	}
	inQ := q.InputQ
	for i, l := range n.Layers {
		wq := fixed.QuantizerFor(l.W.Data)
		outQ := fixed.NewQuantizer(float64(inMax[i+1]))
		ratio := inQ.Scale * wq.Scale / outQ.Scale
		mult, err := fixed.NewMultiplier(ratio)
		if err != nil {
			return nil, fmt.Errorf("ml: layer %d requantiser: %w", i, err)
		}
		ql := &QuantizedDense{
			Act:     l.Act,
			WScale:  wq.Scale,
			InQ:     inQ,
			OutQ:    outQ,
			Requant: mult,
		}
		if l.Act == Sigmoid || l.Act == Tanh {
			lut, err := NewQuantLUT(l.Act, inQ.Scale*wq.Scale, outQ)
			if err != nil {
				return nil, fmt.Errorf("ml: layer %d activation LUT: %w", i, err)
			}
			ql.ActTable = lut
		}
		ql.W = make([][]int8, l.W.Rows)
		for r := 0; r < l.W.Rows; r++ {
			ql.W[r] = wq.QuantizeSlice(l.W.Row(r))
		}
		ql.B = make([]int32, len(l.B))
		accScale := inQ.Scale * wq.Scale
		for j, b := range l.B {
			ql.B[j] = roundClampI32(float64(b) / accScale)
		}
		q.Layers = append(q.Layers, ql)
		inQ = outQ
	}
	return q, nil
}

// ForwardCodes runs int8 inference from already-quantised input codes and
// returns the output codes of the last layer. This is the bit-exact
// reference for the CGRA simulator.
func (q *QuantizedDNN) ForwardCodes(codes []int8) []int8 {
	cur := codes
	for _, l := range q.Layers {
		cur = l.ForwardCodes(cur)
	}
	return cur
}

// ForwardCodes executes one quantised layer on int8 codes.
func (l *QuantizedDense) ForwardCodes(in []int8) []int8 {
	if len(in) != l.In() {
		panic(fmt.Sprintf("ml: quantised layer input %d, want %d", len(in), l.In()))
	}
	out := make([]int8, l.Out())
	for r := range l.W {
		acc := l.B[r]
		for c, w := range l.W[r] {
			acc += int32(w) * int32(in[c])
		}
		out[r] = l.finish(acc)
	}
	return out
}

// finish applies the activation and requantisation to an int32 accumulator,
// producing the int8 output code.
func (l *QuantizedDense) finish(acc int32) int8 {
	switch l.Act {
	case ReLU:
		if acc < 0 {
			acc = 0
		}
		return l.Requant.ApplySat8(acc)
	case LeakyReLU:
		if acc < 0 {
			// 0.01*x ≈ x*82/8192 on integer hardware.
			acc = int32((int64(acc)*82 + 4096) >> 13)
		}
		return l.Requant.ApplySat8(acc)
	case Linear:
		return l.Requant.ApplySat8(acc)
	case Sigmoid, Tanh:
		// Hardware realises these as a 1024-entry lookup table in an MU
		// (§5.1.3); using the same table here keeps the reference model
		// bit-exact with the CGRA.
		return l.ActTable.Apply(acc)
	default:
		panic("ml: unsupported quantised activation " + l.Act.String())
	}
}

// Forward quantises a float input, runs int8 inference, and dequantises the
// output — the end-to-end 8-bit path used for Table 3 accuracy comparisons.
func (q *QuantizedDNN) Forward(x tensor.Vec) tensor.Vec {
	codes := q.InputQ.QuantizeSlice(x)
	out := q.ForwardCodes(codes)
	last := q.Layers[len(q.Layers)-1]
	return last.OutQ.DequantizeSlice(out)
}

// PredictClass mirrors DNN.PredictClass on the 8-bit path.
func (q *QuantizedDNN) PredictClass(x tensor.Vec) int {
	out := q.Forward(x)
	if len(out) == 1 {
		if out[0] >= 0.5 {
			return 1
		}
		return 0
	}
	return tensor.ArgMax(out)
}

func roundClampI32(v float64) int32 {
	r := math.RoundToEven(v)
	if r > math.MaxInt32 {
		return math.MaxInt32
	}
	if r < math.MinInt32 {
		return math.MinInt32
	}
	return int32(r)
}
