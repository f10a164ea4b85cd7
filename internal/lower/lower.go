// Package lower translates trained, quantised models into MapReduce dataflow
// graphs — the role the Spatial DSL frontend plays in the paper (§4
// "Target-Dependent Compilation"): models become nested Map/Reduce patterns
// that internal/compiler then places onto the CGRA grid.
//
// Every lowering preserves the quantised reference semantics: evaluating the
// produced graph on input codes gives bit-identical results to the
// corresponding internal/ml quantised model (tested in lower_test.go), so
// the CGRA data plane and the control-plane reference can never diverge.
package lower

import (
	"fmt"
	"math"

	"taurus/internal/fixed"
	mr "taurus/internal/mapreduce"
	"taurus/internal/ml"
)

// DNN lowers a quantised feed-forward network. Graph input: the int8 feature
// codes (width = first layer's fan-in). Graph output: the final layer's
// output codes.
func DNN(q *ml.QuantizedDNN, name string) (*mr.Graph, error) {
	if len(q.Layers) == 0 {
		return nil, fmt.Errorf("lower: DNN has no layers")
	}
	b := mr.NewBuilder(name)
	x := b.Input("features", q.Layers[0].In())
	for li, l := range q.Layers {
		// One dot product per neuron: the inner Map/Reduce pair of Figure 4.
		neurons := make([]mr.Value, l.Out())
		for r := 0; r < l.Out(); r++ {
			w := b.ConstInt8(fmt.Sprintf("W%d_%d", li, r), l.W[r])
			acc := b.DotProduct(w, x)
			acc = b.Map(mr.MAdd, acc, b.Scalar(fmt.Sprintf("b%d_%d", li, r), l.B[r]))
			neurons[r] = acc
		}
		z := neurons[0]
		if len(neurons) > 1 {
			z = b.Concat(neurons...)
		}
		// The outer map applies the activation across the layer (Figure 4's
		// final Map over LinearResults).
		switch l.Act {
		case ml.ReLU:
			z = b.Unary(mr.UReLU, z)
			z = b.Requant(z, l.Requant)
		case ml.LeakyReLU:
			z = b.Unary(mr.ULeakyReLU, z)
			z = b.Requant(z, l.Requant)
		case ml.Linear:
			z = b.Requant(z, l.Requant)
		case ml.Sigmoid, ml.Tanh:
			z = b.ApplyLUT(z, lutFromML(l.ActTable))
		default:
			return nil, fmt.Errorf("lower: unsupported activation %v", l.Act)
		}
		x = z
	}
	b.Output(x)
	return b.Build()
}

// lutFromML converts the ml-side activation table to the IR's LUT payload
// (identical layout, so the two paths are bit-exact).
func lutFromML(t *ml.QuantLUT) *mr.LUT {
	l := &mr.LUT{Mult: t.IdxMult}
	copy(l.Table[:], t.Table[:])
	return l
}

// KMeans lowers nearest-centroid classification: one squared-distance
// Map/Reduce per centroid, then an ArgMin reduction (§3.3.2's eRSS shape).
// inQ is the feature quantiser shared with the preprocessing MATs; argmin
// over quantised distances equals argmin over real distances up to
// quantisation error. The graph outputs the winning cluster index.
func KMeans(km *ml.KMeans, inQ fixed.Quantizer, name string) (*mr.Graph, error) {
	if km.K() == 0 {
		return nil, fmt.Errorf("lower: KMeans has no centroids")
	}
	dim := len(km.Centroids[0])
	b := mr.NewBuilder(name)
	x := b.Input("features", dim)
	dists := make([]mr.Value, km.K())
	for c, centroid := range km.Centroids {
		codes := inQ.QuantizeSlice(centroid)
		cv := b.ConstInt8(fmt.Sprintf("centroid%d", c), codes)
		diff := b.Map(mr.MSub, x, cv)
		sq := b.Map(mr.MMul, diff, diff)
		dists[c] = b.Reduce(mr.RAdd, sq)
	}
	all := b.Concat(dists...)
	class := b.Reduce(mr.RArgMin, all)
	b.Output(class)
	return b.Build()
}

// QuantizeKMeansPredict is the reference for the lowered KMeans graph:
// nearest centroid measured in the quantised code domain.
func QuantizeKMeansPredict(km *ml.KMeans, inQ fixed.Quantizer, x []float32) int {
	codes := inQ.QuantizeSlice(x)
	best, bestD := 0, int64(math.MaxInt64)
	for c, centroid := range km.Centroids {
		cc := inQ.QuantizeSlice(centroid)
		var d int64
		for i := range codes {
			diff := int64(codes[i]) - int64(cc[i])
			d += diff * diff
		}
		if d < bestD {
			best, bestD = c, d
		}
	}
	return best
}

// svmPlan holds the quantised parameters of a lowered SVM: the int8 support
// vectors, the kernel lookup table, the quantised dual coefficients and the
// bias code. The graph builder (SVM) and the direct reference evaluator
// (SVMReference) both derive from one plan, so the two paths cannot drift
// apart.
type svmPlan struct {
	inQ     fixed.Quantizer
	svCodes [][]int8
	lut     *mr.LUT
	coef    []int8
	bias    int32
}

// planSVM compresses s to maxSV support vectors and quantises every deployed
// parameter.
func planSVM(s *ml.SVM, inQ fixed.Quantizer, maxSV int) (*svmPlan, error) {
	if len(s.SupportVecs) == 0 {
		return nil, fmt.Errorf("lower: SVM has no support vectors")
	}
	s = s.Compress(maxSV)

	// Kernel LUT: entry(idx) = round(127 * exp(-pre)) with pre = idx *
	// preStep covering [0, lutPreMax].
	const lutPreMax = 8.0
	preStep := lutPreMax / float64(mr.LUTSize/2-1)
	gammaCodes := float64(s.Gamma) * inQ.Scale * inQ.Scale // real pre per code-distance unit
	idxMult, err := fixed.NewMultiplier(gammaCodes / preStep)
	if err != nil {
		return nil, fmt.Errorf("lower: SVM kernel LUT multiplier: %w", err)
	}
	lut := &mr.LUT{Mult: idxMult}
	for i := 0; i < mr.LUTSize; i++ {
		idx := i - mr.LUTSize/2
		if idx < 0 {
			lut.Table[i] = 127 // distances are non-negative; unreachable half
			continue
		}
		lut.Table[i] = int8(math.RoundToEven(127 * math.Exp(-float64(idx)*preStep)))
	}

	// Dual coefficients quantised symmetrically.
	alphaQ := fixed.QuantizerFor(s.Coeffs)
	// Bias at the accumulator scale alphaScale * (1/127).
	accScale := alphaQ.Scale / 127
	p := &svmPlan{
		inQ:  inQ,
		lut:  lut,
		coef: alphaQ.QuantizeSlice(s.Coeffs),
		bias: int32(math.RoundToEven(float64(s.Bias) / accScale)),
	}
	for _, sv := range s.SupportVecs {
		p.svCodes = append(p.svCodes, inQ.QuantizeSlice(sv))
	}
	return p, nil
}

// graph builds the MapReduce program for the plan.
func (p *svmPlan) graph(name string) (*mr.Graph, error) {
	dim := len(p.svCodes[0])
	b := mr.NewBuilder(name)
	x := b.Input("features", dim)
	kernels := make([]mr.Value, len(p.svCodes))
	for i, codes := range p.svCodes {
		cv := b.ConstInt8(fmt.Sprintf("sv%d", i), codes)
		diff := b.Map(mr.MSub, x, cv)
		sq := b.Map(mr.MMul, diff, diff)
		d := b.Reduce(mr.RAdd, sq)
		kernels[i] = b.ApplyLUT(d, p.lut)
	}
	kvec := b.Concat(kernels...)
	coeffs := b.ConstInt8("alpha", p.coef)
	dec := b.DotProduct(coeffs, kvec)
	dec = b.Map(mr.MAdd, dec, b.Scalar("bias", p.bias))
	b.Output(dec)
	return b.Build()
}

// reference builds the direct evaluator for the plan.
func (p *svmPlan) reference() *SVMReference {
	dim := len(p.svCodes[0])
	return &SVMReference{
		plan: p,
		in:   make([]int32, dim),
		sq:   make([]int32, dim),
		ks:   make([]int32, len(p.svCodes)),
	}
}

// SVM lowers an RBF SVM: per support vector a squared-distance Map/Reduce,
// an exp(-gamma*d) kernel LUT, then a weighted sum (dot product with the
// dual coefficients) plus bias. Output: the sign-significant decision
// accumulator (positive = anomalous). maxSV caps the support set via
// (*ml.SVM).Compress to fit the grid.
func SVM(s *ml.SVM, inQ fixed.Quantizer, maxSV int, name string) (*mr.Graph, error) {
	p, err := planSVM(s, inQ, maxSV)
	if err != nil {
		return nil, err
	}
	return p.graph(name)
}

// SVMWithReference lowers the SVM and returns the matching reference
// evaluator, both derived from one quantisation plan — the pair a
// deployment wants, and the only construction in which graph/reference
// parity is guaranteed by sharing rather than by determinism.
func SVMWithReference(s *ml.SVM, inQ fixed.Quantizer, maxSV int, name string) (*mr.Graph, *SVMReference, error) {
	p, err := planSVM(s, inQ, maxSV)
	if err != nil {
		return nil, nil, err
	}
	g, err := p.graph(name)
	if err != nil {
		return nil, nil, err
	}
	return g, p.reference(), nil
}

// SVMReference evaluates the exact quantised arithmetic of the lowered SVM
// graph — same IR operators, same LUT, same saturation — without building or
// interpreting a graph. Build it once per deployment and call Decision per
// sample; this is what the control plane uses for parity checks against the
// data plane's verdicts.
type SVMReference struct {
	plan *svmPlan
	in   []int32 // scratch: quantised input codes
	sq   []int32 // scratch: per-lane squared differences
	ks   []int32 // scratch: per-SV kernel codes
}

// NewSVMReference quantises s against inQ (capped at maxSV support vectors)
// and returns a reusable reference evaluator.
func NewSVMReference(s *ml.SVM, inQ fixed.Quantizer, maxSV int) (*SVMReference, error) {
	p, err := planSVM(s, inQ, maxSV)
	if err != nil {
		return nil, err
	}
	return p.reference(), nil
}

// NumFeatures returns the model's input width.
func (r *SVMReference) NumFeatures() int { return len(r.in) }

// Decision returns the quantised decision code for x — bit-identical to the
// single output lane of the lowered graph evaluated on the same features. It
// performs no heap allocation.
func (r *SVMReference) Decision(x []float32) (int32, error) {
	if len(x) != len(r.in) {
		return 0, fmt.Errorf("lower: SVM reference got %d features, want %d", len(x), len(r.in))
	}
	p := r.plan
	for i, v := range x {
		r.in[i] = int32(p.inQ.Quantize(v))
	}
	// Mirror the graph node-for-node via the IR's own operator semantics:
	// Map(Sub), Map(Mul), Reduce(Add), LUT per support vector, then the
	// coefficient dot product and the bias add.
	for s, codes := range p.svCodes {
		for i, c := range codes {
			d := mr.MSub.Apply(r.in[i], int32(c))
			r.sq[i] = mr.MMul.Apply(d, d)
		}
		r.ks[s] = p.lut.Apply(mr.RAdd.Apply(r.sq))
	}
	for s := range r.ks {
		r.ks[s] = mr.MMul.Apply(int32(p.coef[s]), r.ks[s])
	}
	return mr.MAdd.Apply(mr.RAdd.Apply(r.ks), p.bias), nil
}
