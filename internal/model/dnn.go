package model

import (
	"fmt"
	"math/rand"

	"taurus/internal/dataset"
	"taurus/internal/fixed"
	"taurus/internal/lower"
	mr "taurus/internal/mapreduce"
	"taurus/internal/ml"
	"taurus/internal/tensor"
)

// DNNConfig parameterises the DNN lifecycle. The zero value of any field
// selects the default noted on it.
type DNNConfig struct {
	// LearningRate and Momentum configure the SGD steps (defaults 0.05, 0.9).
	LearningRate float32
	Momentum     float32
	// BatchSize is the SGD minibatch size (default 32).
	BatchSize int
	// Epochs is how many passes each Fit makes over its records (default 8).
	Epochs int
	// CalibSamples caps how many of the last Fit's inputs calibrate the
	// per-layer activation ranges at Lower time (default 256).
	CalibSamples int
	// Seed seeds the trainer's shuffling (default 1).
	Seed int64
}

func (c *DNNConfig) applyDefaults() {
	if c.LearningRate <= 0 {
		c.LearningRate = 0.05
	}
	if c.Momentum <= 0 {
		c.Momentum = 0.9
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 32
	}
	if c.Epochs <= 0 {
		c.Epochs = 8
	}
	if c.CalibSamples <= 0 {
		c.CalibSamples = 256
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// DNN is the Deployable lifecycle of a float feed-forward network: warm
// SGD retraining, post-training quantisation against the pinned input
// domain, and lowering to the per-neuron Map/Reduce graph. It absorbs the
// Trainer + QuantizeWithInput + lower.DNN plumbing the controller used to
// hardcode.
type DNN struct {
	cfg     DNNConfig
	net     *ml.DNN
	trainer *ml.Trainer

	// calib is the range-calibration set: copies of the last Fit's (or
	// Merge's) first CalibSamples inputs. Fit's copies live in calibBuf,
	// which it reuses, so nothing here aliases a caller's record buffers.
	calib    []tensor.Vec
	calibBuf []float32

	lastQ   *ml.QuantizedDNN // quantised twin of the last Lower
	version int
}

// NewDNN wraps net — the float model; the Deployable takes ownership — in
// its control-plane lifecycle.
func NewDNN(net *ml.DNN, cfg DNNConfig) (*DNN, error) {
	if net == nil {
		return nil, fmt.Errorf("model: nil DNN")
	}
	cfg.applyDefaults()
	d := &DNN{cfg: cfg, net: net}
	d.trainer = ml.NewTrainer(net, ml.SGDConfig{
		LearningRate: cfg.LearningRate,
		Momentum:     cfg.Momentum,
		BatchSize:    cfg.BatchSize,
		Epochs:       1,
	}, rand.New(rand.NewSource(cfg.Seed)))
	return d, nil
}

// Name identifies the model family.
func (d *DNN) Name() string { return "dnn" }

// NumFeatures returns the network's input width.
func (d *DNN) NumFeatures() int { return d.net.Layers[0].In() }

// Net exposes the owned float network (read-only use; training belongs to
// Fit).
func (d *DNN) Net() *ml.DNN { return d.net }

// Fit warm-trains the network for Epochs passes over recs.
func (d *DNN) Fit(recs []dataset.Record) error {
	if len(recs) == 0 {
		return fmt.Errorf("model: DNN Fit needs records")
	}
	X, y := dataset.Split(recs)
	for e := 0; e < d.cfg.Epochs; e++ {
		d.trainer.FitEpoch(X, y)
	}
	d.calib, d.calibBuf = copyCalib(d.calib, d.calibBuf, X, d.cfg.CalibSamples)
	return nil
}

// copyCalib copies the first limit vectors of X into buf, grown only when it
// is too small, and returns them as capacity-limited views of it in calib.
// Both arguments are overwritten from the start: views handed out by an
// earlier call on the same buf are dead.
func copyCalib(calib []tensor.Vec, buf []float32, X []tensor.Vec, limit int) ([]tensor.Vec, []float32) {
	if len(X) > limit {
		X = X[:limit]
	}
	total := 0
	for _, x := range X {
		total += len(x)
	}
	if cap(buf) < total {
		buf = make([]float32, 0, total)
	}
	if cap(calib) < len(X) {
		calib = make([]tensor.Vec, 0, len(X))
	}
	calib, buf = calib[:0], buf[:0]
	for _, x := range X {
		start := len(buf)
		buf = append(buf, x...)
		calib = append(calib, buf[start:len(buf):len(buf)])
	}
	return calib, buf
}

// dnnPartial is one chunk's federated update: the record-weighted weight
// deltas of a local SGD run started from the shared network, plus the
// chunk's share of the calibration sample.
type dnnPartial struct {
	records int
	dW      []tensor.Mat // per layer: (W_local - W_base) * records
	dB      []tensor.Vec
	calib   []tensor.Vec
}

// Records reports the chunk size — the partial's merge weight.
func (p *dnnPartial) Records() int { return p.records }

// PartialFit runs the configured Epochs of local SGD on a clone of the
// shared network and returns the record-weighted weight deltas (FedAvg).
// The clone's trainer is seeded from the chunk contents, so re-executing
// the task on any worker reproduces the partial bit-for-bit; the shared
// network is only read, never written.
func (d *DNN) PartialFit(chunk []dataset.Record) (Partial, error) {
	if len(chunk) == 0 {
		return nil, fmt.Errorf("model: DNN PartialFit needs records")
	}
	X, y := dataset.Split(chunk)
	local := d.net.Clone()
	tr := ml.NewTrainer(local, ml.SGDConfig{
		LearningRate: d.cfg.LearningRate,
		Momentum:     d.cfg.Momentum,
		BatchSize:    d.cfg.BatchSize,
		Epochs:       1,
	}, rand.New(rand.NewSource(chunkSeed(chunk)^d.cfg.Seed)))
	for e := 0; e < d.cfg.Epochs; e++ {
		tr.FitEpoch(X, y)
	}
	w := float32(len(chunk))
	p := &dnnPartial{records: len(chunk)}
	for li, l := range local.Layers {
		base := d.net.Layers[li]
		dW := tensor.NewMat(l.W.Rows, l.W.Cols)
		for j := range l.W.Data {
			dW.Data[j] = (l.W.Data[j] - base.W.Data[j]) * w
		}
		dB := make(tensor.Vec, len(l.B))
		for j := range l.B {
			dB[j] = (l.B[j] - base.B[j]) * w
		}
		p.dW = append(p.dW, dW)
		p.dB = append(p.dB, dB)
	}
	p.calib, _ = copyCalib(nil, nil, X, d.cfg.CalibSamples)
	return p, nil
}

// Merge applies the record-weighted average of the partials' deltas to the
// shared network — the FedAvg aggregation — and rebuilds the calibration
// sample from the partials in the given (chunk-index) order. Every partial
// must have been computed against the network's current weights; one of
// another shape is refused before anything is written.
func (d *DNN) Merge(parts []Partial) error {
	if len(parts) == 0 {
		return fmt.Errorf("model: DNN Merge needs partials")
	}
	var total float32
	for i, raw := range parts {
		p, ok := raw.(*dnnPartial)
		if !ok {
			return fmt.Errorf("model: DNN Merge got foreign partial %T", raw)
		}
		if len(p.dW) != len(d.net.Layers) {
			return fmt.Errorf("model: DNN Merge partial %d has %d layers, model has %d", i, len(p.dW), len(d.net.Layers))
		}
		for li, l := range d.net.Layers {
			dW := p.dW[li]
			if dW.Rows != l.W.Rows || dW.Cols != l.W.Cols || len(p.dB[li]) != len(l.B) {
				return fmt.Errorf("model: DNN Merge partial %d layer %d is %dx%d, model's is %dx%d",
					i, li, dW.Rows, dW.Cols, l.W.Rows, l.W.Cols)
			}
		}
		total += float32(p.records)
	}
	if total <= 0 {
		return fmt.Errorf("model: DNN Merge has no records")
	}
	var calib []tensor.Vec
	for li, l := range d.net.Layers {
		sumW := tensor.NewMat(l.W.Rows, l.W.Cols)
		sumB := make(tensor.Vec, len(l.B))
		for _, raw := range parts {
			p := raw.(*dnnPartial)
			for j := range sumW.Data {
				sumW.Data[j] += p.dW[li].Data[j]
			}
			for j := range sumB {
				sumB[j] += p.dB[li][j]
			}
		}
		for j := range l.W.Data {
			l.W.Data[j] += sumW.Data[j] / total
		}
		for j := range l.B {
			l.B[j] += sumB[j] / total
		}
	}
	for _, raw := range parts {
		calib = append(calib, raw.(*dnnPartial).calib...)
	}
	if len(calib) > d.cfg.CalibSamples {
		calib = calib[:d.cfg.CalibSamples]
	}
	d.calib = calib
	return nil
}

// Lower requantises the network against the pinned input quantiser and
// builds a fresh graph.
func (d *DNN) Lower(inQ fixed.Quantizer) (*mr.Graph, error) {
	if len(d.calib) == 0 {
		return nil, fmt.Errorf("model: DNN Lower before Fit (no calibration set)")
	}
	q, err := ml.QuantizeWithInput(d.net, d.calib, inQ)
	if err != nil {
		return nil, err
	}
	d.version++
	g, err := lower.DNN(q, fmt.Sprintf("dnn-%s-v%d", d.net.KernelString(), d.version))
	if err != nil {
		return nil, err
	}
	d.lastQ = q
	return g, nil
}

// Score returns the float network's scalar decision statistic: the single
// sigmoid output for binary detectors, the argmax index otherwise.
func (d *DNN) Score(x tensor.Vec) float64 {
	out := d.net.Forward(x)
	if len(out) == 1 {
		return float64(out[0])
	}
	return float64(tensor.ArgMax(out))
}

// ReferenceDecision runs the last-lowered quantised network on x and returns
// the first output lane's code — what every data-plane shard must report as
// MLScore after the matching push.
func (d *DNN) ReferenceDecision(inQ fixed.Quantizer, x tensor.Vec) (int32, error) {
	if d.lastQ == nil {
		return 0, fmt.Errorf("model: DNN reference before Lower")
	}
	if d.lastQ.InputQ != inQ {
		return 0, fmt.Errorf("model: DNN reference quantiser (scale %v) differs from deployed (scale %v)",
			inQ.Scale, d.lastQ.InputQ.Scale)
	}
	out := d.lastQ.ForwardCodes(inQ.QuantizeSlice(x))
	return int32(out[0]), nil
}
