// Package dataset generates the labelled workloads the paper evaluates on.
//
// The paper uses NSL-KDD connection records (expanded to binned packet
// traces, §5.2.2) for anomaly detection and TMC IoT traffic for the Table 3
// classifiers. Neither raw dataset can ship in this repository, so we build
// seeded synthetic equivalents: class-conditional feature distributions with
// heavy-tailed traffic statistics, deliberately overlapping so that a
// well-trained model lands near the paper's operating points (offline F1
// ≈ 71 for the anomaly DNN, accuracy ≈ 67% for the IoT classifiers) rather
// than at a trivially-separable 100%.
package dataset

import (
	"fmt"
	"math"
	"math/rand"

	"taurus/internal/tensor"
)

// Class labels the traffic categories of the NSL-KDD taxonomy (Table 1 uses
// the same attack families).
type Class int

const (
	// Benign is normal traffic.
	Benign Class = iota
	// DoS is a volumetric denial-of-service flow (e.g. SYN flood).
	DoS
	// Probe is reconnaissance (e.g. port scan).
	Probe
	// U2R is an unauthorised-access-to-root attack.
	U2R
	// R2L is an unauthorised remote access attack.
	R2L
	numClasses
)

// String names the class like the KDD literature does.
func (c Class) String() string {
	switch c {
	case Benign:
		return "benign"
	case DoS:
		return "dos"
	case Probe:
		return "probe"
	case U2R:
		return "u2r"
	case R2L:
		return "r2l"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// Anomalous reports whether the class is an attack.
func (c Class) Anomalous() bool { return c != Benign }

// NumAnomalyFeatures is the anomaly-detection feature count: the paper's DNN
// uses a six-feature KDD subset (§5.1.2).
const NumAnomalyFeatures = 6

// NumSVMFeatures is the SVM's eight-feature KDD subset (§5.1.2).
const NumSVMFeatures = 8

// Record is one labelled connection.
type Record struct {
	Features tensor.Vec
	Class    Class
}

// Anomalous reports whether the record is an attack.
func (r Record) Anomalous() bool { return r.Class.Anomalous() }

// AnomalyConfig parameterises the synthetic KDD-like generator.
type AnomalyConfig struct {
	// NumFeatures selects the feature-subset width (6 for the DNN, 8 for
	// the SVM). Must be between 1 and 8.
	NumFeatures int
	// AnomalyFraction is the fraction of attack records (default 0.3 — NSL-
	// KDD is attack-heavy).
	AnomalyFraction float64
	// Separation scales how far attack feature distributions sit from
	// benign ones. 0.5 is calibrated so the trained anomaly DNN's offline
	// F1 lands near the paper's 71.1 (§5.2.2).
	Separation float64
}

// DefaultAnomalyConfig returns the calibrated configuration.
func DefaultAnomalyConfig() AnomalyConfig {
	return AnomalyConfig{NumFeatures: NumAnomalyFeatures, AnomalyFraction: 0.3, Separation: 0.5}
}

// validate normalises and checks the configuration.
func (c *AnomalyConfig) validate() error {
	if c.NumFeatures <= 0 || c.NumFeatures > 8 {
		return fmt.Errorf("dataset: NumFeatures must be in [1,8], got %d", c.NumFeatures)
	}
	if c.AnomalyFraction <= 0 || c.AnomalyFraction >= 1 {
		return fmt.Errorf("dataset: AnomalyFraction must be in (0,1), got %v", c.AnomalyFraction)
	}
	if c.Separation <= 0 {
		return fmt.Errorf("dataset: Separation must be positive, got %v", c.Separation)
	}
	return nil
}

// featureModel describes how one feature is distributed for one class:
// value = logNormal(mu, sigma) truncated and then log-compressed, mimicking
// KDD's heavy-tailed counters (duration, bytes, counts) after the log
// preprocessing of §3.1.
type featureModel struct {
	mu    float64 // mean of underlying normal
	sigma float64
}

// classModels[class][feature]. Feature semantics (KDD-ish):
// 0 duration, 1 src_bytes, 2 dst_bytes, 3 count (conns to same host / 2s),
// 4 srv_count, 5 urgent/flag ratio, 6 serror_rate, 7 same_srv_rate.
func classModels(sep float64) [numClasses][8]featureModel {
	d := func(mu, sigma float64) featureModel { return featureModel{mu, sigma} }
	var m [numClasses][8]featureModel
	m[Benign] = [8]featureModel{
		d(1.0, 1.0), d(4.0, 1.2), d(4.2, 1.2), d(1.2, 0.8),
		d(1.0, 0.8), d(0.1, 0.3), d(0.3, 0.4), d(2.0, 0.6),
	}
	// DoS: short duration, tiny payloads, huge connection counts, high
	// serror rate.
	m[DoS] = [8]featureModel{
		d(1.0-0.8*sep, 0.9), d(4.0-2.2*sep, 1.0), d(4.2-3.0*sep, 1.0), d(1.2+2.4*sep, 0.9),
		d(1.0+2.0*sep, 0.9), d(0.1+0.2*sep, 0.3), d(0.3+1.6*sep, 0.5), d(2.0-1.0*sep, 0.7),
	}
	// Probe: many distinct services, small transfers.
	m[Probe] = [8]featureModel{
		d(1.0-0.5*sep, 0.9), d(4.0-1.6*sep, 1.1), d(4.2-1.8*sep, 1.1), d(1.2+1.6*sep, 0.9),
		d(1.0-0.6*sep, 0.8), d(0.1+0.1*sep, 0.3), d(0.3+0.8*sep, 0.5), d(2.0-1.4*sep, 0.7),
	}
	// U2R: long sessions, large src payloads, rare — distributions overlap
	// benign heavily (these are the hard ones).
	m[U2R] = [8]featureModel{
		d(1.0+0.9*sep, 1.0), d(4.0+0.8*sep, 1.2), d(4.2+0.3*sep, 1.2), d(1.2-0.2*sep, 0.8),
		d(1.0-0.1*sep, 0.8), d(0.1+0.9*sep, 0.5), d(0.3+0.2*sep, 0.4), d(2.0+0.2*sep, 0.6),
	}
	// R2L: interactive, moderate payloads, overlaps benign.
	m[R2L] = [8]featureModel{
		d(1.0+0.5*sep, 1.0), d(4.0+0.5*sep, 1.2), d(4.2+0.6*sep, 1.2), d(1.2+0.1*sep, 0.8),
		d(1.0+0.2*sep, 0.8), d(0.1+0.5*sep, 0.4), d(0.3+0.3*sep, 0.4), d(2.0+0.1*sep, 0.6),
	}
	return m
}

// attackMix is the relative frequency of attack families (DoS dominates real
// KDD traffic; U2R is rare).
var attackMix = []struct {
	class Class
	w     float64
}{
	{DoS, 0.62}, {Probe, 0.24}, {R2L, 0.12}, {U2R, 0.02},
}

// AnomalyGenerator produces labelled KDD-like records.
type AnomalyGenerator struct {
	cfg    AnomalyConfig
	models [numClasses][8]featureModel
	rng    *rand.Rand
}

// NewAnomalyGenerator validates cfg and builds a generator seeded by rng.
func NewAnomalyGenerator(cfg AnomalyConfig, rng *rand.Rand) (*AnomalyGenerator, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &AnomalyGenerator{cfg: cfg, models: classModels(cfg.Separation), rng: rng}, nil
}

// sampleClass draws a class according to the configured anomaly fraction and
// the attack mix.
func (g *AnomalyGenerator) sampleClass() Class {
	if g.rng.Float64() >= g.cfg.AnomalyFraction {
		return Benign
	}
	r := g.rng.Float64()
	var acc float64
	for _, am := range attackMix {
		acc += am.w
		if r < acc {
			return am.class
		}
	}
	return DoS
}

// Record draws one labelled record. Features are log-compressed into a
// compact numeric range (roughly [0, 8]) as the preprocessing MATs would
// (§3.1: "taking a logarithm of an exponentially distributed variable").
func (g *AnomalyGenerator) Record() Record {
	class := g.sampleClass()
	return g.RecordOfClass(class)
}

// RecordOfClass draws a record conditioned on a specific class.
func (g *AnomalyGenerator) RecordOfClass(class Class) Record {
	return g.recordInto(make(tensor.Vec, g.cfg.NumFeatures), class)
}

// recordInto draws the features of a record of the given class into feats
// (NumFeatures long).
func (g *AnomalyGenerator) recordInto(feats tensor.Vec, class Class) Record {
	for f := range feats {
		m := g.models[class][f]
		raw := math.Exp(m.mu + m.sigma*g.rng.NormFloat64())
		v := math.Log1p(raw) // log-compression (feature engineering, §3.1)
		if v > 8 {
			v = 8
		}
		feats[f] = float32(v)
	}
	return Record{Features: feats, Class: class}
}

// Records draws n labelled records — the ones n Record calls would return,
// from the same rng draws in the same order. Their feature vectors are carved
// out of one backing array, each limited to its own capacity, so appending to
// one cannot reach its neighbour.
func (g *AnomalyGenerator) Records(n int) []Record {
	out := make([]Record, n)
	w := g.cfg.NumFeatures
	buf := make(tensor.Vec, n*w)
	for i := range out {
		out[i] = g.recordInto(buf[i*w:(i+1)*w:(i+1)*w], g.sampleClass())
	}
	return out
}

// Split converts records into (X, y) with y=1 for anomalies — the binary
// training target of §5.2.2.
func Split(recs []Record) ([]tensor.Vec, []int) {
	X := make([]tensor.Vec, len(recs))
	y := make([]int, len(recs))
	for i, r := range recs {
		X[i] = r.Features
		if r.Anomalous() {
			y[i] = 1
		}
	}
	return X, y
}

// SplitPM converts records into (X, y) with y=±1 for SVM training.
func SplitPM(recs []Record) ([]tensor.Vec, []int) {
	X, y := Split(recs)
	for i := range y {
		if y[i] == 0 {
			y[i] = -1
		}
	}
	return X, y
}
