package dataset

import (
	"fmt"
	"math"
	"math/rand"

	"taurus/internal/tensor"
)

// DriftConfig parameterises the concept-drifting variant of the anomaly
// workload: the generator interpolates between the calibrated class models
// and a "drifted world" whose feature means and attack mix have moved, so a
// model trained before the drift faces a decision boundary that no longer
// holds (§3.3.1's motivation for continuous online retraining).
type DriftConfig struct {
	// Base is the pre-drift workload (DefaultAnomalyConfig if zero).
	Base AnomalyConfig
	// MeanShift scales how far the drifted world's feature means move from
	// the base models. At the default 1.0 the benign flash-crowd occupies
	// the feature band the pre-drift DoS signature lived in, inverting the
	// learned boundary on the count features while the classes stay
	// separable (a retrained model recovers).
	MeanShift float64
}

// DefaultDriftConfig returns the calibrated drifting workload.
func DefaultDriftConfig() DriftConfig {
	return DriftConfig{Base: DefaultAnomalyConfig(), MeanShift: 1.0}
}

// driftedClassModels builds the phase-1 world: benign traffic turns into a
// flash crowd (connection and service counts rise into the band volumetric
// attacks used to own), the dominant DoS family goes low-and-slow (counts
// collapse, payloads shrink further), and probes slow down. The boundary a
// pre-drift model learned on the count features is inverted, but every class
// keeps a learnable signature.
func driftedClassModels(sep, shift float64) [numClasses][8]featureModel {
	m := classModels(sep)
	// Benign flash crowd: high counts, slightly longer sessions.
	m[Benign][0].mu += 0.4 * shift
	m[Benign][3].mu += 1.8 * shift
	m[Benign][4].mu += 1.5 * shift
	m[Benign][6].mu += 0.6 * shift
	// DoS low-and-slow: counts fall below the new benign band, payloads
	// shrink, error rate spikes harder.
	m[DoS][1].mu -= 1.0 * shift
	m[DoS][2].mu -= 0.8 * shift
	m[DoS][3].mu -= 1.6 * shift
	m[DoS][4].mu -= 1.2 * shift
	m[DoS][6].mu += 0.6 * shift
	// Probes pace themselves under the noise floor.
	m[Probe][3].mu -= 1.0 * shift
	m[Probe][4].mu -= 0.6 * shift
	m[Probe][1].mu -= 0.6 * shift
	return m
}

// driftedAttackMix is the phase-1 attack mix, in attackMix's order:
// volumetric DoS recedes while the stealthier families grow.
var driftedAttackMix = [len(attackMix)]float64{0.38, 0.30, 0.24, 0.08}

// DriftingGenerator produces labelled KDD-like records whose distribution
// interpolates between the base world (phase 0) and the drifted world
// (phase 1). Phase is advanced explicitly by the traffic driver, so
// experiments control drift speed deterministically. It draws through its
// AnomalyGenerator, whose class models and attack mix SetPhase rewrites.
type DriftingGenerator struct {
	AnomalyGenerator
	base    [numClasses][8]featureModel
	drifted [numClasses][8]featureModel
	phase   float64
}

// NewDriftingGenerator validates cfg and builds a generator seeded by rng,
// starting at phase 0.
func NewDriftingGenerator(cfg DriftConfig, rng *rand.Rand) (*DriftingGenerator, error) {
	if cfg.Base == (AnomalyConfig{}) {
		cfg.Base = DefaultAnomalyConfig()
	}
	if err := cfg.Base.validate(); err != nil {
		return nil, err
	}
	if cfg.MeanShift < 0 {
		return nil, fmt.Errorf("dataset: MeanShift must be non-negative, got %v", cfg.MeanShift)
	}
	if cfg.MeanShift == 0 {
		cfg.MeanShift = 1.0
	}
	g := &DriftingGenerator{
		AnomalyGenerator: AnomalyGenerator{cfg: cfg.Base, rng: rng},
		base:             classModels(cfg.Base.Separation),
		drifted:          driftedClassModels(cfg.Base.Separation, cfg.MeanShift),
	}
	g.SetPhase(0)
	return g, nil
}

// SetPhase moves the generator to phase p (clamped into [0, 1]) and
// interpolates the class models and the attack mix it draws from.
func (g *DriftingGenerator) SetPhase(p float64) {
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	g.phase = p
	for c := range g.models {
		for f := range g.models[c] {
			b, d := g.base[c][f], g.drifted[c][f]
			g.models[c][f] = featureModel{mu: (1-p)*b.mu + p*d.mu, sigma: (1-p)*b.sigma + p*d.sigma}
		}
	}
	for i, am := range attackMix {
		g.mix[i] = (1-p)*am.w + p*driftedAttackMix[i]
	}
}

// Phase returns the current drift phase.
func (g *DriftingGenerator) Phase() float64 { return g.phase }

// IoTDriftConfig parameterises the drifting variant of the IoT traffic-
// classification workload: device categories keep emitting traffic, but the
// feature signature of each category migrates toward the territory another
// category used to occupy — firmware updates, protocol changes, and new
// device generations in the TMC setting. A classifier deployed before the
// drift assigns the old owner's label to the new occupant; re-clustering on
// fresh labelled telemetry recovers.
type IoTDriftConfig struct {
	// Base is the pre-drift workload (KMeansIoTConfig if zero).
	Base IoTConfig
	// CentreShift in (0, 1] is how far each class centre travels toward the
	// next class's pre-drift centre at full phase (default 0.8: classes
	// nearly swap territories but stay separable).
	CentreShift float64
	// DriftedMix is the phase-1 class mix (must sum to ~1 with one weight
	// per class). The pre-drift mix is uniform; interpolating toward a
	// skewed mix models device-generation turnover and gives the control
	// plane's score-distribution detectors something to see. Default:
	// weights proportional to NumClasses-c — skewed enough to move the
	// predicted-category histogram, while the rarest class keeps enough
	// traffic for a retrain to re-learn it.
	DriftedMix []float64
}

// DefaultIoTDriftConfig returns the calibrated drifting IoT workload.
func DefaultIoTDriftConfig() IoTDriftConfig {
	return IoTDriftConfig{Base: KMeansIoTConfig(), CentreShift: 0.8}
}

// DriftingIoTGenerator produces labelled IoT samples whose class centres
// interpolate between the base geometry (phase 0) and a drifted one
// (phase 1). Phase is advanced explicitly by the traffic driver.
type DriftingIoTGenerator struct {
	cfg     IoTDriftConfig
	base    []tensor.Vec
	drifted []tensor.Vec
	sigma   float64
	phase   float64
	rng     *rand.Rand
}

// NewDriftingIoTGenerator validates cfg and builds a generator seeded by
// rng, starting at phase 0.
func NewDriftingIoTGenerator(cfg IoTDriftConfig, rng *rand.Rand) (*DriftingIoTGenerator, error) {
	if cfg.Base == (IoTConfig{}) {
		cfg.Base = KMeansIoTConfig()
	}
	if err := cfg.Base.validate(); err != nil {
		return nil, err
	}
	if cfg.CentreShift == 0 {
		cfg.CentreShift = 0.8
	}
	if cfg.CentreShift < 0 || cfg.CentreShift > 1 {
		return nil, fmt.Errorf("dataset: CentreShift must be in (0,1], got %v", cfg.CentreShift)
	}
	k := cfg.Base.NumClasses
	if cfg.DriftedMix == nil {
		total := float64(k) * float64(k+1) / 2
		for c := 0; c < k; c++ {
			cfg.DriftedMix = append(cfg.DriftedMix, float64(k-c)/total)
		}
	}
	if len(cfg.DriftedMix) != k {
		return nil, fmt.Errorf("dataset: DriftedMix has %d weights for %d classes", len(cfg.DriftedMix), k)
	}
	var mixSum float64
	for _, w := range cfg.DriftedMix {
		if w < 0 {
			return nil, fmt.Errorf("dataset: DriftedMix weight %v is negative", w)
		}
		mixSum += w
	}
	if math.Abs(mixSum-1) > 1e-6 {
		return nil, fmt.Errorf("dataset: DriftedMix sums to %v, want 1", mixSum)
	}
	base, sigma := iotGeometry(cfg.Base)
	// Drifted world: class c's centre moves CentreShift of the way toward
	// class (c+1)'s base centre, so the pre-drift decision regions end up
	// owned by different categories while pairwise separation survives.
	drifted := make([]tensor.Vec, len(base))
	for c := range base {
		next := base[(c+1)%len(base)]
		d := make(tensor.Vec, len(base[c]))
		for f := range d {
			d[f] = base[c][f] + float32(cfg.CentreShift)*(next[f]-base[c][f])
		}
		drifted[c] = d
	}
	return &DriftingIoTGenerator{cfg: cfg, base: base, drifted: drifted, sigma: sigma, rng: rng}, nil
}

// SetPhase moves the generator to phase p (clamped into [0, 1]).
func (g *DriftingIoTGenerator) SetPhase(p float64) {
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	g.phase = p
}

// Phase returns the current drift phase.
func (g *DriftingIoTGenerator) Phase() float64 { return g.phase }

// sampleClass draws a category from the phase-interpolated mix: uniform at
// phase 0, DriftedMix at phase 1.
func (g *DriftingIoTGenerator) sampleClass() int {
	k := g.cfg.Base.NumClasses
	r := g.rng.Float64()
	acc := 0.0
	for c := 0; c < k; c++ {
		acc += (1-g.phase)/float64(k) + g.phase*g.cfg.DriftedMix[c]
		if r < acc {
			return c
		}
	}
	return k - 1
}

// Record draws one labelled sample at the current phase. Class carries the
// device-category index (0..NumClasses-1), reusing the Record container.
func (g *DriftingIoTGenerator) Record() Record {
	class := g.sampleClass()
	x := make(tensor.Vec, g.cfg.Base.NumFeatures)
	for f := range x {
		mu := (1-g.phase)*float64(g.base[class][f]) + g.phase*float64(g.drifted[class][f])
		x[f] = float32(mu + g.rng.NormFloat64()*g.sigma)
	}
	return Record{Features: x, Class: Class(class)}
}

// Records draws n labelled samples at the current phase.
func (g *DriftingIoTGenerator) Records(n int) []Record {
	out := make([]Record, n)
	for i := range out {
		out[i] = g.Record()
	}
	return out
}
