// Package controlplane closes the Taurus control loop (Figure 1, §3.3.1):
// while traffic flows through the data plane, the controller samples the
// data plane's per-packet decisions, watches for concept drift — a shift of
// the flagged-packet rate or of the score distribution against a reference
// window — retrains its model on freshly collected labelled telemetry,
// requantises the result against the data plane's pinned input domain, and
// pushes the new weights to every shard out-of-band via UpdateWeights.
//
// The controller is model-agnostic: it drives any model.Deployable — the
// anomaly DNN, the RBF SVM, the KMeans IoT classifier — through the same
// Fit → Lower → push cycle. Everything model-specific (training policy,
// quantisation, graph shape) lives behind the Deployable contract; the
// controller owns only the drift detection and the push.
//
// The ownership split mirrors a MapReduce coordinator and its workers: the
// controller is the single writer of the float model and the only caller of
// UpdateWeights, the data plane keeps nothing of a graph it is handed — it
// copies the weights into an image of its own — and the two sides meet only
// at the push: a read-only handoff of a freshly lowered graph, after which the
// trainer may keep mutating its own state freely.
//
// There is one control loop, Fleet (fleet.go): one trainer, one shared
// model, a drift detector per registered member, label pooling across the
// drifted members and an atomic fan-out push, driven synchronously or by a
// background worker. Whether it serves one switch or many is a deployment
// count: Controller is a Fleet with exactly one member.
package controlplane

import (
	"fmt"
	"math"
	"strconv"
	"sync/atomic"
	"time"

	"taurus/internal/core"
	"taurus/internal/dataset"
	"taurus/internal/distfit"
	"taurus/internal/fixed"
	mr "taurus/internal/mapreduce"
	"taurus/internal/model"
	"taurus/internal/obs"
)

// TapeRechecker is the optional audit surface of a Pusher: after a
// successful weight push, the control plane re-runs tapecheck's translation
// validator on the tape the data plane is serving and the weight image the
// push built for it, and RecheckTape proves the compiled path is still a
// faithful translation within the datapath's ranges. A failed audit rolls
// the push back like a refused one. *pipeline.Pipeline and *core.Device both
// implement it.
type TapeRechecker interface {
	RecheckTape() error
}

// Pusher is the controller's view of the data plane: anything that accepts
// an out-of-band weight push. *pipeline.Pipeline and *core.Device both
// satisfy it.
type Pusher interface {
	UpdateWeights(newGraph *mr.Graph) error
}

// LabelSource returns n freshly sampled labelled records reflecting the
// current traffic distribution — the control plane's telemetry joined with
// ground truth (in deployment: operator labels, honeypots, or delayed
// feedback; in the testbed: the drifting generator). It must be safe for
// concurrent use when the controller runs in the background.
type LabelSource func(n int) []dataset.Record

// DriftStatistic selects how a completed observation window is compared
// against the reference profile.
type DriftStatistic int

const (
	// DriftMeanShift compares the window's flagged-packet rate and mean
	// model score against the reference (the defaults FlagDelta and
	// ScoreDelta). Cheap and robust for boundary shifts that move the mean.
	DriftMeanShift DriftStatistic = iota
	// DriftPSI computes the population stability index between the window's
	// score histogram and the reference's, over quantile bins learned from
	// the reference. Scale-free (it adapts to any score range) and
	// sensitive to distribution change that leaves the mean untouched —
	// symmetric variance widening, bimodal splits.
	DriftPSI
	// DriftKS computes the two-sample Kolmogorov–Smirnov distance between
	// the window's raw score sample and a reference sample. Scale-free like
	// PSI but binning-free: no quantile-edge artefacts on heavily discrete
	// or long-tailed score distributions.
	DriftKS
)

// Config parameterises a Controller. The zero value of any field selects
// the default noted on it. Training policy (epochs, learning rates, SMO
// parameters) belongs to the model.Deployable, not the controller.
type Config struct {
	// SampleEvery samples one in N non-bypassed decisions into the drift
	// windows (default 4) — the telemetry sampling rate of §5.2.3.
	SampleEvery int
	// Window is the number of sampled decisions per observation window
	// (default 512).
	Window int
	// RefWindows is how many initial windows form the reference profile the
	// drift detector compares against (default 2). The reference is re-armed
	// after every retrain, so the post-push distribution becomes the new
	// normal.
	RefWindows int
	// Statistic selects the drift detector (default DriftMeanShift).
	Statistic DriftStatistic
	// FlagDelta is the absolute shift of the flagged-packet rate that
	// declares drift (default 0.10). Applies to both statistics.
	FlagDelta float64
	// ScoreDelta is the shift of the mean model score, in output code units,
	// that declares drift (default 16). DriftMeanShift only.
	ScoreDelta float64
	// PSIThreshold is the population-stability-index value that declares
	// drift (default 0.25 — the conventional "significant shift" point).
	// DriftPSI only.
	PSIThreshold float64
	// KSThreshold is the two-sample Kolmogorov–Smirnov distance that
	// declares drift (default 0.15 — comfortably above the ~0.09 sampling
	// noise of two 512-sample windows at the 5% level). Used by DriftKS for
	// detection, and by AdaptiveRetrain as its calm criterion.
	KSThreshold float64
	// DriftPatience is how many consecutive out-of-threshold windows it
	// takes to declare drift (default 2) — hysteresis against the sampling
	// noise of a single window.
	DriftPatience int
	// RetrainRecords is how many labelled records each retrain collects
	// (default 2048). With AdaptiveRetrain it is the collection chunk
	// granularity instead (half of it per chunk).
	RetrainRecords int
	// AdaptiveRetrain replaces the fixed RetrainRecords collection with
	// adaptive sizing: each retrain pulls labelled records in chunks of
	// RetrainRecords/2, refitting the model after every chunk, until one
	// more chunk no longer moves the model's score distribution (two-sample
	// KS between the pre- and post-refit scores on the fresh chunk at most
	// KSThreshold) or RetrainMaxRecords is reached. Mild drift stops near
	// the fixed size; a hard shift keeps collecting until the model calms.
	AdaptiveRetrain bool
	// RetrainMaxRecords caps the adaptive collection (default
	// 4×RetrainRecords; ignored without AdaptiveRetrain).
	RetrainMaxRecords int
	// RetrainInterval, when positive, retrains periodically in background
	// mode even without a drift signal (0 = drift-triggered only).
	RetrainInterval time.Duration
	// SourceDeadline, when positive, bounds how long a retrain waits on any
	// one member's LabelSource: a member whose source has not returned after
	// the deadline is skipped for that retrain (its MemberStats.SourceTimeouts
	// increments) and its share of the pool is re-drawn from the members that
	// answered, so one stalled source cannot stall or starve the shared loop.
	// When every source stalls — a Controller's only one, say — the retrain
	// fails after the deadline (Err reports it, the drift latch is cleared)
	// instead of blocking. Records a skipped call returns later are
	// discarded, and while it is still running the member stays skipped — a
	// LabelSource is never invoked concurrently with itself. 0 (the default)
	// waits indefinitely.
	SourceDeadline time.Duration
	// DistFit, when set, routes every retrain's Fit through a
	// coordinator/worker distributed fit (internal/distfit): the collected
	// records are chunked, the configured workers compute model partials
	// concurrently, and the partials merge in deterministic chunk-index
	// order, so the pushed graph stays bit-identical to a single-process
	// merge at the same chunk schedule even under worker loss. Requires the
	// model to implement model.PartialFitter. The coordinator's workers are
	// released by Close and respawned on the next retrain; the checkpoint
	// store (defaulted once, at construction) survives that cycle, so an
	// interrupted round resumes rather than restarts.
	DistFit *distfit.Config
	// OnPush, when set, is invoked after every successful weight push (once
	// per fan-out, not per member). It is the hook that turns control-plane
	// pushes into events elsewhere (the continuous-time queueing simulator
	// stalls its shards through it). Called from the retrain path with no
	// controller locks held; it must not call back into the controller.
	OnPush func()
	// Obs is the metrics registry the control plane's counters register in
	// (obs.Default() when nil).
	Obs *obs.Registry
	// ObsLabels identify this control plane's instruments. When nil a
	// Controller takes a process-unique {ctl=N} and a Fleet {fleet=N}; each
	// member's detector counters add {member=<name>} (a Controller's one
	// member is "member-0").
	ObsLabels []obs.Label
	// Tracer receives the control-plane trace: drift detections, retrain
	// spans, graphcheck/tapecheck verdicts, label pooling, push fan-out and
	// rollback (obs.DefaultTracer() when nil).
	Tracer *obs.Tracer
}

// DefaultConfig returns the default controller configuration.
func DefaultConfig() Config {
	return Config{
		SampleEvery:    4,
		Window:         512,
		RefWindows:     2,
		FlagDelta:      0.10,
		ScoreDelta:     16,
		PSIThreshold:   0.25,
		KSThreshold:    0.15,
		DriftPatience:  2,
		RetrainRecords: 2048,
	}
}

// applyDefaults replaces every zero (or negative) field with its default and
// refuses what no default can mean: NaN and +Inf pass a `<= 0` check, but no
// window distance ever exceeds them, so a NaN or +Inf threshold would switch
// drift detection off without a word; a Statistic outside the defined three
// would silently run mean-shift.
func (c *Config) applyDefaults() error {
	if c.Statistic < DriftMeanShift || c.Statistic > DriftKS {
		return fmt.Errorf("controlplane: Statistic %d is not a defined DriftStatistic", c.Statistic)
	}
	for _, th := range []struct {
		name string
		v    float64
	}{
		{"FlagDelta", c.FlagDelta},
		{"ScoreDelta", c.ScoreDelta},
		{"PSIThreshold", c.PSIThreshold},
		{"KSThreshold", c.KSThreshold},
	} {
		if math.IsNaN(th.v) || math.IsInf(th.v, 1) {
			return fmt.Errorf("controlplane: %s is %v; a drift threshold must be finite", th.name, th.v)
		}
	}
	d := DefaultConfig()
	if c.SampleEvery <= 0 {
		c.SampleEvery = d.SampleEvery
	}
	if c.Window <= 0 {
		c.Window = d.Window
	}
	if c.RefWindows <= 0 {
		c.RefWindows = d.RefWindows
	}
	if c.FlagDelta <= 0 {
		c.FlagDelta = d.FlagDelta
	}
	if c.ScoreDelta <= 0 {
		c.ScoreDelta = d.ScoreDelta
	}
	if c.PSIThreshold <= 0 {
		c.PSIThreshold = d.PSIThreshold
	}
	if c.KSThreshold <= 0 {
		c.KSThreshold = d.KSThreshold
	}
	if c.DriftPatience <= 0 {
		c.DriftPatience = d.DriftPatience
	}
	if c.RetrainRecords <= 0 {
		c.RetrainRecords = d.RetrainRecords
	}
	if c.RetrainMaxRecords <= 0 {
		c.RetrainMaxRecords = 4 * c.RetrainRecords
	}
	return nil
}

// Stats reports the controller's activity.
type Stats struct {
	// Sampled is the number of decisions sampled into windows.
	Sampled int
	// Windows is the number of completed observation windows.
	Windows int
	// Drifts is the number of drift detections.
	Drifts int
	// Retrains is the number of completed retrain-and-push cycles.
	Retrains int
	// RefFlagRate and RefMeanScore describe the current reference profile.
	// They are zeroed when a retrain re-arms the detector and stay zero
	// until the post-push reference is built — a pre-push profile is never
	// reported as current.
	RefFlagRate  float64
	RefMeanScore float64
	// LastFlagRate and LastMeanScore describe the last completed window.
	LastFlagRate  float64
	LastMeanScore float64
	// LastPSI is the population stability index of the last completed
	// window (0 until the reference is armed; DriftPSI only). Zeroed on
	// re-arm, like the reference profile it is measured against.
	LastPSI float64
	// LastKS is the Kolmogorov–Smirnov distance of the last completed
	// window (0 until the reference is armed; DriftKS only). Zeroed on
	// re-arm.
	LastKS float64
	// LastRetrainRecords is how many labelled records the most recent
	// retrain trained on — RetrainRecords for fixed sizing, the adaptive
	// collection size otherwise.
	LastRetrainRecords int
	// LastRetrainWorkers is how many live distfit workers served the most
	// recent retrain (0 when Config.DistFit is unset).
	LastRetrainWorkers int
	// ReissuedTasks counts distfit map tasks re-executed after a missed
	// deadline or worker loss, cumulative across this controller's
	// coordinator lifetimes (0 when Config.DistFit is unset).
	ReissuedTasks int
}

// ctlOrdinal numbers controllers built without explicit ObsLabels.
var ctlOrdinal atomic.Int64

// Controller is the closed-loop control plane over one data plane: a Fleet
// with exactly one member. Detection, pooling, the retrain cycle, the push
// gate and the background worker are the fleet's; the controller only drops
// the member argument and folds the fleet's aggregates into Stats.
type Controller struct {
	f *Fleet
}

// New builds a controller that pushes to pusher, retraining m (the
// control-plane lifecycle of the deployed model — the controller takes
// ownership) on records from source. inQ must be the input quantiser the
// model was deployed with (LoadModel's argument): every Lower call
// requantises against that pinned input domain, since the data plane's
// preprocessing MATs keep using it across pushes.
func New(pusher Pusher, m model.Deployable, inQ fixed.Quantizer, source LabelSource, cfg Config) (*Controller, error) {
	// Checked before NewFleet so a refused construction never spawns (and
	// strands) a distfit worker pool.
	if pusher == nil {
		return nil, fmt.Errorf("controlplane: nil pusher")
	}
	if source == nil {
		return nil, fmt.Errorf("controlplane: nil label source")
	}
	if cfg.ObsLabels == nil {
		cfg.ObsLabels = []obs.Label{obs.L("ctl", strconv.FormatInt(ctlOrdinal.Add(1)-1, 10))}
	}
	f, err := NewFleet(m, inQ, cfg)
	if err != nil {
		return nil, err
	}
	if _, err := f.Register("", pusher, source); err != nil {
		return nil, err
	}
	return &Controller{f: f}, nil
}

// DistFit returns the live distributed-fit coordinator; see Fleet.DistFit.
func (c *Controller) DistFit() *distfit.Coordinator { return c.f.DistFit() }

// Observe feeds a batch of data-plane decisions into the drift detector —
// the sampled mirror of §3.3.1's decision telemetry. It samples one in
// SampleEvery non-bypassed decisions; each full Window of samples is
// compared against the reference profile. It returns true when this call
// completed a window that newly crossed a drift threshold; in background
// mode that also schedules a retrain. Safe for concurrent use.
func (c *Controller) Observe(decs []core.Decision) bool { return c.f.Observe(0, decs) }

// RetrainNow synchronously runs one control-loop cycle — collect, Fit, Lower,
// verify, push, re-arm; see Fleet.RetrainNow. Concurrent calls serialise.
func (c *Controller) RetrainNow() error { return c.f.RetrainNow() }

// fitOnFresh collects labelled records from pull and (re)fits m on them —
// through the distfit coordinator when one is given (Config.DistFit),
// in-process otherwise. Without AdaptiveRetrain it is a single
// RetrainRecords draw. With it, the collection grows chunk by chunk: after
// each chunk the model is refit on everything collected so far, and the
// two-sample KS distance between the model's scores on the newest chunk
// before and after that refit measures how much the fresh data still moves
// the model. Collection stops when the refit calms (KS at most KSThreshold)
// or RetrainMaxRecords is reached — the control-plane-side proxy for
// "collect until the detector's statistic falls back under threshold",
// which can only be confirmed on the data plane after the push. Returns how
// many records were trained on.
func fitOnFresh(m model.Deployable, pull LabelSource, cfg *Config, coord *distfit.Coordinator) (int, error) {
	fit := m.Fit
	if coord != nil {
		fit = coord.Fit
	}
	if !cfg.AdaptiveRetrain {
		recs := pull(cfg.RetrainRecords)
		if len(recs) == 0 {
			return 0, fmt.Errorf("controlplane: label source returned no records")
		}
		return len(recs), fit(recs)
	}

	chunk := cfg.RetrainRecords / 2
	if chunk < 1 {
		chunk = 1
	}
	if chunk > cfg.RetrainMaxRecords {
		chunk = cfg.RetrainMaxRecords // the cap binds even for the first chunk
	}
	recs := pull(chunk)
	if len(recs) == 0 {
		return 0, fmt.Errorf("controlplane: label source returned no records")
	}
	if err := fit(recs); err != nil {
		return len(recs), err
	}
	for len(recs) < cfg.RetrainMaxRecords {
		want := chunk
		if rest := cfg.RetrainMaxRecords - len(recs); want > rest {
			want = rest
		}
		next := pull(want)
		if len(next) == 0 {
			break // source exhausted; train on what arrived
		}
		before := scoresOf(m, next)
		recs = append(recs, next...)
		if err := fit(recs); err != nil {
			return len(recs), err
		}
		if ksStat(before, scoresOf(m, next)) <= cfg.KSThreshold {
			break // one more chunk no longer moves the model: calm
		}
	}
	return len(recs), nil
}

// scoresOf evaluates the model's float-side score on every record.
func scoresOf(m model.Deployable, recs []dataset.Record) []float64 {
	out := make([]float64, len(recs))
	for i := range recs {
		out[i] = m.Score(recs[i].Features)
	}
	return out
}

// Start launches the background retrain worker: it retrains whenever
// Observe detects drift, and on every RetrainInterval when one is
// configured. Calling Start twice is a no-op.
func (c *Controller) Start() { c.f.Start() }

// Close stops the background worker (if started), waits for any retrain in
// flight to finish, and releases the distfit worker pool when Config.DistFit
// is set. The controller remains usable synchronously; see Fleet.Close.
func (c *Controller) Close() { c.f.Close() }

// Stats returns a snapshot of the controller's counters: the one member's
// detector view plus the fleet-wide retrain aggregates.
func (c *Controller) Stats() Stats {
	fs := c.f.Stats()
	st := fs.Members[0].Stats
	st.Retrains = fs.Retrains
	st.LastRetrainRecords = fs.LastPoolSize
	st.LastRetrainWorkers = fs.LastRetrainWorkers
	st.ReissuedTasks = fs.ReissuedTasks
	return st
}

// Err returns the error of the most recent failed retrain, or nil if the
// last retrain succeeded (or none ran).
func (c *Controller) Err() error { return c.f.Err() }

// Drifted reports whether drift has been detected and not yet answered by a
// retrain.
func (c *Controller) Drifted() bool { return c.f.Drifted() }

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
