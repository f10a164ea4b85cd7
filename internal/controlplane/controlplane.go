// Package controlplane closes the Taurus control loop (Figure 1, §3.3.1):
// while traffic flows through the data plane, the controller samples the
// data plane's per-packet decisions, watches for concept drift — a shift of
// the flagged-packet rate or of the score distribution against a reference
// window — retrains its model on freshly collected labelled telemetry,
// requantises the result against the data plane's pinned input domain, and
// pushes the new weights to every shard out-of-band via UpdateWeights. The
// data plane gates each push before it publishes it, so a refused push leaves
// the previous model serving.
//
// The controller is model-agnostic: it drives any model.Deployable — the
// anomaly DNN, the RBF SVM, the KMeans IoT classifier — through the same
// retrain round: one draw of RetrainRecords labels, one Fit, one Lower, one
// push. Everything model-specific (training policy, quantisation, graph
// shape) lives behind the Deployable contract; the controller owns only the
// drift detection and the push.
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
// drifted members and an atomic fan-out push, driven by the caller: Observe
// after each batch, RetrainNow when it reports drift. Whether it serves one
// switch or many is a deployment count: Controller is a Fleet with exactly
// one member.
package controlplane

import (
	"fmt"
	"math"
	"strconv"
	"sync/atomic"

	"taurus/internal/core"
	"taurus/internal/dataset"
	"taurus/internal/distfit"
	"taurus/internal/fixed"
	mr "taurus/internal/mapreduce"
	"taurus/internal/model"
	"taurus/internal/obs"
)

// Pusher is the controller's view of the data plane: anything that accepts
// an out-of-band weight push. UpdateWeights publishes only what its gate
// accepted: it returns an error, and keeps serving the previous model, for
// a graph it refuses. RollbackWeights, which cannot fail, serves again what
// the last accepted push replaced. *pipeline.Pipeline and *core.Device both
// satisfy it.
type Pusher interface {
	UpdateWeights(newGraph *mr.Graph) error
	RollbackWeights()
}

// LabelSource returns n freshly sampled labelled records reflecting the
// current traffic distribution — the control plane's telemetry joined with
// ground truth (in deployment: operator labels, honeypots, or delayed
// feedback; in the testbed: the drifting generator). A retrain calls it from
// whichever goroutine called RetrainNow, never concurrently with itself.
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
	// DriftPatience is how many consecutive out-of-threshold windows it
	// takes to declare drift (default 2) — hysteresis against the sampling
	// noise of a single window.
	DriftPatience int
	// RetrainRecords is how many labelled records each retrain draws, in one
	// draw pooled across the drifted members, before its one Fit (default
	// 2048).
	RetrainRecords int
	// DistFit, when set, routes every retrain's Fit through a
	// coordinator/worker distributed fit (internal/distfit): the collected
	// records are chunked, the configured workers compute model partials
	// concurrently, and the partials merge in deterministic chunk-index
	// order, so the pushed graph stays bit-identical to a single-process
	// merge at the same chunk schedule even under worker loss. Requires the
	// model to implement model.PartialFitter. The coordinator is built with
	// the controller and lives as long as it: Close releases its workers.
	DistFit *distfit.Config
	// OnPush, when set, is invoked after every successful weight push (once
	// per fan-out, not per member). It is the hook that turns control-plane
	// pushes into events elsewhere (the continuous-time queueing simulator
	// stalls its shards through it). Called from the retrain path with no
	// controller locks held; it must not call back into the controller.
	OnPush func()
	// Obs is the metrics registry the control plane's counters register in
	// (obs.Default() when nil). A Controller's instruments carry a
	// process-unique {ctl=N}, a Fleet's {fleet=N}; each member's detector
	// counters add {member=<name>} (a Controller's one member is "member-0").
	Obs *obs.Registry
	// Tracer receives the control-plane trace: drift detections, retrain
	// spans, label pooling, push fan-out and rollback (obs.DefaultTracer()
	// when nil).
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
		DriftPatience:  2,
		RetrainRecords: 2048,
	}
}

// applyDefaults replaces every zero (or negative) field with its default and
// refuses what no default can mean: NaN and +Inf pass a `<= 0` check, but no
// window distance ever exceeds them, so a NaN or +Inf threshold would switch
// drift detection off without a word; a Statistic outside the defined two
// would silently run mean-shift.
func (c *Config) applyDefaults() error {
	if c.Statistic < DriftMeanShift || c.Statistic > DriftPSI {
		return fmt.Errorf("controlplane: Statistic %d is not a defined DriftStatistic", c.Statistic)
	}
	for _, th := range []struct {
		name string
		v    float64
	}{
		{"FlagDelta", c.FlagDelta},
		{"ScoreDelta", c.ScoreDelta},
		{"PSIThreshold", c.PSIThreshold},
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
	if c.DriftPatience <= 0 {
		c.DriftPatience = d.DriftPatience
	}
	if c.RetrainRecords <= 0 {
		c.RetrainRecords = d.RetrainRecords
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
	// LastRetrainRecords is how many labelled records the most recent
	// retrain trained on: RetrainRecords, or fewer when every label source
	// under-delivered.
	LastRetrainRecords int
	// LastRetrainWorkers is how many live distfit workers served the most
	// recent retrain (0 when Config.DistFit is unset).
	LastRetrainWorkers int
	// ReissuedTasks counts distfit map tasks re-executed after a missed
	// deadline or worker loss (0 when Config.DistFit is unset).
	ReissuedTasks int
}

// ctlOrdinal numbers controllers for their telemetry labels ({ctl=N}).
var ctlOrdinal atomic.Int64

// Controller is the closed-loop control plane over one data plane: a Fleet
// with exactly one member. Detection, pooling, the retrain cycle and the
// push are the fleet's; the controller only drops the member argument and
// folds the fleet's aggregates into Stats.
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
	labels := []obs.Label{obs.L("ctl", strconv.FormatInt(ctlOrdinal.Add(1)-1, 10))}
	f, err := newFleet(m, inQ, cfg, labels)
	if err != nil {
		return nil, err
	}
	if _, err := f.Register("", pusher, source); err != nil {
		return nil, err
	}
	return &Controller{f: f}, nil
}

// DistFit returns the distributed-fit coordinator; see Fleet.DistFit.
func (c *Controller) DistFit() *distfit.Coordinator { return c.f.DistFit() }

// Observe feeds a batch of data-plane decisions into the drift detector —
// the sampled mirror of §3.3.1's decision telemetry. It samples one in
// SampleEvery non-bypassed decisions; each full Window of samples is
// compared against the reference profile. It returns true when this call
// completed a window that newly crossed a drift threshold; the caller
// answers it with RetrainNow. Safe for concurrent use.
func (c *Controller) Observe(decs []core.Decision) bool { return c.f.Observe(0, decs) }

// RetrainNow synchronously runs one control-loop cycle — draw labels, Fit,
// Lower, push (the data plane gates it), re-arm; see Fleet.RetrainNow.
// Concurrent calls serialise.
func (c *Controller) RetrainNow() error { return c.f.RetrainNow() }

// Close ends the controller's control loop: every later retrain fails with
// distfit.ErrClosed; see Fleet.Close.
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

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
