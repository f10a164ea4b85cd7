// Package taurus is the public API of the Taurus reproduction: a data-plane
// architecture for per-packet ML (Swamy et al., ASPLOS 2022).
//
// The v1 surface is organised around the traffic plane:
//
//   - NewPipeline builds the primary entry point for serving traffic: a
//     sharded Pipeline of N Taurus devices. Packets are routed to shards by
//     a five-tuple hash (per-flow register state stays shard-local), batches
//     fan out across worker goroutines via ProcessBatch, and control-plane
//     weight pushes (Figure 1) reach every shard live via UpdateWeights.
//     The steady-state batch path performs no heap allocation.
//
//   - NewDevice builds a single Taurus switch — parser, preprocessing MATs
//     with stateful feature registers, the MapReduce block with a bypass
//     path, postprocessing MATs — for callers that want one shard and no
//     goroutines. Process is the one-packet convenience wrapper;
//     ProcessBatch is the same zero-allocation hot path the Pipeline runs.
//
//   - NewController closes the control loop over a running Pipeline
//     (Figure 1, §3.3.1): feed it the data plane's decisions with Observe,
//     and it detects concept drift (flagged-rate, mean-score or PSI
//     histogram shift against a reference window), retrains its model on
//     freshly labelled telemetry from a LabelSource, requantises against
//     the deployed input domain, and pushes the new weights to every shard
//     via UpdateWeights — out-of-band, while batches keep flowing. The
//     controller is model-agnostic: it drives any Deployable — wrap a DNN
//     with NewDNNDeployable, an RBF SVM with NewSVMDeployable, a KMeans
//     classifier with NewKMeansDeployable (NewDNNController remains as the
//     one-call DNN shape). Run it synchronously (Observe + RetrainNow) for
//     deterministic experiments or in the background (Start/Close) for live
//     serving; tune it with WithRetrainInterval, WithDriftStatistic
//     (DriftMeanShift, DriftPSI or DriftKS), WithDriftThresholds,
//     WithAdaptiveRetrain and friends. NewDriftingStream and
//     NewDriftingIoTStream generate matching concept-drifting workloads,
//     with WithLabelDelay and WithLabelNoise for label realism.
//
//   - NewFleet scales the control plane out: one trainer driving N
//     registered switches, each with its own drift detector and traffic
//     mix. Drift on any member pools labels from the drifted members
//     (weighted by traffic share), retrains the one shared model and pushes
//     the lowered graph to every switch atomically. Membership churns
//     live: Deregister retires a switch, and a late Register catches the
//     joiner up with the current graph. NewDriftingStreams builds the
//     matching per-member workloads. When one goroutine's Fit becomes the
//     scaling wall, WithDistFit shards the retrain coordinator/worker
//     style (fixed chunk schedule, deadline re-issue, checkpointed rounds)
//     while keeping the pushed graph bit-identical to the single-process
//     merge — every Deployable family implements the PartialFitter
//     contract it needs.
//
//   - Metrics and Tracer expose the observability layer (internal/obs):
//     every device, pipeline, controller and fleet binds its counters and
//     latency histograms to one process-wide registry (stable dotted names,
//     allocation-free hot-path updates), and every control-plane action —
//     drift detection, retrain rounds, graph and tape verification verdicts,
//     pushes and rollbacks — lands in a bounded trace journal. Snapshot the
//     registry programmatically, serve it over HTTP with MetricsHandler
//     (Prometheus text and JSON), or rebind a component to a private
//     registry with WithMetrics. The existing Stats() methods are views
//     over the same instruments.
//
//   - NewSimulator asks the production question the batch plane cannot:
//     what latency and loss do packets see when arrivals are a process in
//     time? It is a discrete-event, continuous-time queueing simulator over
//     a deployed Pipeline's measured service model (II ns per ML packet at
//     the busiest shard, finite per-shard FIFO queues), fed by a pluggable
//     ArrivalProcess — NewPoissonArrivals, bursty NewOnOffArrivals, or
//     NewReplayArrivals replaying a DriftingStream with its labels intact —
//     and reporting p50/p99/p999 transit latency, queue depths and drops.
//     Control-plane pushes compose with it: wire WithOnPush to
//     Simulator.Push and a retrain's weight write becomes a simulated
//     per-shard service stall, so "does a push under 80% load cost latency
//     or drops?" is one experiment. MaxSustainableLoad binary-searches the
//     drop-bounded capacity of a deployment under any arrival shape.
//
//   - Both constructors take functional options: WithGrid, WithFlowTable,
//     WithThreshold, WithDropOnAnomaly, and (pipelines only) WithShards.
//     Failures surface sentinel errors — ErrNoModel, ErrBadFeatureWidth,
//     ErrStructureMismatch, ErrBadConfig — for errors.Is dispatch.
//
//   - MapReduce programs (the paper's P4 MapReduce control block, Figure 4)
//     are built with NewProgram and the Builder's Map/Reduce/LUT methods, or
//     by lowering a trained model with LowerDNN / LowerSVM / LowerKMeans /
//     LowerLSTMStep. Compile places a program onto the CGRA grid of compute
//     and memory units (§4), returning latency, initiation interval, area
//     and power — the quantities behind Tables 5-7. LoadModel installs a
//     compiled program on a Device or every Pipeline shard.
//
//   - The ML subpackage types (DNN, SVM, KMeans, LSTM) cover the paper's
//     application suite with float training for the control plane and
//     bit-exact 8-bit inference for the data plane.
//
// Everything is pure Go and deterministic under a fixed seed.
package taurus

import (
	"fmt"
	"net/http"
	"time"

	"taurus/internal/cgra"
	"taurus/internal/compiler"
	"taurus/internal/controlplane"
	"taurus/internal/core"
	"taurus/internal/dataset"
	"taurus/internal/distfit"
	"taurus/internal/fixed"
	"taurus/internal/graphcheck"
	"taurus/internal/lower"
	"taurus/internal/mapreduce"
	"taurus/internal/ml"
	"taurus/internal/model"
	"taurus/internal/netqueue"
	"taurus/internal/obs"
	"taurus/internal/pipeline"
	"taurus/internal/pisa"
	"taurus/internal/sched"
	"taurus/internal/sched/tapecheck"
	"taurus/internal/tensor"
	"taurus/internal/trafficgen"
)

// MapReduce program construction (Figure 4).
type (
	// Builder assembles a MapReduce dataflow program.
	Builder = mapreduce.Builder
	// Graph is a complete MapReduce program.
	Graph = mapreduce.Graph
	// Value is a handle to an intermediate result in a Builder.
	Value = mapreduce.Value
)

// NewProgram starts a MapReduce program (the paper's dedicated P4 control
// block).
func NewProgram(name string) *Builder { return mapreduce.NewBuilder(name) }

// Static verification: the pre-push graph gate (internal/graphcheck).
// Every LoadModel and UpdateWeights — on a Device or a Pipeline, and so every
// Controller and Fleet retrain push — runs the same analyses and refuses a
// graph that fails them with ErrBadGraph (a push is verified against the grid
// its model was installed on); VerifyGraph exposes the full report directly.
type (
	// GraphReport is the verifier's full result: per-node findings, the
	// resource census against the grid and dead-node diagnostics. OK() is the
	// gate; String() renders the report taurus-compile -check prints.
	GraphReport = graphcheck.Report
	// GraphFinding is one diagnostic, anchored to the offending node.
	GraphFinding = graphcheck.Finding
	// GraphCheckOptions overrides the verifier's grid and input ranges.
	GraphCheckOptions = graphcheck.Options
)

// Static-verification sentinels, for errors.Is.
var (
	// ErrBadGraph: a graph failed static verification (saturation, resource
	// overflow, or a Validate rejection).
	ErrBadGraph = graphcheck.ErrBadGraph
	// ErrGraphIncompatible: a push is not a weight-only update of the
	// previously pushed structure.
	ErrGraphIncompatible = graphcheck.ErrIncompatible
)

// Graph verification entry points.
var (
	// VerifyGraph runs value-range, resource and dead-node analysis on g
	// against the default grid and returns the full report.
	VerifyGraph = graphcheck.Verify
	// VerifyGraphWith is VerifyGraph against explicit options (target grid,
	// input ranges).
	VerifyGraphWith = graphcheck.VerifyWith
	// CheckGraph is the gate form: nil when g verifies clean, the first
	// error finding (wrapping ErrBadGraph) otherwise.
	CheckGraph = graphcheck.Check
	// GraphCompatible reports whether swapping old for new is a weight-only
	// update: identical node kinds, widths, wiring and declared IO, with
	// only constants, multipliers and tables free to change.
	GraphCompatible = graphcheck.Compatible
)

// Compilation onto the CGRA grid (§4).
type (
	// CompileOptions configures placement (grid, unit caps for unrolling).
	CompileOptions = compiler.Options
	// Compiled is a placed design with timing and resource reports.
	Compiled = compiler.Result
	// GridSpec describes a MapReduce block configuration.
	GridSpec = cgra.GridSpec
)

// Compile lowers a MapReduce program onto the grid.
func Compile(g *Graph, opts CompileOptions) (*Compiled, error) {
	return compiler.Compile(g, opts)
}

// Scheduled evaluation (internal/sched): the one executor, derived from and
// checked against Graph.Eval, the reference semantics. PlanSchedule
// list-schedules a validated graph into VLIW-style issue bundles under the
// grid's CU/MU capacity and reports the measured depth and initiation
// interval — the only depth and II the static tools print; CompileProgram
// additionally emits the fused, allocation-free instruction tape the device
// hot path runs, with batch-vectorised RunBatch. Devices compile installed
// models automatically — a model whose tape the scheduler or the translation
// validator refuses fails LoadModel with that error and the previous model
// keeps serving — so these entry points are for inspecting or benchmarking
// a schedule directly.
type (
	// Schedule is a resource-constrained bundle schedule of one graph;
	// String() renders the per-cycle bundles.
	Schedule = sched.Schedule
	// CompiledProgram is the executable instruction tape; Run/RunBatch are
	// bit-exact with Graph.Eval and allocate nothing.
	CompiledProgram = sched.Program
)

// PlanSchedule list-schedules g on the grid.
func PlanSchedule(g *Graph, spec GridSpec) (*Schedule, error) { return sched.Plan(g, spec) }

// CompileProgram plans g and emits its instruction tape.
func CompileProgram(g *Graph, spec GridSpec) (*CompiledProgram, error) {
	return sched.Compile(g, spec)
}

// Translation validation: the post-compile tape gate (internal/sched/
// tapecheck). CompileProgram (and every Device install) already refuses a
// tape that fails it; these entry points expose the full report for
// inspection — taurus-compile -check prints it, and callers holding a tape
// compiled elsewhere can re-verify it.
type (
	// TapeReport is the validator's full result: semantic equivalence of
	// every output lane against the source graph, the weight-addressing and
	// row-sum audits and the arena/schedule bounds. Value ranges are
	// GraphReport's: a lane the tape proves equal to the graph's inherits them.
	TapeReport = tapecheck.Report
	// TapeFinding is one diagnostic, anchored to the offending instruction.
	TapeFinding = tapecheck.Finding
)

// ErrBadTape: a compiled tape failed translation validation.
var ErrBadTape = tapecheck.ErrBadTape

// Tape verification entry points.
var (
	// VerifyTape validates a compiled tape against its source graph and
	// returns the full report.
	VerifyTape = tapecheck.Verify
	// CheckTape is the gate form: nil when the tape verifies clean, an error
	// wrapping ErrBadTape otherwise. CompileProgram runs it implicitly.
	CheckTape = tapecheck.Check
)

// DefaultGrid returns the final ASIC configuration: a 12x10 grid with 3:1
// CU:MU ratio, 16-lane 4-stage CUs, 8-bit datapath (§5.1.1).
func DefaultGrid() GridSpec { return cgra.DefaultGrid() }

// The traffic plane (Figure 6 instantiated per shard).
type (
	// Device is a single Taurus switch (one shard, no goroutines).
	Device = core.Device
	// Pipeline is the sharded, batched traffic plane over N devices.
	Pipeline = pipeline.Pipeline
	// BatchStats summarises one Pipeline.ProcessBatch call, including the
	// modelled drain time of the busiest shard.
	BatchStats = pipeline.BatchStats
	// PacketIn is one packet presented to a Device or Pipeline.
	PacketIn = core.PacketIn
	// Decision is a per-packet outcome.
	Decision = core.Decision
	// Verdict is the postprocessing decision.
	Verdict = core.Verdict
	// Stats counts device (or merged pipeline) activity.
	Stats = core.Stats
)

// Verdicts.
const (
	Forward = core.Forward
	Flag    = core.Flag
	Drop    = core.Drop
)

// Sentinel errors of the traffic plane, for errors.Is.
var (
	// ErrNoModel: the operation needs a loaded model.
	ErrNoModel = core.ErrNoModel
	// ErrBadFeatureWidth: a feature vector or model input width disagrees
	// with the device's feature count.
	ErrBadFeatureWidth = core.ErrBadFeatureWidth
	// ErrStructureMismatch: a weight update would change the placed design.
	ErrStructureMismatch = core.ErrStructureMismatch
	// ErrBadConfig: invalid construction options or batch arguments.
	ErrBadConfig = core.ErrBadConfig
)

// Option configures NewDevice and NewPipeline.
type Option func(*options)

type options struct {
	dev    core.Config
	shards int
}

// WithGrid sets the MapReduce block configuration (DefaultGrid otherwise).
func WithGrid(g GridSpec) Option { return func(o *options) { o.dev.Grid = g } }

// WithFlowTable sets the number of per-flow register slots for feature
// accumulation (default 4096; power of two recommended).
func WithFlowTable(n int) Option { return func(o *options) { o.dev.FlowTableSize = n } }

// WithThreshold sets the postprocessing cut on the model's output code:
// score >= t is treated as anomalous (default 64, the §5.2.2 operating
// point).
func WithThreshold(t int32) Option { return func(o *options) { o.dev.Threshold = t } }

// WithDropOnAnomaly makes anomalous packets Drop instead of the default
// Flag.
func WithDropOnAnomaly() Option { return func(o *options) { o.dev.DropOnAnomaly = true } }

// WithShards sets the pipeline's shard count (default 4). NewDevice ignores
// it — a Device is always a single shard.
func WithShards(n int) Option { return func(o *options) { o.shards = n } }

// WithMetrics binds the device or pipeline to reg instead of the
// process-wide default registry, under the given labels instead of the
// automatic ordinals ({dev=N} for a device, {pipe=N, shard=i} per pipeline
// shard). Two components given the same registry and the same explicit
// labels share instruments — their counts merge.
func WithMetrics(reg *MetricsRegistry, labels ...MetricLabel) Option {
	return func(o *options) {
		o.dev.Obs = reg
		o.dev.ObsLabels = labels
	}
}

// DefaultShards is the shard count NewPipeline uses when WithShards is not
// given.
const DefaultShards = pipeline.DefaultShards

func buildOptions(numFeatures int, opts []Option) options {
	o := options{dev: core.DefaultConfig(numFeatures), shards: DefaultShards}
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// NewDevice builds a single Taurus switch with numFeatures model inputs.
func NewDevice(numFeatures int, opts ...Option) (*Device, error) {
	o := buildOptions(numFeatures, opts)
	return core.NewDevice(o.dev)
}

// NewPipeline builds the sharded traffic plane: WithShards(n) devices
// behind one batched front end. Load a model with LoadModel, drive traffic
// with ProcessBatch, push weight updates live with UpdateWeights, and Close
// when done.
func NewPipeline(numFeatures int, opts ...Option) (*Pipeline, error) {
	o := buildOptions(numFeatures, opts)
	return pipeline.New(pipeline.Config{Shards: o.shards, Device: o.dev})
}

// The control plane (Figure 1, §3.3.1): online retraining and live weight
// pushes over a running traffic plane, generic over the model family.
type (
	// Controller is the closed-loop control plane: drift detection,
	// background retraining, out-of-band weight pushes.
	Controller = controlplane.Controller
	// ControllerStats reports the controller's activity (windows observed,
	// drifts detected, retrains pushed).
	ControllerStats = controlplane.Stats
	// Fleet is one control plane driving N switches: a single trainer with
	// a per-member drift detector, pooling labels from the drifted members
	// and fanning one lowered graph out to every registered pipeline.
	Fleet = controlplane.Fleet
	// FleetStats reports the fleet's aggregate and per-member activity.
	FleetStats = controlplane.FleetStats
	// FleetMemberStats is one member's slice of FleetStats.
	FleetMemberStats = controlplane.MemberStats
	// LabelSource supplies freshly sampled labelled records reflecting the
	// current traffic distribution (the control plane's telemetry joined
	// with ground truth).
	LabelSource = controlplane.LabelSource
	// DriftStatistic selects the drift detector (DriftMeanShift, DriftPSI).
	DriftStatistic = controlplane.DriftStatistic

	// Deployable is one model's control-plane lifecycle: Fit on labelled
	// records, Lower against the deployed input domain, Score for
	// diagnostics, and a quantised reference decision for parity checks.
	// The Controller drives any Deployable through the same loop.
	Deployable = model.Deployable
	// DNNDeployableConfig configures NewDNNDeployable (SGD policy,
	// calibration size).
	DNNDeployableConfig = model.DNNConfig
	// SVMDeployableConfig configures NewSVMDeployable (SMO policy, deployed
	// support-set size).
	SVMDeployableConfig = model.SVMConfig
	// KMeansDeployableConfig configures NewKMeansDeployable (cluster count,
	// Lloyd iterations).
	KMeansDeployableConfig = model.KMeansConfig

	// PartialFitter is the optional Deployable extension distributed
	// retraining requires: PartialFit computes a deterministic model
	// partial from one chunk of records, Merge folds partials in
	// chunk-index order. All three Deployable families implement it.
	PartialFitter = model.PartialFitter
	// Partial is one chunk's contribution to a distributed retrain.
	Partial = model.Partial
	// DistFitConfig parameterises distributed retraining (WithDistFit):
	// worker count, chunk size (the merge schedule), task deadline,
	// checkpoint store.
	DistFitConfig = distfit.Config
	// DistFitCoordinator is the coordinator/worker retrain engine. Reach a
	// controller's live coordinator with Controller.DistFit or
	// Fleet.DistFit — the handle for fault injection (KillWorker,
	// AddWorker) and DistFitStats.
	DistFitCoordinator = distfit.Coordinator
	// DistFitStats reports a coordinator's activity: live workers,
	// completed and re-issued tasks, duplicate and dropped reports,
	// checkpoint-resumed chunks.
	DistFitStats = distfit.Stats
	// DistFitStore checkpoints a round's merged-so-far state; hand one
	// store to successive coordinators to resume interrupted rounds.
	DistFitStore = distfit.Store
)

// NewDistFitMemStore builds the in-memory checkpoint store — the Store to
// share across coordinator lifetimes when resuming matters.
var NewDistFitMemStore = distfit.NewMemStore

// ErrDistFitClosed is returned by a coordinator's Fit after Close.
var ErrDistFitClosed = distfit.ErrClosed

// Drift statistics for WithDriftStatistic.
const (
	// DriftMeanShift compares flagged-rate and mean score against the
	// reference profile (the default).
	DriftMeanShift = controlplane.DriftMeanShift
	// DriftPSI computes a population stability index over quantile-binned
	// score histograms — scale-free, and sensitive to shifts that preserve
	// the mean (variance widening, category-mix changes).
	DriftPSI = controlplane.DriftPSI
	// DriftKS computes the two-sample Kolmogorov–Smirnov distance between
	// the window's raw scores and a reference sample — scale-free like PSI,
	// but with no binning artefacts on discrete or long-tailed scores.
	DriftKS = controlplane.DriftKS
)

// Deployable constructors: model lifecycles the Controller can retrain.
var (
	// NewDNNDeployable wraps a float DNN (the Deployable takes ownership).
	NewDNNDeployable = model.NewDNN
	// NewSVMDeployable builds an RBF SVM lifecycle (trained on first Fit).
	NewSVMDeployable = model.NewSVM
	// NewKMeansDeployable builds a nearest-centroid classifier lifecycle.
	NewKMeansDeployable = model.NewKMeans
)

// controllerOptions collects the facade-level controller configuration: the
// controlplane config plus the training policy used only when NewDNNController
// constructs the Deployable for the caller.
type controllerOptions struct {
	cp  controlplane.Config
	dnn model.DNNConfig
}

// ControllerOption configures NewController and NewDNNController.
type ControllerOption func(*controllerOptions)

// WithSampleEvery samples one in n non-bypassed decisions into the drift
// windows (default 4) — the telemetry sampling rate of §5.2.3.
func WithSampleEvery(n int) ControllerOption {
	return func(o *controllerOptions) { o.cp.SampleEvery = n }
}

// WithDriftWindow sets how many sampled decisions form one observation
// window (default 512).
func WithDriftWindow(n int) ControllerOption {
	return func(o *controllerOptions) { o.cp.Window = n }
}

// WithDriftStatistic selects the drift detector: DriftMeanShift (default)
// or DriftPSI.
func WithDriftStatistic(s DriftStatistic) ControllerOption {
	return func(o *controllerOptions) { o.cp.Statistic = s }
}

// WithDriftThresholds sets the absolute flagged-rate shift and the
// mean-score shift (in output code units) that declare drift (defaults
// 0.10 and 16).
func WithDriftThresholds(flagDelta, scoreDelta float64) ControllerOption {
	return func(o *controllerOptions) {
		o.cp.FlagDelta = flagDelta
		o.cp.ScoreDelta = scoreDelta
	}
}

// WithPSIThreshold sets the population-stability-index value that declares
// drift under DriftPSI (default 0.25).
func WithPSIThreshold(t float64) ControllerOption {
	return func(o *controllerOptions) { o.cp.PSIThreshold = t }
}

// WithKSThreshold sets the two-sample Kolmogorov–Smirnov distance that
// declares drift under DriftKS (default 0.15). The same threshold is the
// calm criterion of WithAdaptiveRetrain.
func WithKSThreshold(t float64) ControllerOption {
	return func(o *controllerOptions) { o.cp.KSThreshold = t }
}

// WithAdaptiveRetrain replaces the fixed RetrainRecords collection with
// adaptive sizing: each retrain keeps collecting labelled records in chunks
// of half RetrainRecords, refitting after every chunk, until one more chunk
// no longer moves the model's score distribution (two-sample KS at most the
// KS threshold) or maxRecords is reached (0 = 4× RetrainRecords). Mild
// drift stops near the fixed budget; a hard shift keeps collecting until
// the model calms.
func WithAdaptiveRetrain(maxRecords int) ControllerOption {
	return func(o *controllerOptions) {
		o.cp.AdaptiveRetrain = true
		o.cp.RetrainMaxRecords = maxRecords
	}
}

// WithDriftPatience sets how many consecutive out-of-threshold windows
// declare drift (default 2) — hysteresis against single-window sampling
// noise.
func WithDriftPatience(n int) ControllerOption {
	return func(o *controllerOptions) { o.cp.DriftPatience = n }
}

// WithRetrainInterval makes the background worker retrain every d even
// without a drift signal (default: drift-triggered only).
func WithRetrainInterval(d time.Duration) ControllerOption {
	return func(o *controllerOptions) { o.cp.RetrainInterval = d }
}

// WithSourceDeadline bounds how long a retrain waits on any one member's
// label source: a member whose source has not returned after d is skipped
// for that retrain (its FleetMemberStats.SourceTimeouts increments) and its
// pool share is re-drawn from the members that answered, so one stalled
// source cannot stall or starve the shared loop. A Controller has one
// source: if it stalls, the retrain fails after d (Err reports it, the
// detector may re-signal) instead of blocking. Default: wait indefinitely.
func WithSourceDeadline(d time.Duration) ControllerOption {
	return func(o *controllerOptions) { o.cp.SourceDeadline = d }
}

// WithDistFit routes every retrain's Fit through the coordinator/worker
// distributed fit: collected records are chunked, cfg.Workers compute
// model partials concurrently, and the partials merge in deterministic
// chunk-index order, so the pushed graph stays bit-identical to a
// single-process merge over the same schedule — across worker counts,
// completion orders, stragglers and worker crashes. Requires the
// Deployable to implement PartialFitter (all three families do).
func WithDistFit(cfg DistFitConfig) ControllerOption {
	return func(o *controllerOptions) { o.cp.DistFit = &cfg }
}

// WithOnPush invokes fn after every successful weight push (a Controller's
// RetrainNow or a Fleet's fan-out). Wire it to Simulator.Push and every
// control-plane retrain becomes a simulated per-shard service stall — the
// push-under-load experiment. fn runs on the retrain path with no
// controller locks held and must not call back into the controller.
func WithOnPush(fn func()) ControllerOption {
	return func(o *controllerOptions) { o.cp.OnPush = fn }
}

// WithRetrainRecords sets how many labelled records each retrain collects
// (default 2048).
func WithRetrainRecords(n int) ControllerOption {
	return func(o *controllerOptions) { o.cp.RetrainRecords = n }
}

// WithRetrainEpochs sets how many SGD passes each retrain makes over its
// records (default 8). It configures the Deployable NewDNNController
// builds; a caller-supplied Deployable carries its own training policy.
func WithRetrainEpochs(n int) ControllerOption {
	return func(o *controllerOptions) { o.dnn.Epochs = n }
}

// WithControllerSeed seeds the SGD shuffling of NewDNNController's
// Deployable (default 1); a caller-supplied Deployable carries its own
// seed.
func WithControllerSeed(seed int64) ControllerOption {
	return func(o *controllerOptions) { o.dnn.Seed = seed }
}

func buildControllerOptions(opts []ControllerOption) controllerOptions {
	o := controllerOptions{cp: controlplane.DefaultConfig()}
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// NewController builds the closed-loop controller for a pipeline: it
// retrains m — the lifecycle of the deployed model; the controller takes
// ownership — on records from src, and pushes requantised weights to every
// shard. The input domain is pinned automatically to the quantiser the
// pipeline was loaded with, so a model must be deployed (LoadModel) before
// the controller is attached.
func NewController(p *Pipeline, m Deployable, src LabelSource, opts ...ControllerOption) (*Controller, error) {
	if p == nil {
		return nil, fmt.Errorf("%w: nil pipeline", ErrBadConfig)
	}
	inQ := p.InputQuantizer()
	if inQ.Scale <= 0 {
		return nil, fmt.Errorf("%w: pipeline has no deployed model; LoadModel before NewController", ErrNoModel)
	}
	o := buildControllerOptions(opts)
	if o.dnn != (model.DNNConfig{}) {
		return nil, fmt.Errorf("%w: WithRetrainEpochs/WithControllerSeed configure the Deployable NewDNNController builds; a caller-supplied Deployable carries its own training policy", ErrBadConfig)
	}
	return controlplane.New(p, m, inQ, src, o.cp)
}

// NewDNNController is the back-compatible DNN shape of NewController: it
// wraps net — the float twin of the deployed model; the controller takes
// ownership — in its Deployable lifecycle (tuned by WithRetrainEpochs /
// WithControllerSeed) and attaches it to the pipeline. inQ must be the
// quantiser the model was deployed with (LoadModel's argument).
func NewDNNController(p *Pipeline, net *DNN, inQ Quantizer, src LabelSource, opts ...ControllerOption) (*Controller, error) {
	if p == nil {
		return nil, fmt.Errorf("%w: nil pipeline", ErrBadConfig)
	}
	o := buildControllerOptions(opts)
	dep, err := model.NewDNN(net, o.dnn)
	if err != nil {
		return nil, err
	}
	return controlplane.New(p, dep, inQ, src, o.cp)
}

// NewFleet builds the multi-switch control plane (§3.3.1 scaled out to a
// deployment): one trainer — the lifecycle of the deployed model m; the
// fleet takes ownership — serving N switches. Register each switch with
// fleet.Register(name, pipeline, labelSource); every member gets its own
// drift detector, and drift on any member triggers one retrain pooled from
// the drifted members' labels, pushed atomically to every switch. inQ must
// be the quantiser the members' shared deployment was loaded with (the
// pipelines' InputQuantizer after LoadModel). Tune with the same
// ControllerOptions as NewController — WithDriftStatistic(DriftKS),
// WithAdaptiveRetrain and friends.
func NewFleet(m Deployable, inQ Quantizer, opts ...ControllerOption) (*Fleet, error) {
	o := buildControllerOptions(opts)
	if o.dnn != (model.DNNConfig{}) {
		return nil, fmt.Errorf("%w: WithRetrainEpochs/WithControllerSeed configure the Deployable NewDNNController builds; a caller-supplied Deployable carries its own training policy", ErrBadConfig)
	}
	return controlplane.NewFleet(m, inQ, o.cp)
}

// Observability (internal/obs): one registry of named instruments behind
// every Stats surface, and one bounded journal of control-plane events.
type (
	// MetricsRegistry holds named instruments — counters, gauges and
	// log-linear latency histograms — under stable dotted names
	// (taurus.device.processed, taurus.pipeline.batch_packets, ...) with
	// optional key=value labels. Registration is get-or-create; hot-path
	// updates are atomic and allocation-free. Snapshot() returns every
	// instrument's current value; WriteJSON serialises the snapshot.
	MetricsRegistry = obs.Registry
	// Metric is one instrument in a registry snapshot: its name, labels,
	// kind, and value (counters/gauges) or count/sum/quantiles (histograms).
	Metric = obs.Metric
	// MetricLabel is one key=value dimension on an instrument.
	MetricLabel = obs.Label
	// TraceJournal is the bounded ring-buffer journal of control-plane
	// events: drift detections, retrain spans, graphcheck/tapecheck
	// verdicts, pushes, rollbacks, distfit rounds. Events() returns the
	// retained window oldest-first; WriteText/WriteJSON render it.
	TraceJournal = obs.Tracer
	// TraceEvent is one journalled event: sequence number, span id (0 =
	// unspanned), monotonic and wall-clock timestamps, kind, detail.
	TraceEvent = obs.Event
)

// NewMetricLabel builds one key=value label for WithMetrics.
var NewMetricLabel = obs.L

// Metrics returns the process-wide default registry — the one every device,
// pipeline, controller and fleet binds to unless WithMetrics (or an explicit
// internal config) overrides it.
func Metrics() *MetricsRegistry { return obs.Default() }

// Tracer returns the process-wide default trace journal — the one every
// control plane emits to unless configured otherwise.
func Tracer() *TraceJournal { return obs.DefaultTracer() }

// NewMetricsRegistry builds a private registry for tests or multi-tenant
// embedders; pass it to components with WithMetrics.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewTraceJournal builds a private trace journal retaining the last
// capacity events (0 selects the default, 4096).
func NewTraceJournal(capacity int) *TraceJournal { return obs.NewTracer(capacity) }

// MetricsHandler serves the default registry and journal over HTTP:
// GET /metrics (Prometheus text), /metrics.json, /trace (text),
// /trace.json. Mount it on any mux, or hand it straight to
// http.ListenAndServe.
func MetricsHandler() http.Handler { return obs.Handler(obs.Default(), obs.DefaultTracer()) }

// The queueing plane: continuous-time simulation of a deployed traffic
// plane under an arrival process — the composition of the throughput story
// (per-shard service at II ns per packet) with the drift story (retrain
// pushes as simulated stalls).
type (
	// Simulator is the discrete-event queueing simulator: flow-hashed
	// arrivals into per-shard finite FIFO queues served at the deployed
	// model's measured occupancy. Drive it with RunPackets/Drain, inject
	// weight pushes with Push, and read p50/p99/p999 transit latency,
	// queue depths and drops from Stats.
	Simulator = netqueue.Simulator
	// SimResult is one measurement interval's metrics.
	SimResult = netqueue.Result
	// ArrivalProcess generates the simulator's packet arrivals.
	ArrivalProcess = netqueue.ArrivalProcess
	// SimPacket is one simulated arrival (flow hash plus ground-truth
	// label when replayed from a labelled stream).
	SimPacket = netqueue.Packet
	// OnOffArrivalConfig parameterises the bursty on/off arrival process.
	OnOffArrivalConfig = netqueue.OnOffConfig
	// ServiceModel is a pipeline's per-shard service-time model
	// (Pipeline.ServiceModel), the hook the simulator runs on.
	ServiceModel = pipeline.ServiceModel
)

// Arrival-process constructors.
var (
	// NewPoissonArrivals builds memoryless arrivals at a fixed rate.
	NewPoissonArrivals = netqueue.NewPoisson
	// NewOnOffArrivals builds a two-state bursty MMPP source.
	NewOnOffArrivals = netqueue.NewOnOff
	// NewReplayArrivals replays a DriftingStream — labels intact — with
	// Poisson timing at a configured rate.
	NewReplayArrivals = netqueue.NewReplay
)

// SimOption configures NewSimulator and MaxSustainableLoad.
type SimOption func(*netqueue.Config)

// WithQueueCapacity sets each shard's waiting-room capacity in packets
// (default 512); arrivals that find the queue full are dropped.
func WithQueueCapacity(n int) SimOption {
	return func(c *netqueue.Config) { c.QueueCap = n }
}

// WithPushStall sets how long a weight push pauses each shard's service
// (default 10µs) — the out-of-band weight-write window. WithPushStall(0)
// makes pushes free.
func WithPushStall(d time.Duration) SimOption {
	return func(c *netqueue.Config) { c.PushStallNs = float64(d.Nanoseconds()) }
}

// simConfig derives the simulator configuration from a deployed pipeline.
func simConfig(p *Pipeline, opts []SimOption) (netqueue.Config, error) {
	if p == nil {
		return netqueue.Config{}, fmt.Errorf("%w: nil pipeline", ErrBadConfig)
	}
	svc := p.ServiceModel()
	if svc.MLServiceNs <= 0 {
		return netqueue.Config{}, fmt.Errorf("%w: pipeline has no deployed model; LoadModel before simulating", ErrNoModel)
	}
	// Seed the conventional push cost; WithPushStall (including an explicit
	// 0 for free pushes) overrides it.
	cfg := netqueue.Config{Service: svc, PushStallNs: netqueue.DefaultPushStallNs}
	for _, opt := range opts {
		opt(&cfg)
	}
	return cfg, nil
}

// NewSimulator builds the continuous-time queueing simulator over p's
// measured service model (a model must be deployed with LoadModel first),
// fed by arr. The simulated timeline is continuous across RunPackets
// calls; pair Stats with ResetStats for windowed measurements, and wire a
// controller's WithOnPush to Push to make retrain pushes simulated events.
func NewSimulator(p *Pipeline, arr ArrivalProcess, opts ...SimOption) (*Simulator, error) {
	cfg, err := simConfig(p, opts)
	if err != nil {
		return nil, err
	}
	return netqueue.New(cfg, arr)
}

// MaxSustainableLoad binary-searches the highest offered rate (packets/sec)
// p's deployment sustains with a drop fraction at most maxDropFrac, under
// the arrival shape mk builds per probed rate — the shard-count-sizing
// question ("how many shards for this SLO?") answered by simulation.
func MaxSustainableLoad(p *Pipeline, mk func(pps float64) (ArrivalProcess, error), packets int, maxDropFrac float64, opts ...SimOption) (float64, error) {
	cfg, err := simConfig(p, opts)
	if err != nil {
		return 0, err
	}
	return netqueue.MaxSustainablePPS(cfg, mk, packets, maxDropFrac)
}

// Machine-learning models (§5.1.2) and quantisation (Table 3).
type (
	// DNN is a float feed-forward network (control-plane training).
	DNN = ml.DNN
	// QuantizedDNN is its 8-bit data-plane counterpart.
	QuantizedDNN = ml.QuantizedDNN
	// SVM is an RBF support-vector machine.
	SVM = ml.SVM
	// KMeans is a nearest-centroid classifier.
	KMeans = ml.KMeans
	// LSTM is the Indigo-style congestion-control model.
	LSTM = ml.LSTM
	// Quantizer maps floats to symmetric int8.
	Quantizer = fixed.Quantizer
	// Vec is a dense float32 feature vector.
	Vec = tensor.Vec
)

// Lowerings: trained model -> MapReduce program.
var (
	// LowerDNN lowers a quantised DNN (bit-exact with QuantizedDNN).
	LowerDNN = lower.DNN
	// LowerKMeans lowers nearest-centroid classification.
	LowerKMeans = lower.KMeans
	// LowerSVM lowers an RBF SVM with a kernel lookup table.
	LowerSVM = lower.SVM
	// LowerLSTMStep lowers one recurrent step of an LSTM.
	LowerLSTMStep = lower.LSTMStep
	// NewSVMReference builds a reusable evaluator of the lowered SVM's
	// exact quantised arithmetic (bit-identical to the graph, no graph
	// interpretation) — the control plane's parity checker.
	NewSVMReference = lower.NewSVMReference
)

// SVMReference evaluates the lowered SVM's quantised decision directly.
type SVMReference = lower.SVMReference

// Synthetic workloads (§5.2.2 substitutes for NSL-KDD and TMC IoT traces).
type (
	// AnomalyConfig parameterises the KDD-like generator.
	AnomalyConfig = dataset.AnomalyConfig
	// AnomalyGenerator produces labelled connection records.
	AnomalyGenerator = dataset.AnomalyGenerator
	// IoTConfig parameterises the IoT traffic generator.
	IoTConfig = dataset.IoTConfig
	// IoTGenerator produces labelled IoT samples.
	IoTGenerator = dataset.IoTGenerator
	// Record is one labelled connection.
	Record = dataset.Record
	// DriftConfig parameterises the concept-drifting anomaly workload.
	DriftConfig = dataset.DriftConfig
	// DriftingGenerator produces records whose distribution interpolates
	// between the base world (phase 0) and a drifted one (phase 1).
	DriftingGenerator = dataset.DriftingGenerator
	// DriftingStream produces labelled packet batches over a flow working
	// set whose feature distributions drift with the stream's phase, plus
	// the label feed a Controller retrains on.
	DriftingStream = trafficgen.DriftingStream
	// IoTDriftConfig parameterises the drifting IoT classification
	// workload (class centres migrate; the category mix skews).
	IoTDriftConfig = dataset.IoTDriftConfig
	// DriftingIoTGenerator produces drifting labelled IoT samples.
	DriftingIoTGenerator = dataset.DriftingIoTGenerator
	// DriftSource is the workload contract a DriftingStream drives; both
	// drifting generators satisfy it.
	DriftSource = trafficgen.DriftSource
	// StreamOption configures drifting streams (label delay/noise).
	StreamOption = trafficgen.StreamOption
)

// Dataset constructors and helpers.
var (
	// NewAnomalyGenerator builds a KDD-like generator.
	NewAnomalyGenerator = dataset.NewAnomalyGenerator
	// DefaultAnomalyConfig is calibrated to the paper's F1 operating point.
	DefaultAnomalyConfig = dataset.DefaultAnomalyConfig
	// NewIoTGenerator builds an IoT traffic generator.
	NewIoTGenerator = dataset.NewIoTGenerator
	// DefaultIoTConfig is the Table 3 configuration.
	DefaultIoTConfig = dataset.DefaultIoTConfig
	// KMeansIoTConfig is the Table 5 KMeans configuration.
	KMeansIoTConfig = dataset.KMeansIoTConfig
	// SplitRecords converts records to (X, y) with y=1 for anomalies.
	SplitRecords = dataset.Split
	// NewDriftingGenerator builds a concept-drifting record generator.
	NewDriftingGenerator = dataset.NewDriftingGenerator
	// DefaultDriftConfig is the calibrated drifting workload.
	DefaultDriftConfig = dataset.DefaultDriftConfig
	// NewDriftingStream builds drifting packet traffic over n flows.
	NewDriftingStream = trafficgen.NewDriftingStream
	// NewDriftingStreams builds n independently seeded member streams of
	// the same drifting workload — one per fleet switch, each seeing its
	// own traffic mix on its own phase schedule.
	NewDriftingStreams = trafficgen.NewDriftingStreams
	// DefaultIoTDriftConfig is the calibrated drifting IoT workload.
	DefaultIoTDriftConfig = dataset.DefaultIoTDriftConfig
	// NewDriftingIoTGenerator builds a drifting IoT record generator.
	NewDriftingIoTGenerator = dataset.NewDriftingIoTGenerator
	// NewDriftingIoTStream builds drifting IoT packet traffic over n flows.
	NewDriftingIoTStream = trafficgen.NewDriftingIoTStream
	// NewDriftingStreamFrom builds a stream over caller-supplied traffic
	// and label DriftSources.
	NewDriftingStreamFrom = trafficgen.NewDriftingStreamFrom
	// WithLabelDelay makes the stream's label feed lag the traffic by n
	// SetPhase steps — the controller trains on stale ground truth.
	WithLabelDelay = trafficgen.WithLabelDelay
	// WithLabelNoise mislabels each labelled record with probability p.
	WithLabelNoise = trafficgen.WithLabelNoise
	// WithLabelClasses declares a k-category workload so label noise draws
	// random wrong categories instead of the binary flip.
	WithLabelClasses = trafficgen.WithLabelClasses
)

// Training helpers and metrics.
type (
	// SGDConfig controls DNN training.
	SGDConfig = ml.SGDConfig
	// Trainer performs minibatch SGD on a DNN.
	Trainer = ml.Trainer
	// BinaryConfusion tallies binary classifier outcomes (F1, precision,
	// recall — §5.2.2's scores).
	BinaryConfusion = ml.BinaryConfusion
	// MultiConfusion tallies k-class outcomes with per-class and macro F1 —
	// the scorer for the IoT classifiers.
	MultiConfusion = ml.MultiConfusion
)

// Model constructors.
var (
	// NewDNN builds a float feed-forward network.
	NewDNN = ml.NewDNN
	// NewTrainer wires a trainer to a DNN.
	NewTrainer = ml.NewTrainer
	// QuantizeDNN converts a trained DNN to 8-bit (Table 3's scheme).
	QuantizeDNN = ml.Quantize
	// QuantizeDNNWithInput quantises against a pinned input quantiser —
	// what a Controller does when requantising a retrained model for a
	// data plane whose preprocessing MATs keep their deployment-time
	// quantiser.
	QuantizeDNNWithInput = ml.QuantizeWithInput
	// TrainKMeans runs k-means++ plus Lloyd iterations.
	TrainKMeans = ml.TrainKMeans
	// TrainSVM fits an RBF SVM with SMO.
	TrainSVM = ml.TrainSVM
	// NewLSTM builds an Indigo-style LSTM.
	NewLSTM = ml.NewLSTM
	// NewQuantizer builds a symmetric int8 quantiser for [-absMax, absMax].
	NewQuantizer = fixed.NewQuantizer
	// QuantizerFor calibrates a quantiser from observed values.
	QuantizerFor = fixed.QuantizerFor
	// InputQuantizerFor calibrates the data plane's input quantiser from a
	// deployment-time record sample (the quantiser to pass to LoadModel).
	InputQuantizerFor = model.InputQuantizerFor
)

// Activations.
const (
	// ReLU is max(0, x).
	ReLU = ml.ReLU
	// LeakyReLU is x for x>=0 and 0.01x otherwise.
	LeakyReLU = ml.LeakyReLU
	// Sigmoid is the logistic function.
	Sigmoid = ml.Sigmoid
	// Tanh is the hyperbolic tangent.
	Tanh = ml.Tanh
	// LinearAct applies no non-linearity.
	LinearAct = ml.Linear
)

// BuildTCPPacket serialises a minimal Ethernet+IPv4+TCP packet for
// Device.Process and Pipeline batches.
var BuildTCPPacket = pisa.BuildTCPPacket
