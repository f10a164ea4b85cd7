// Package taurus is the public API of the Taurus reproduction: a data-plane
// architecture for per-packet ML (Swamy et al., ASPLOS 2022).
//
// The surface is what the examples and commands call, plus the paper's
// programming surface:
//
//   - MapReduce programs (the paper's P4 MapReduce control block, Figure 4)
//     are built with NewProgram and the Builder's Map/Reduce/LUT methods, or
//     by lowering a trained model with LowerDNN / LowerKMeans /
//     LowerLSTMStep. VerifyGraph reports a program's value ranges, resource
//     census and dead nodes; Compile places it onto the CGRA grid of compute
//     and memory units (§4), returning latency, initiation interval, area
//     and power — the quantities behind Tables 5-7. CompileProgram emits the
//     instruction tape a device runs, and VerifyTape checks that tape
//     against its source graph.
//
//   - NewPipeline builds the primary entry point for serving traffic: a
//     sharded Pipeline of N Taurus devices. Packets are routed to shards by
//     a five-tuple hash (per-flow register state stays shard-local), batches
//     fan out across worker goroutines via ProcessBatch, and control-plane
//     weight pushes (Figure 1) reach every shard live via UpdateWeights.
//     The steady-state batch path performs no heap allocation. NewDevice
//     builds a single Taurus switch — parser, preprocessing MATs with
//     stateful feature registers, the MapReduce block with a bypass path,
//     postprocessing MATs — for callers that want one shard and no
//     goroutines. Both take functional options: WithDropOnAnomaly, and
//     (pipelines only) WithShards. LoadModel installs a compiled program.
//
//   - NewController closes the control loop over a running Pipeline
//     (Figure 1, §3.3.1): feed it the data plane's decisions with Observe,
//     and it detects concept drift against a reference window, retrains its
//     model on freshly labelled telemetry from a LabelSource, requantises
//     against the deployed input domain, and pushes the new weights to every
//     shard via UpdateWeights — out-of-band, while batches keep flowing. The
//     controller drives any Deployable: a DNN wrapped with NewDNNDeployable,
//     an RBF SVM from NewSVMDeployable, a KMeans classifier from
//     NewKMeansDeployable. The caller drives it: Observe after each batch,
//     RetrainNow when Observe reports drift, Close when done; tune it with
//     WithRetrainRecords and WithDistFit.
//     NewDriftingStream generates a matching concept-drifting workload,
//     with WithLabelDelay and WithLabelNoise for label realism.
//
//   - NewFleet scales the control plane out: one trainer driving N
//     registered switches, each with its own drift detector and traffic
//     mix. Drift on any member pools labels from the drifted members
//     (weighted by traffic share), retrains the one shared model and pushes
//     the lowered graph to every switch atomically; a late Register catches
//     the joiner up with the current graph. NewDriftingStreams builds the
//     matching per-member workloads. When one goroutine's Fit becomes the
//     scaling wall, WithDistFit shards the retrain coordinator/worker style
//     (fixed chunk schedule, deadline re-issue of a crashed worker's task)
//     while keeping the pushed graph bit-identical to the single-process
//     merge.
//
//   - Metrics and Tracer expose the observability layer (internal/obs):
//     every device, pipeline, controller and fleet binds its counters and
//     latency histograms to one process-wide registry (stable dotted names,
//     allocation-free hot-path updates), and every control-plane action —
//     drift detection, retrain rounds, graph and tape verification verdicts,
//     pushes and rollbacks — lands in a bounded trace journal. Snapshot the
//     registry programmatically or serve it over HTTP with MetricsHandler
//     (Prometheus text and JSON). The Stats() methods are views over the
//     same instruments.
//
//   - NewSimulator asks the production question the batch plane cannot:
//     what latency and loss do packets see when arrivals are a process in
//     time? It is a discrete-event, continuous-time queueing simulator over
//     a deployed Pipeline's measured service model (II ns per ML packet at
//     the busiest shard, finite per-shard FIFO queues), fed by an
//     ArrivalProcess — NewPoissonArrivals or bursty NewOnOffArrivals — and
//     reporting p50/p99/p999 transit latency, queue depths and drops.
//     Simulator.Push makes a weight push a simulated per-shard service
//     stall. MaxSustainableLoad binary-searches the drop-bounded capacity of
//     a deployment under any arrival shape.
//
//   - The ML constructors (NewDNN, TrainKMeans, NewLSTM) cover the paper's
//     application suite with float training for the control plane, and
//     QuantizeDNN and the lowerings give bit-exact 8-bit inference for the
//     data plane.
//
// Failures surface sentinel errors — ErrNoModel, ErrBadFeatureWidth,
// ErrStructureMismatch, ErrBadConfig, ErrBadGraph, ErrGraphIncompatible,
// ErrBadTape, ErrDistFitClosed — for errors.Is dispatch.
//
// Everything is pure Go and deterministic under a fixed seed.
package taurus

import (
	"fmt"
	"net/http"

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

// VerifyGraph runs value-range, resource and dead-node analysis on g against
// the default grid and returns the full report. It is the static pre-push
// gate (internal/graphcheck): every LoadModel and UpdateWeights — on a Device
// or a Pipeline, and so every Controller and Fleet retrain push — runs the
// same analyses and refuses a graph that fails them with ErrBadGraph (a push
// is verified against the grid its model was installed on).
var VerifyGraph = graphcheck.Verify

// GraphReport is the verifier's full result: per-node findings, the resource
// census against the grid and dead-node diagnostics. OK() is the gate;
// String() renders the report taurus-compile -check prints.
type GraphReport = graphcheck.Report

// Static-verification sentinels, for errors.Is.
var (
	// ErrBadGraph: a graph failed static verification (saturation, resource
	// overflow, or a Validate rejection).
	ErrBadGraph = graphcheck.ErrBadGraph
	// ErrGraphIncompatible: a push is not a weight-only update of the
	// previously pushed structure.
	ErrGraphIncompatible = graphcheck.ErrIncompatible
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
// checked against Graph.Eval, the reference semantics. CompileProgram
// list-schedules a validated graph into VLIW-style issue bundles under the
// grid's CU/MU capacity and emits the fused, allocation-free instruction
// tape the device hot path runs, with batch-vectorised RunBatch; its
// Schedule() reports the measured depth and initiation interval — the only
// depth and II the static tools print (taurus-compile -check lists the
// bundles). Devices compile installed models automatically — a model whose
// tape the scheduler or the translation validator refuses fails LoadModel
// with that error and the previous model keeps serving — so this entry
// point is for inspecting or benchmarking a tape directly.

// CompiledProgram is the executable instruction tape; Run/RunBatch are
// bit-exact with Graph.Eval and allocate nothing.
type CompiledProgram = sched.Program

// CompileProgram plans g, emits its instruction tape and verifies the tape
// against g; a tape that fails is an error wrapping ErrBadTape.
func CompileProgram(g *Graph, spec GridSpec) (*CompiledProgram, error) {
	return sched.Compile(g, spec)
}

// TapeReport is the translation validator's full result: semantic
// equivalence of every output lane against the source graph, the
// weight-addressing and row-sum audits and the arena/schedule bounds. Value
// ranges are GraphReport's: a lane the tape proves equal to the graph's
// inherits them. CompileProgram (and every Device install) already refuses a
// tape that fails; taurus-compile -check prints the report.
type TapeReport = sched.Report

// ErrBadTape: a compiled tape failed translation validation.
var ErrBadTape = sched.ErrBadTape

// VerifyTape validates a compiled tape against its source graph and returns
// the full report.
var VerifyTape = sched.Verify

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
)

// Forward is the verdict of a packet the model passes; an anomalous packet
// is flagged, or dropped under WithDropOnAnomaly.
const Forward = core.Forward

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

// WithDropOnAnomaly makes anomalous packets Drop instead of the default
// Flag.
func WithDropOnAnomaly() Option { return func(o *options) { o.dev.DropOnAnomaly = true } }

// WithShards sets the pipeline's shard count (default 4). NewDevice ignores
// it — a Device is always a single shard.
func WithShards(n int) Option { return func(o *options) { o.shards = n } }

func buildOptions(numFeatures int, opts []Option) options {
	o := options{dev: core.DefaultConfig(numFeatures), shards: pipeline.DefaultShards}
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
	// retraining, out-of-band weight pushes.
	Controller = controlplane.Controller
	// Fleet is one control plane driving N switches: a single trainer with
	// a per-member drift detector, pooling labels from the drifted members
	// and fanning one lowered graph out to every registered pipeline.
	Fleet = controlplane.Fleet
	// LabelSource supplies freshly sampled labelled records reflecting the
	// current traffic distribution (the control plane's telemetry joined
	// with ground truth).
	LabelSource = controlplane.LabelSource

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

	// DistFitConfig parameterises distributed retraining (WithDistFit):
	// worker count, chunk size (the merge schedule), task deadline, tracer.
	DistFitConfig = distfit.Config
)

// ErrDistFitClosed is returned by a coordinator's Fit after Close, and by a
// Controller's or Fleet's RetrainNow after its Close.
var ErrDistFitClosed = distfit.ErrClosed

// Deployable constructors: model lifecycles the Controller can retrain.
var (
	// NewDNNDeployable wraps a float DNN (the Deployable takes ownership).
	NewDNNDeployable = model.NewDNN
	// NewSVMDeployable builds an RBF SVM lifecycle (trained on first Fit).
	NewSVMDeployable = model.NewSVM
	// NewKMeansDeployable builds a nearest-centroid classifier lifecycle.
	NewKMeansDeployable = model.NewKMeans
)

// ControllerOption configures NewController and NewFleet.
type ControllerOption func(*controlplane.Config)

// WithDistFit routes every retrain's Fit through the coordinator/worker
// distributed fit: collected records are chunked, cfg.Workers compute
// model partials concurrently, and the partials merge in deterministic
// chunk-index order, so the pushed graph stays bit-identical to a
// single-process merge over the same schedule — across worker counts,
// completion orders, stragglers and worker crashes. All three Deployable
// families support it.
func WithDistFit(cfg DistFitConfig) ControllerOption {
	return func(c *controlplane.Config) { c.DistFit = &cfg }
}

// WithRetrainRecords sets how many labelled records each retrain collects
// (default 2048).
func WithRetrainRecords(n int) ControllerOption {
	return func(c *controlplane.Config) { c.RetrainRecords = n }
}

func buildControllerConfig(opts []ControllerOption) controlplane.Config {
	cfg := controlplane.DefaultConfig()
	for _, opt := range opts {
		opt(&cfg)
	}
	return cfg
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
	return controlplane.New(p, m, inQ, src, buildControllerConfig(opts))
}

// NewFleet builds the multi-switch control plane (§3.3.1 scaled out to a
// deployment): one trainer — the lifecycle of the deployed model m; the
// fleet takes ownership — serving N switches. Register each switch with
// fleet.Register(name, pipeline, labelSource); every member gets its own
// drift detector, and drift on any member triggers one retrain pooled from
// the drifted members' labels, pushed atomically to every switch. inQ must
// be the quantiser the members' shared deployment was loaded with (the
// pipelines' InputQuantizer after LoadModel). Tune with the same
// ControllerOptions as NewController.
func NewFleet(m Deployable, inQ Quantizer, opts ...ControllerOption) (*Fleet, error) {
	return controlplane.NewFleet(m, inQ, buildControllerConfig(opts))
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
	// TraceJournal is the bounded ring-buffer journal of control-plane
	// events: drift detections, retrain spans, tapecheck verdicts, model
	// publishes, rollbacks, distfit rounds. Events() returns the
	// retained window oldest-first; WriteText/WriteJSON render it.
	TraceJournal = obs.Tracer
)

// Metrics returns the process-wide default registry — the one every device,
// pipeline, controller and fleet binds to unless an internal config
// overrides it.
func Metrics() *MetricsRegistry { return obs.Default() }

// Tracer returns the process-wide default trace journal — the one every
// control plane emits to unless configured otherwise.
func Tracer() *TraceJournal { return obs.DefaultTracer() }

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
	// ArrivalProcess generates the simulator's packet arrivals.
	ArrivalProcess = netqueue.ArrivalProcess
	// OnOffArrivalConfig parameterises the bursty on/off arrival process.
	OnOffArrivalConfig = netqueue.OnOffConfig
)

// Arrival-process constructors.
var (
	// NewPoissonArrivals builds memoryless arrivals at a fixed rate.
	NewPoissonArrivals = netqueue.NewPoisson
	// NewOnOffArrivals builds a two-state bursty MMPP source.
	NewOnOffArrivals = netqueue.NewOnOff
)

// simConfig derives the simulator configuration from a deployed pipeline:
// 512-packet queues per shard, and a 10µs per-shard service stall per push.
func simConfig(p *Pipeline) (netqueue.Config, error) {
	if p == nil {
		return netqueue.Config{}, fmt.Errorf("%w: nil pipeline", ErrBadConfig)
	}
	svc := p.ServiceModel()
	if svc.MLServiceNs <= 0 {
		return netqueue.Config{}, fmt.Errorf("%w: pipeline has no deployed model; LoadModel before simulating", ErrNoModel)
	}
	return netqueue.Config{Service: svc, PushStallNs: netqueue.DefaultPushStallNs}, nil
}

// NewSimulator builds the continuous-time queueing simulator over p's
// measured service model (a model must be deployed with LoadModel first),
// fed by arr. The simulated timeline is continuous across RunPackets
// calls; pair Stats with ResetStats for windowed measurements, and call
// Push to make a retrain's weight write a simulated event.
func NewSimulator(p *Pipeline, arr ArrivalProcess) (*Simulator, error) {
	cfg, err := simConfig(p)
	if err != nil {
		return nil, err
	}
	return netqueue.New(cfg, arr)
}

// MaxSustainableLoad binary-searches the highest offered rate (packets/sec)
// p's deployment sustains with a drop fraction at most maxDropFrac, under
// the arrival shape mk builds per probed rate — the shard-count-sizing
// question ("how many shards for this SLO?") answered by simulation.
func MaxSustainableLoad(p *Pipeline, mk func(pps float64) (ArrivalProcess, error), packets int, maxDropFrac float64) (float64, error) {
	cfg, err := simConfig(p)
	if err != nil {
		return 0, err
	}
	return netqueue.MaxSustainablePPS(cfg, mk, packets, maxDropFrac)
}

// Machine-learning models (§5.1.2) and quantisation (Table 3).
type (
	// QuantizedDNN is the 8-bit data-plane counterpart of a float DNN
	// (QuantizeDNN).
	QuantizedDNN = ml.QuantizedDNN
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
	// LowerLSTMStep lowers one recurrent step of an LSTM.
	LowerLSTMStep = lower.LSTMStep
)

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
	// DriftingStream produces labelled packet batches over a flow working
	// set whose feature distributions drift with the stream's phase, plus
	// the label feed a Controller retrains on.
	DriftingStream = trafficgen.DriftingStream
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
	// KMeansIoTConfig is the Table 5 KMeans configuration.
	KMeansIoTConfig = dataset.KMeansIoTConfig
	// SplitRecords converts records to (X, y) with y=1 for anomalies.
	SplitRecords = dataset.Split
	// DefaultDriftConfig is the calibrated drifting workload.
	DefaultDriftConfig = dataset.DefaultDriftConfig
	// NewDriftingStream builds drifting packet traffic over n flows.
	NewDriftingStream = trafficgen.NewDriftingStream
	// NewDriftingStreams builds n independently seeded member streams of
	// the same drifting workload — one per fleet switch, each seeing its
	// own traffic mix on its own phase schedule.
	NewDriftingStreams = trafficgen.NewDriftingStreams
	// WithLabelDelay makes the stream's label feed lag the traffic by n
	// SetPhase steps — the controller trains on stale ground truth.
	WithLabelDelay = trafficgen.WithLabelDelay
	// WithLabelNoise mislabels each labelled record with probability p.
	WithLabelNoise = trafficgen.WithLabelNoise
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
)

// Model constructors.
var (
	// NewDNN builds a float feed-forward network.
	NewDNN = ml.NewDNN
	// NewTrainer wires a trainer to a DNN.
	NewTrainer = ml.NewTrainer
	// QuantizeDNN converts a trained DNN to 8-bit (Table 3's scheme).
	QuantizeDNN = ml.Quantize
	// TrainKMeans runs k-means++ plus Lloyd iterations.
	TrainKMeans = ml.TrainKMeans
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
	// Sigmoid is the logistic function.
	Sigmoid = ml.Sigmoid
)

// BuildTCPPacket serialises a minimal Ethernet+IPv4+TCP packet for
// Device.Process and Pipeline batches.
var BuildTCPPacket = pisa.BuildTCPPacket
