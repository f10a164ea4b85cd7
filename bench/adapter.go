package main

// adapter.go is the only file of the benchmark that imports
// taurus/internal/...; every other file speaks the aliases and helpers
// declared here. It binds only to the surface ROADMAP.md intends to keep —
// Pipeline.{New,LoadModel,UpdateWeights,ProcessBatch,Process,ShardStats,
// ServiceModel,ModelLatencyNs,Close}, Device.{NewDevice,LoadModel,
// ProcessBatch}, sched.{Compile,Plan} and the Program accessors, graphcheck,
// compiler.Compile, Graph.{Eval,Clone}, pisa, netqueue, controlplane, model,
// distfit, obs — and to nothing slated for deletion, so a later simplicity
// change never has to edit the benchmark to compile.

import (
	"fmt"
	"math/rand"

	"taurus/internal/cgra"
	"taurus/internal/compiler"
	"taurus/internal/controlplane"
	"taurus/internal/core"
	"taurus/internal/dataset"
	"taurus/internal/distfit"
	"taurus/internal/fixed"
	"taurus/internal/graphcheck"
	mr "taurus/internal/mapreduce"
	"taurus/internal/ml"
	"taurus/internal/model"
	"taurus/internal/netqueue"
	"taurus/internal/obs"
	"taurus/internal/pipeline"
	"taurus/internal/pisa"
	"taurus/internal/sched"
	"taurus/internal/trafficgen"
)

type (
	PacketIn     = core.PacketIn
	Decision     = core.Decision
	Verdict      = core.Verdict
	Device       = core.Device
	Pipeline     = pipeline.Pipeline
	ServiceModel = pipeline.ServiceModel
	Graph        = mr.Graph
	Quantizer    = fixed.Quantizer
	Record       = dataset.Record
	Tape         = sched.Program
	Registry     = obs.Registry
	QueueResult  = netqueue.Result
	Controller   = controlplane.Controller
	DistFit      = distfit.Coordinator
)

const (
	Forward = core.Forward
	Flag    = core.Flag
	Drop    = core.Drop
)

// installShards is the shard count of the pipeline the control-path metrics
// (install, push, retrain, the queueing model) are measured on.
const installShards = 4

// deviceConfig is core.DefaultConfig — 4096 flow slots, threshold 64, flag on
// anomaly — bound to a private registry so the conservation laws are read
// from counters no other pipeline touches.
func deviceConfig(numFeatures int, reg *Registry) core.Config {
	cfg := core.DefaultConfig(numFeatures)
	cfg.Obs = reg
	return cfg
}

// scoreThreshold is the verdict MAT's cut on the model's output code.
func scoreThreshold(numFeatures int) int32 { return core.DefaultConfig(numFeatures).Threshold }

func newRegistry() *Registry { return obs.NewRegistry() }

func newPipeline(shards, numFeatures int, reg *Registry) (*Pipeline, error) {
	return pipeline.New(pipeline.Config{Shards: shards, Device: deviceConfig(numFeatures, reg)})
}

func loadPipeline(p *Pipeline, g *Graph, inQ Quantizer) error {
	//clonecheck:owned — Pipeline.LoadModel clones the graph per shard and only reads the one it is handed
	//gatecheck:verified — Pipeline.LoadModel runs graphcheck on the graph before installing
	return p.LoadModel(g, inQ, compiler.Options{})
}

// newDevice builds a bare device serving g. A device installs what it is
// given, so the graph passes the static gate here first; and it takes
// ownership of the graph, so it gets a clone.
func newDevice(numFeatures int, reg *Registry, g *Graph, inQ Quantizer) (*Device, error) {
	d, err := core.NewDevice(deviceConfig(numFeatures, reg))
	if err != nil {
		return nil, err
	}
	if err := graphcheck.VerifyWith(g, graphcheck.Options{Grid: cgra.DefaultGrid()}).Err(); err != nil {
		return nil, err
	}
	if err := d.LoadModel(g.Clone(), inQ, compiler.Options{}); err != nil {
		return nil, err
	}
	return d, nil
}

// registrySums adds up every counter of reg by name, across label sets.
func registrySums(reg *Registry) map[string]int64 {
	sums := map[string]int64{}
	for _, m := range reg.Snapshot() {
		if m.Kind == obs.KindCounter {
			sums[m.Name] += m.Value
		}
	}
	return sums
}

// trainedModel is one workload's model through its whole life: the float
// network behind model.Deployable (so the same object is retrained by the
// controller) and the pinned input quantiser.
type trainedModel struct {
	dep   *model.DNN
	inQ   Quantizer
	sizes []int
}

// recordSource is a seeded stream of labelled records of the anomaly
// workload at the given feature width.
func recordSource(numFeatures int, seed int64) (func(n int) []Record, error) {
	gen, err := dataset.NewAnomalyGenerator(dataset.AnomalyConfig{
		NumFeatures: numFeatures, AnomalyFraction: 0.3, Separation: 0.5,
	}, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, err
	}
	return gen.Records, nil
}

// trainModel builds and fits a DNN of the given layer widths. Every random
// choice — weight initialisation, record draws, SGD shuffling — comes from
// seed.
func trainModel(sizes []int, seed int64, records, epochs int) (*trainedModel, *Graph, error) {
	draw, err := recordSource(sizes[0], seed)
	if err != nil {
		return nil, nil, err
	}
	net := ml.NewDNN(sizes, ml.ReLU, ml.Sigmoid, rand.New(rand.NewSource(seed+1)))
	dep, err := model.NewDNN(net, model.DNNConfig{Epochs: epochs, Seed: seed | 1})
	if err != nil {
		return nil, nil, err
	}
	m := &trainedModel{dep: dep, sizes: sizes}
	recs := draw(records)
	m.inQ = model.InputQuantizerFor(recs)
	g, err := m.refit(recs)
	return m, g, err
}

func (m *trainedModel) numFeatures() int { return m.sizes[0] }

func (m *trainedModel) fit(recs []Record) error { return m.dep.Fit(recs) }

func (m *trainedModel) lower() (*Graph, error) { return m.dep.Lower(m.inQ) }

// refit warm-trains on recs and lowers a fresh graph against the pinned
// input domain.
func (m *trainedModel) refit(recs []Record) (*Graph, error) {
	if err := m.fit(recs); err != nil {
		return nil, err
	}
	return m.lower()
}

// frameParser is the standard Ethernet/IPv4/TCP|UDP parse graph over a PHV
// laid out like the device's (header fields plus the meta fields), so the
// per-packet reset costs what it costs inside a device.
type frameParser struct {
	p   *pisa.Parser
	phv *pisa.PHV
}

func newFrameParser(numFeatures int) (*frameParser, error) {
	names := append(pisa.StandardLayoutFields(), "meta.bypass", "meta.score", "meta.verdict")
	for i := 0; i < numFeatures; i++ {
		names = append(names, fmt.Sprintf("meta.f%d", i))
	}
	layout := pisa.NewLayout(names...)
	p, err := pisa.StandardParser(layout)
	if err != nil {
		return nil, err
	}
	return &frameParser{p: p, phv: pisa.NewPHV(layout)}, nil
}

func (f *frameParser) parse(data []byte) error {
	f.phv.Reset()
	_, err := f.p.Parse(data, f.phv)
	return err
}

// compileTape is sched.Compile on the default grid — plan, emit and (because
// core links the translation validator in) verify, exactly what a device
// does per install.
func compileTape(g *Graph) (*Tape, error) { return sched.Compile(g, cgra.DefaultGrid()) }

// planTape is the list scheduler alone.
func planTape(g *Graph) error {
	_, err := sched.Plan(g, cgra.DefaultGrid())
	return err
}

// tapeFacts are the exact counts of a compiled tape.
type tapeFacts struct {
	instrs, ii, depth int
	occupancy         float64
}

func factsOf(t *Tape) tapeFacts {
	s := t.Schedule()
	return tapeFacts{instrs: len(t.Code()), ii: s.II, depth: s.Depth, occupancy: s.Occupancy()}
}

func verifyGraph(g *Graph) error {
	return graphcheck.VerifyWith(g, graphcheck.Options{Grid: cgra.DefaultGrid()}).Err()
}

func compatibleGraphs(old, new *Graph) error { return graphcheck.Compatible(old, new) }

// placeGraph is compiler.Compile (fuse, place, time) and returns the placed
// design's initiation interval. The compiler keeps the graph it is given.
func placeGraph(g *Graph) (int, error) {
	res, err := compiler.Compile(g, compiler.Options{})
	if err != nil {
		return 0, err
	}
	return res.Stats.II, nil
}

// queueSim is one netqueue simulation whose event loop the caller drives in
// slices, so host time per simulated packet can be sampled along the run.
type queueSim struct{ sim *netqueue.Simulator }

// queueFlows is the working set of the synthetic arrival processes.
const queueFlows = 512

func newPoissonSim(svc ServiceModel, pps float64, seed int64) (*queueSim, error) {
	arr, err := netqueue.NewPoisson(pps, queueFlows, seed)
	if err != nil {
		return nil, err
	}
	sim, err := netqueue.New(netqueue.Config{Service: svc}, arr)
	return &queueSim{sim}, err
}

// newOnOffSim offers bursts at 4x the nominal rate for a mean 400 services'
// worth of time, spaced so the long-run load is the given share of nominal —
// long enough bursts that the 512-deep queues overflow.
func newOnOffSim(svc ServiceModel, load float64, seed int64) (*queueSim, error) {
	const peakX = 4.0
	nominal := svc.NominalPPS()
	onNs := 400 * svc.MLServiceNs
	arr, err := netqueue.NewOnOff(netqueue.OnOffConfig{
		PeakPPS:   peakX * nominal,
		MeanOnNs:  onNs,
		MeanOffNs: onNs * (peakX/load - 1),
		Flows:     queueFlows,
		Seed:      seed,
	})
	if err != nil {
		return nil, err
	}
	sim, err := netqueue.New(netqueue.Config{Service: svc}, arr)
	return &queueSim{sim}, err
}

func (q *queueSim) run(packets int) { q.sim.RunPackets(packets) }

func (q *queueSim) finish() QueueResult {
	q.sim.Drain()
	return q.sim.Stats()
}

// maxSustainablePPS is the highest Poisson rate the service model carries
// with zero drops over packets arrivals per probe.
func maxSustainablePPS(svc ServiceModel, seed int64, packets int) (float64, error) {
	mk := func(pps float64) (netqueue.ArrivalProcess, error) {
		return netqueue.NewPoisson(pps, queueFlows, seed)
	}
	return netqueue.MaxSustainablePPS(netqueue.Config{Service: svc}, mk, packets, 0)
}

// capturePusher forwards the controller's pushes to a pipeline and keeps the
// graph of the last one that landed, so the reference checker can rerun
// against the weights the controller just installed.
type capturePusher struct {
	*Pipeline
	last *Graph
}

func (c *capturePusher) UpdateWeights(g *Graph) error {
	err := c.Pipeline.UpdateWeights(g) //clonecheck:owned — forwards the controller's freshly lowered graph; the pipeline only reads it
	if err == nil {
		c.last = g
	}
	return err
}

// newController builds an in-process-fit controller over pusher. source
// feeds every retrain's labelled records.
func newController(pusher *capturePusher, m *trainedModel, source func(n int) []Record, retrainRecords int, reg *Registry) (*Controller, error) {
	return controlplane.New(pusher, m.dep, m.inQ, source, controlplane.Config{
		RetrainRecords: retrainRecords,
		Obs:            reg,
	})
}

func newDistFit(m *trainedModel, workers, chunk int) (*DistFit, error) {
	return distfit.New(m.dep, distfit.Config{Workers: workers, ChunkSize: chunk})
}

// trafficgenBatch times the program's own generator, not the benchmark's.
func trafficgenBatch(seed int64, n, flows int) error {
	_, _, err := trafficgen.AnomalyBatch(seed, n, flows)
	return err
}
