// Package core integrates the Taurus device (§3, §4, Figure 6): a PISA
// pipeline — parser, preprocessing MATs with stateful feature registers —
// feeding the MapReduce block for per-packet inference, with a bypass path
// for non-ML traffic, a round-robin merge, postprocessing MATs that turn
// the model output into a forwarding verdict, and out-of-band weight
// updates from the control plane (Figure 1).
//
// The packet path (Process, ProcessBatch) is allocation-free in the steady
// state: the PHV, the feature-code staging and every MapReduce intermediate
// are preallocated when the model is loaded, mirroring hardware where all
// buffers exist before the first packet arrives.
package core

import (
	"fmt"
	"strconv"
	"sync/atomic"

	"taurus/internal/cgra"
	"taurus/internal/compiler"
	"taurus/internal/fixed"
	mr "taurus/internal/mapreduce"
	"taurus/internal/obs"
	"taurus/internal/pisa"
	"taurus/internal/sched"
)

// Verdict is the postprocessing decision for a packet (§3.2: drop, flag, or
// forward).
type Verdict int

const (
	// Forward lets the packet through unchanged.
	Forward Verdict = iota
	// Flag forwards but marks the packet for monitoring.
	Flag
	// Drop discards the packet.
	Drop
)

// String names the verdict.
func (v Verdict) String() string {
	switch v {
	case Forward:
		return "forward"
	case Flag:
		return "flag"
	case Drop:
		return "drop"
	default:
		return fmt.Sprintf("invalid(%d)", int(v))
	}
}

// Decision is the per-packet outcome.
type Decision struct {
	Verdict  Verdict
	Bypassed bool
	// MLScore is the raw model output code (meaningless when Bypassed).
	MLScore int32
	// LatencyNs is the modelled switch transit time for this packet.
	LatencyNs float64
}

// Stats counts device activity.
type Stats struct {
	Processed, MLInferences, Bypassed int
	Forwarded, Flagged, Dropped       int
	// ParseErrors counts the packets dropped as malformed before the
	// verdict MAT: a frame the parser refuses, or a feature vector of the
	// wrong width — in Taurus the features arrive in the packet's INT
	// header, so that header is malformed. Processed = MLInferences +
	// Bypassed + ParseErrors, and Forwarded + Flagged + Dropped =
	// Processed - ParseErrors.
	ParseErrors int
	// ModelBusyNs is the modelled occupancy of this device's MapReduce
	// block: each ML packet holds an issue slot for II cycles (1 ns each at
	// the 1 GHz fabric), each bypass packet for one PISA cycle. The busiest
	// shard's occupancy bounds a pipeline's modelled throughput.
	ModelBusyNs float64
}

// Add accumulates other into s (for merging per-shard stats).
func (s *Stats) Add(other Stats) {
	s.Processed += other.Processed
	s.MLInferences += other.MLInferences
	s.Bypassed += other.Bypassed
	s.Forwarded += other.Forwarded
	s.Flagged += other.Flagged
	s.Dropped += other.Dropped
	s.ParseErrors += other.ParseErrors
	s.ModelBusyNs += other.ModelBusyNs
}

// BaseSwitchLatencyNs is the transit latency of the conventional pipeline
// (§5.1.2 assumes a 1 µs datacenter switch).
const BaseSwitchLatencyNs = 1000.0

// bypassCycleNs is the MapReduce-block occupancy of a bypass packet: one
// PISA cycle through the arbiter, no compute (§4).
const bypassCycleNs = 1.0

// Config parameterises a device.
type Config struct {
	// Grid is the MapReduce block configuration (DefaultGrid if zero).
	Grid cgra.GridSpec
	// FlowTableSize is the number of per-flow register slots for feature
	// accumulation. Any positive size is exact: a flow hash is reduced
	// modulo it by pisa.FastMod.
	FlowTableSize int
	// NumFeatures is the model's input width.
	NumFeatures int
	// Threshold is the post-processing cut on the model's output code:
	// score >= Threshold is treated as anomalous (Drop), below as benign.
	Threshold int32
	// DropOnAnomaly selects Drop (true) or Flag (false) for anomalous
	// packets.
	DropOnAnomaly bool
	// Obs is the metrics registry the device's instruments register in
	// (obs.Default() when nil). Stats() is a view over these instruments.
	Obs *obs.Registry
	// ObsLabels identify this device's instruments in the registry — the
	// pipeline tags its shards {pipe, shard}. When nil the device takes a
	// process-unique {dev=N} label; two devices sharing a registry AND an
	// explicit label set share instruments, so their Stats() merge.
	ObsLabels []obs.Label
	// Tracer receives the device's control-plane events — today the tape
	// compile verdict of each model install (obs.DefaultTracer() when nil).
	Tracer *obs.Tracer
}

// DefaultConfig returns the anomaly-detection configuration of §5.2.2.
func DefaultConfig(numFeatures int) Config {
	return Config{FlowTableSize: 4096, NumFeatures: numFeatures, Threshold: 64, DropOnAnomaly: false}
}

// grid and tracer resolve the configuration's defaults.
func (c Config) grid() cgra.GridSpec {
	if c.Grid == (cgra.GridSpec{}) {
		return cgra.DefaultGrid()
	}
	return c.Grid
}

func (c Config) tracer() *obs.Tracer {
	if c.Tracer == nil {
		return obs.DefaultTracer()
	}
	return c.Tracer
}

// Device is a Taurus switch. A Device is not safe for concurrent use; the
// pipeline package shards traffic across several devices for that.
type Device struct {
	cfg    Config
	parser *pisa.Parser
	preMAT *pisa.Table
	post   *pisa.Table

	// featureRegs[i] holds feature i for every tracked flow (§3.1 stateful
	// registers; values are int8 codes from the preprocessing MATs).
	featureRegs []*pisa.RegisterArray
	// flowValid marks slots whose features have been accumulated.
	flowValid *pisa.RegisterArray

	// model is the model being served (nil before the first install: every
	// packet bypasses) and prog its tape bound to the model's current image
	// and this device's arena. A bare device publishes its own model in
	// LoadModel / UpdateWeights; a pipeline's shard is handed the model of
	// each batch (ProcessIndexed). mlIdx holds the batch indices of the ML
	// packets staged in prog, cap = the tape's batch.
	model *Model
	prog  sched.Program
	mlIdx []int

	phv       *pisa.PHV
	bypassID  pisa.FieldID
	scoreID   pisa.FieldID
	verdictID pisa.FieldID

	// m holds the registry-backed instruments Stats() reads; tally is the
	// single-writer per-call scratch the packet path increments, folded into
	// m once per Process* call so the hot path pays a handful of atomic ops
	// per batch instead of several per packet.
	m     devMetrics
	tally devTally
}

// devMetrics are the device's registry instruments, all sharing one label
// set. The dotted names live under taurus.device.*.
type devMetrics struct {
	processed    *obs.Counter
	mlInferences *obs.Counter
	bypassed     *obs.Counter
	forwarded    *obs.Counter
	flagged      *obs.Counter
	dropped      *obs.Counter
	parseErrors  *obs.Counter
	// sweeps counts tape sweeps (ml_inferences / sweeps is the mean batch
	// fill); fallbacks counts the (weight row, slot pair) cells of those
	// sweeps whose operands failed the matvec packing guard and were
	// evaluated product by product (sched.Program.Fallbacks).
	sweeps    *obs.Counter
	fallbacks *obs.Counter
	// modelBusyNs accumulates the MapReduce block's modelled occupancy in
	// integral nanoseconds (II per ML packet, one cycle per bypass).
	modelBusyNs *obs.Counter
	// serviceNs is the per-packet service-time distribution: every ML
	// inference records its II, every bypass its single cycle, so
	// serviceNs.Count == ml+bypass and serviceNs.Sum == modelBusyNs.
	serviceNs *obs.Histogram
	// modelEpoch is the epoch of the model that served the device's last
	// Process* call (0 while it has none).
	modelEpoch *obs.Gauge
}

// devTally mirrors the counters as plain ints for the packet path.
type devTally struct {
	processed, mlInferences, bypassed int
	forwarded, flagged, dropped       int
	parseErrors                       int
	sweeps, fallbacks                 int
}

// devOrdinal numbers devices built without explicit ObsLabels.
var devOrdinal atomic.Int64

func bindDevMetrics(reg *obs.Registry, labels []obs.Label) devMetrics {
	return devMetrics{
		processed:    reg.Counter("taurus.device.processed", labels...),
		mlInferences: reg.Counter("taurus.device.ml_inferences", labels...),
		bypassed:     reg.Counter("taurus.device.bypassed", labels...),
		forwarded:    reg.Counter("taurus.device.forwarded", labels...),
		flagged:      reg.Counter("taurus.device.flagged", labels...),
		dropped:      reg.Counter("taurus.device.dropped", labels...),
		parseErrors:  reg.Counter("taurus.device.parse_errors", labels...),
		sweeps:       reg.Counter("taurus.device.sweeps", labels...),
		fallbacks:    reg.Counter("taurus.device.tape_fallbacks", labels...),
		modelBusyNs:  reg.Counter("taurus.device.model_busy_ns", labels...),
		serviceNs:    reg.Histogram("taurus.device.service_ns", labels...),
		modelEpoch:   reg.Gauge("taurus.device.model_epoch", labels...),
	}
}

// flushTally folds the per-call tally into the registry instruments. Runs
// once per Process* call, so its cost amortises over the whole batch.
//
// hotpath: zero-alloc
func (d *Device) flushTally() {
	t, ii := &d.tally, d.model.ScheduledII()
	if t.processed != 0 {
		d.m.processed.Add(int64(t.processed))
	}
	if t.mlInferences != 0 {
		d.m.mlInferences.Add(int64(t.mlInferences))
		d.m.serviceNs.RecordN(float64(ii), int64(t.mlInferences))
	}
	if t.bypassed != 0 {
		d.m.bypassed.Add(int64(t.bypassed))
		d.m.serviceNs.RecordN(bypassCycleNs, int64(t.bypassed))
	}
	if busy := int64(t.mlInferences)*int64(ii) + int64(t.bypassed); busy != 0 {
		d.m.modelBusyNs.Add(busy)
	}
	if t.forwarded != 0 {
		d.m.forwarded.Add(int64(t.forwarded))
	}
	if t.flagged != 0 {
		d.m.flagged.Add(int64(t.flagged))
	}
	if t.dropped != 0 {
		d.m.dropped.Add(int64(t.dropped))
	}
	if t.parseErrors != 0 {
		d.m.parseErrors.Add(int64(t.parseErrors))
	}
	if t.sweeps != 0 {
		d.m.sweeps.Add(int64(t.sweeps))
	}
	if t.fallbacks != 0 {
		d.m.fallbacks.Add(int64(t.fallbacks))
	}
	d.m.modelEpoch.Set(int64(d.model.Epoch()))
	*t = devTally{}
}

// NewDevice builds a device; a model must be loaded before ML packets can be
// classified (packets bypass until then).
func NewDevice(cfg Config) (*Device, error) {
	if cfg.NumFeatures <= 0 {
		return nil, fmt.Errorf("%w: NumFeatures must be positive, got %d", ErrBadConfig, cfg.NumFeatures)
	}
	if cfg.FlowTableSize <= 0 {
		cfg.FlowTableSize = 4096
	}
	cfg.Grid = cfg.grid()
	reg := cfg.Obs
	if reg == nil {
		reg = obs.Default()
	}
	labels := cfg.ObsLabels
	if labels == nil {
		labels = []obs.Label{obs.L("dev", strconv.FormatInt(devOrdinal.Add(1)-1, 10))}
	}
	cfg.Tracer = cfg.tracer()

	names := pisa.StandardLayoutFields()
	names = append(names, "meta.bypass", "meta.score", "meta.verdict")
	layout := pisa.NewLayout(names...)
	parser, err := pisa.StandardParser(layout)
	if err != nil {
		return nil, err
	}

	d := &Device{
		cfg:       cfg,
		parser:    parser,
		phv:       pisa.NewPHV(layout),
		flowValid: pisa.NewRegisterArray(cfg.FlowTableSize),
		bypassID:  layout.ID("meta.bypass"),
		scoreID:   layout.ID("meta.score"),
		verdictID: layout.ID("meta.verdict"),
		m:         bindDevMetrics(reg, labels),
		mlIdx:     make([]int, 0, sched.DefaultBatch),
	}
	for i := 0; i < cfg.NumFeatures; i++ {
		d.featureRegs = append(d.featureRegs, pisa.NewRegisterArray(cfg.FlowTableSize))
	}

	// Preprocessing MAT: non-IPv4/TCP traffic bypasses the MapReduce block
	// (Figure 6). Default action marks bypass; a TCP rule clears it.
	d.preMAT = pisa.NewTable("pre_bypass", []pisa.Key{
		{Field: layout.ID("eth.type"), Kind: pisa.Exact},
		{Field: layout.ID("ipv4.proto"), Kind: pisa.Exact},
	}, 16)
	d.preMAT.Default = &pisa.VLIWAction{Name: "set_bypass", Ops: []pisa.ActionOp{{Dst: d.bypassID, Imm: 1}}}
	if err := d.preMAT.Insert(&pisa.Entry{
		Values: []int32{0x0800, 6},
		Action: &pisa.VLIWAction{Name: "ml_path", Ops: []pisa.ActionOp{{Dst: d.bypassID, Imm: 0}}},
	}); err != nil {
		return nil, err
	}

	// Postprocessing MAT (§3.2): subtract the threshold from the score,
	// then a ternary match on the sign bit separates benign from anomalous.
	d.post = pisa.NewTable("post_verdict", []pisa.Key{
		{Field: layout.ID("meta.score"), Kind: pisa.Ternary},
	}, 4)
	anomalyVerdict := int32(Flag)
	if cfg.DropOnAnomaly {
		anomalyVerdict = int32(Drop)
	}
	// Negative (sign bit set) -> benign/forward.
	if err := d.post.Insert(&pisa.Entry{
		Values: []int32{-0x80000000}, Masks: []int32{-0x80000000}, Priority: 10,
		Action: &pisa.VLIWAction{Name: "benign", Ops: []pisa.ActionOp{{Dst: d.verdictID, Imm: int32(Forward)}}},
	}); err != nil {
		return nil, err
	}
	// Non-negative -> anomalous.
	if err := d.post.Insert(&pisa.Entry{
		Values: []int32{0}, Masks: []int32{0}, Priority: 1,
		Action: &pisa.VLIWAction{Name: "anomalous", Ops: []pisa.ActionOp{{Dst: d.verdictID, Imm: anomalyVerdict}}},
	}); err != nil {
		return nil, err
	}
	return d, nil
}

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// checkModel validates a program's shape against the device configuration.
func (c Config) checkModel(g *mr.Graph) error {
	if len(g.Inputs) != 1 || g.Node(g.Inputs[0]).Width != c.NumFeatures {
		return fmt.Errorf("%w: model wants %d inputs of width %d, device has %d features",
			ErrBadFeatureWidth, len(g.Inputs), inputWidth(g), c.NumFeatures)
	}
	if len(g.Outputs) != 1 || g.Node(g.Outputs[0]).Width != 1 {
		return fmt.Errorf("%w: model must produce one single-lane output", ErrStructureMismatch)
	}
	return nil
}

// LoadModel compiles a MapReduce program onto the device's grid and
// installs it, together with the feature quantiser the preprocessing MATs
// use (see Install). The graph must pass the static gate (graphcheck;
// ErrBadGraph otherwise), take a single input of width NumFeatures and
// produce a single-lane score output; it is copied, not kept. On error the
// device is untouched: the model it was serving (or none) keeps serving.
func (d *Device) LoadModel(g *mr.Graph, inQ fixed.Quantizer, opts compiler.Options) error {
	return d.publish(Install(d.cfg, d.model, g, inQ, opts, 1))
}

// publish serves m unless it is nil (a refusal, or nothing to roll back).
func (d *Device) publish(m *Model, err error) error {
	if m != nil {
		d.serve(m, 0)
	}
	return err
}

// serve makes m the model the packet path runs, in m's arena for shard.
func (d *Device) serve(m *Model, shard int) {
	if d.model = m; m != nil {
		d.prog = sched.Bind(m.tape, m.image, m.arenas[shard])
	}
}

func inputWidth(g *mr.Graph) int {
	if len(g.Inputs) == 0 {
		return 0
	}
	return g.Node(g.Inputs[0]).Width
}

// UpdateWeights swaps the constants, multipliers and LUT tables of the
// installed model for those of newGraph without re-placing the design (see
// Model.WithWeights: the graph must pass the static gate against the grid the
// model was installed on and be a weight-only update). The new graph is only
// read, so one graph can be pushed to many devices concurrently, and a
// refused push leaves the served weights alone.
func (d *Device) UpdateWeights(newGraph *mr.Graph) error {
	return d.publish(d.model.WithWeights(newGraph))
}

// RollbackWeights serves again what the last accepted push replaced.
func (d *Device) RollbackWeights() {
	d.publish(d.model.Rollback(), nil)
}

// fnv1aTuple hashes the 13-byte five-tuple encoding with FNV-1a, inline so
// the hot path does not allocate a hash.Hash. FNV's low-order bits avalanche
// poorly on near-sequential tuples, and both register indexing (key % size)
// and shard selection (key % shards) live in the low bits, so a murmur3
// finaliser mixes the result.
func fnv1aTuple(b *[13]byte) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for _, c := range b {
		h ^= uint32(c)
		h *= prime32
	}
	h ^= h >> 16
	h *= 0x85ebca6b
	h ^= h >> 13
	h *= 0xc2b2ae35
	h ^= h >> 16
	return h
}

// FlowKey hashes a five-tuple into the register index space. It is the
// definition of the flow hash, for callers that hold a tuple rather than a
// frame; the packet path hashes the frame's bytes with ShardHash, which
// agrees with it on every frame that reaches the feature registers.
func (d *Device) FlowKey(srcIP, dstIP uint32, sport, dport uint16, proto uint8) uint32 {
	var b [13]byte
	b[0] = byte(srcIP >> 24)
	b[1] = byte(srcIP >> 16)
	b[2] = byte(srcIP >> 8)
	b[3] = byte(srcIP)
	b[4] = byte(dstIP >> 24)
	b[5] = byte(dstIP >> 16)
	b[6] = byte(dstIP >> 8)
	b[7] = byte(dstIP)
	b[8] = byte(sport >> 8)
	b[9] = byte(sport)
	b[10] = byte(dport >> 8)
	b[11] = byte(dport)
	b[12] = proto
	return fnv1aTuple(&b)
}

// ShardHash hashes a raw packet's five-tuple without running the full
// parser, so a pipeline of several shards can pick the owning shard before
// any per-shard state is touched. For standard Ethernet+IPv4 packets it
// equals the device's FlowKey; anything else (non-IP, truncated) returns 0
// and may be placed on any shard, since such packets carry no per-flow
// register state. It is the one flow hash of the packet path, computed at most
// once per packet: a pipeline of several shards hashes every frame to route
// it and hands the value to the shard (Routed.Key); a device given no key —
// driven directly, or the shard of a 1-shard pipeline, which has nothing to
// route — computes it only for the packets the preprocessing MAT sends on to
// the registers.
//
// hotpath: zero-alloc
func ShardHash(data []byte) uint32 {
	// Ethernet(14) + IPv4 header (fixed 20, matching the standard parser).
	if len(data) < 34 || data[12] != 0x08 || data[13] != 0x00 {
		return 0
	}
	var b [13]byte
	copy(b[0:8], data[26:34]) // src, dst IPs as wired (big-endian)
	proto := data[23]
	if (proto == 6 || proto == 17) && len(data) >= 38 {
		copy(b[8:12], data[34:38]) // sport, dport
	}
	b[12] = proto
	return fnv1aTuple(&b)
}

// accumulate installs a flow's feature vector into the stateful registers
// (the role of INT and cross-packet accumulation in §3.1; in the testbed the
// features arrive with the expanded trace, §5.2.2): register slot slot of
// every feature array (all FlowTableSize long, so one reduction serves them
// all). A vector of the wrong width is refused with the bare sentinel, which
// costs nothing to return; run describes the batch's first one
// (featureWidthError).
func (d *Device) accumulate(slot uint32, features []float32) error {
	if len(features) != d.cfg.NumFeatures {
		return ErrBadFeatureWidth
	}
	inQ := d.model.InputQuantizer()
	for i, f := range features {
		d.featureRegs[i].WriteSlot(slot, int32(inQ.Quantize(f)))
	}
	d.flowValid.WriteSlot(slot, 1)
	return nil
}

// PacketIn is one packet presented to the device.
type PacketIn struct {
	// Data is the raw packet.
	Data []byte
	// Features optionally carries INT/telemetry features to accumulate
	// before inference (nil = use whatever the registers hold).
	Features []float32
}

// featureWidthError describes a packet whose feature vector is got lanes wide.
func (d *Device) featureWidthError(got int) error {
	return fmt.Errorf("%w: got %d features, want %d", ErrBadFeatureWidth, got, d.cfg.NumFeatures)
}

// Process runs one packet through the full pipeline — the batch loop with a
// batch of one. Where a batch drops a malformed frame and moves on, Process
// also returns the packet's own error (parse failure or wrong feature width)
// next to its Drop decision. It performs no heap allocation in the steady
// state; batch traffic should still use ProcessBatch (or the pipeline
// package), which amortises the tape sweep and the tally flush.
//
// hotpath: zero-alloc
func (d *Device) Process(in PacketIn) (Decision, error) { return d.process1(in, nil) }

// ProcessKeyed is Process on a pipeline's shard: the device serves the packet
// from m, in m's arena for shard. routed is nil, or, when the caller hashed
// the frame to route it, the one entry {Index: 0, Key: ShardHash(in.Data)},
// whose key the device reuses instead of hashing the five-tuple a second
// time, as ProcessIndexed does for a batch.
//
// hotpath: zero-alloc
func (d *Device) ProcessKeyed(m *Model, shard int, in PacketIn, routed []Routed) (Decision, error) {
	d.serve(m, shard)
	return d.process1(in, routed)
}

// process1 is the batch loop over one packet, returning its own error.
//
// hotpath: zero-alloc
func (d *Device) process1(in PacketIn, routed []Routed) (Decision, error) {
	ins, out := [1]PacketIn{in}, [1]Decision{}
	callerErr, parseErr := d.run(ins[:], out[:], routed)
	if callerErr != nil {
		return out[0], callerErr
	}
	return out[0], parseErr
}

// admit runs the front half of the pipeline — parse, preprocessing MAT,
// feature accumulation — and reports whether the packet takes the ML path
// and, if so, its flow's register slot. Only a packet the MAT sends towards
// the registers needs its flow hash: key when the caller carried one (keyed),
// otherwise ShardHash of the frame, reduced to a slot once for every register
// array. On an error dec is left for the caller to fill.
//
// hotpath: zero-alloc
func (d *Device) admit(in PacketIn, key uint32, keyed bool, dec *Decision) (slot uint32, ml bool, err error) {
	d.tally.processed++
	phv := d.phv
	phv.Reset()
	if _, err := d.parser.Parse(in.Data, phv); err != nil {
		d.tally.parseErrors++
		return 0, false, err
	}

	// Preprocessing MAT: bypass decision.
	d.preMAT.Lookup(phv)
	*dec = Decision{Bypassed: true, LatencyNs: BaseSwitchLatencyNs}
	if phv.Get(d.bypassID) != 0 {
		return 0, false, nil
	}

	if !keyed {
		key = ShardHash(in.Data)
	}
	slot = d.flowValid.Slot(key)
	if in.Features != nil {
		if err := d.accumulate(slot, in.Features); err != nil {
			d.tally.parseErrors++ // the INT header carrying them is malformed
			return 0, false, err
		}
	}
	if d.model == nil || d.flowValid.ReadSlot(slot) == 0 {
		return 0, false, nil // nothing to infer from yet
	}
	dec.Bypassed = false
	return slot, true, nil
}

// stageCodes reads the flow's accumulated feature codes into the model's
// input buffer.
//
// hotpath: zero-alloc
func (d *Device) stageCodes(codes []int32, slot uint32) {
	for i := range codes {
		codes[i] = d.featureRegs[i].ReadSlot(slot)
	}
}

// finishML charges the inference to the service model and runs the verdict
// MAT on the score. The postprocessing MAT keys on meta.score alone, so it
// is safe to run after other packets have cycled through the shared PHV.
//
// hotpath: zero-alloc
func (d *Device) finishML(dec *Decision, score int32) {
	dec.MLScore = score
	d.tally.mlInferences++ // II cycles of occupancy, charged at flush
	// Threshold shift happens in the MAT action domain: score-threshold.
	d.phv.Set(d.scoreID, score-d.cfg.Threshold)
	dec.LatencyNs += d.model.latNs
	d.applyVerdict(dec)
}

// finishBypass charges a bypass packet's arbiter cycle and forwards it
// through the verdict MAT.
//
// hotpath: zero-alloc
func (d *Device) finishBypass(dec *Decision) {
	d.tally.bypassed++ // one arbiter cycle of occupancy, charged at flush
	// Bypass packets skip MapReduce entirely: no added latency (§4).
	d.phv.Set(d.scoreID, -1) // negative -> forward
	d.applyVerdict(dec)
}

// applyVerdict runs the postprocessing MAT on meta.score and counts the
// outcome.
func (d *Device) applyVerdict(dec *Decision) {
	d.post.Lookup(d.phv)
	dec.Verdict = Verdict(d.phv.Get(d.verdictID))
	switch dec.Verdict {
	case Forward:
		d.tally.forwarded++
	case Flag:
		d.tally.flagged++
	case Drop:
		d.tally.dropped++
	}
}

// ProcessBatch runs every packet of ins through the pipeline, writing
// out[i] for ins[i]. Malformed packets — parse failures, the data-plane
// reality of line-rate traffic — are dropped (Verdict Drop, counted in
// Stats.ParseErrors) rather than aborting the batch. A feature vector of
// the wrong width is dropped and counted the same way, and is also a caller
// bug: the whole batch is still processed (so out is fully written,
// matching the pipeline's behaviour), then the first such error is returned
// as ErrBadFeatureWidth. The steady-state path performs no heap allocation.
// out must be at least as long as ins.
//
// hotpath: zero-alloc
func (d *Device) ProcessBatch(ins []PacketIn, out []Decision) error {
	if len(out) < len(ins) {
		//hotpathcheck:allow — caller-bug error path, taken at most once per batch, never per packet
		return fmt.Errorf("%w: out has %d slots for %d packets", ErrBadConfig, len(out), len(ins))
	}
	callerErr, _ := d.run(ins, out, nil)
	return callerErr
}

// Routed names one packet of a shared batch — ins[Index] — together with the
// flow hash (ShardHash of its bytes) the dispatcher computed to route it, so
// the device that receives it does not hash the five-tuple a second time. Only
// a pipeline of several shards routes; one shard takes its batch unrouted.
type Routed struct {
	Index int
	Key   uint32
}

// ProcessIndexed is the shape a pipeline's shards use: it processes the
// packets ins[r.Index] for each r in routed, writing out[r.Index], where
// routed is the shard's partition of a shared batch; or, when routed is nil (a
// 1-shard pipeline, which has nothing to partition), every packet of ins,
// hashing only those that reach the registers. m is the model the pipeline had
// published when it dispatched the batch (nil: none yet), served in m's arena
// for shard. Error semantics match ProcessBatch.
//
// hotpath: zero-alloc
func (d *Device) ProcessIndexed(m *Model, shard int, ins []PacketIn, out []Decision, routed []Routed) error {
	d.serve(m, shard)
	callerErr, _ := d.run(ins, out, routed)
	return callerErr
}

// run is the device's one packet loop; every entry point is a view of it.
// Each packet goes through the front half (admit); ML packets are staged into
// the tape's batch arena and swept up to MaxBatch at a time, amortising tape
// dispatch the way the hardware amortises pipeline fill. Staging cannot
// reorder observable state: inference neither reads nor writes flow
// registers. A packet that errors is written as a Drop; the first wrong
// feature width (a caller bug) and the first parse failure (traffic) are
// returned separately, because a batch reports only the former.
//
// hotpath: zero-alloc
func (d *Device) run(ins []PacketIn, out []Decision, routed []Routed) (callerErr, parseErr error) {
	n := len(ins)
	if routed != nil {
		n = len(routed)
	}
	staged := d.mlIdx[:0]
	for k := 0; k < n; k++ {
		i, key := k, uint32(0)
		if routed != nil {
			i, key = routed[k].Index, routed[k].Key
		}
		slot, ml, err := d.admit(ins[i], key, routed != nil, &out[i])
		switch {
		case err != nil:
			out[i] = Decision{Verdict: Drop}
			if err == ErrBadFeatureWidth {
				if callerErr == nil {
					callerErr = d.featureWidthError(len(ins[i].Features))
				}
			} else if parseErr == nil {
				parseErr = err
			}
		case !ml:
			d.finishBypass(&out[i])
		default:
			d.stageCodes(d.prog.InAt(0, len(staged)), slot)
			//hotpathcheck:allow — append stays within d.mlIdx's preallocated MaxBatch capacity (flushed when full)
			staged = append(staged, i)
			if len(staged) == d.prog.MaxBatch() {
				d.flushML(staged, out)
				staged = staged[:0]
			}
		}
	}
	if len(staged) > 0 {
		d.flushML(staged, out)
	}
	d.flushTally()
	return callerErr, parseErr
}

// flushML sweeps the staged ML packets through the compiled tape and
// finalises each one's decision from its batch slot.
//
// hotpath: zero-alloc
func (d *Device) flushML(staged []int, out []Decision) {
	before := d.prog.Fallbacks()
	d.prog.RunBatch(len(staged))
	d.tally.sweeps++
	d.tally.fallbacks += d.prog.Fallbacks() - before
	for j, i := range staged {
		d.finishML(&out[i], d.prog.OutAt(0, j)[0])
	}
}

// Stats renders the device counters from their registry instruments: a
// synchronised snapshot, safe to call concurrently with a goroutine driving
// the packet path. Each field is an atomic read; cross-field consistency is
// per Process* call (the tally flushes at call boundaries), so a snapshot
// taken mid-batch lags by at most that batch.
func (d *Device) Stats() Stats {
	return Stats{
		Processed:    int(d.m.processed.Value()),
		MLInferences: int(d.m.mlInferences.Value()),
		Bypassed:     int(d.m.bypassed.Value()),
		Forwarded:    int(d.m.forwarded.Value()),
		Flagged:      int(d.m.flagged.Value()),
		Dropped:      int(d.m.dropped.Value()),
		ParseErrors:  int(d.m.parseErrors.Value()),
		ModelBusyNs:  float64(d.m.modelBusyNs.Value()),
	}
}

// ModelLatencyNs returns the compiled model's pipeline latency (0 before
// LoadModel).
func (d *Device) ModelLatencyNs() float64 { return d.model.LatencyNs() }
