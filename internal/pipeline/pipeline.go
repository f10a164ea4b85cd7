// Package pipeline is the traffic plane of the Taurus reproduction: a
// sharded, batched front end over N core.Device instances, one per shard,
// the way a line-rate deployment would replicate the MapReduce block per
// pipe (§4 pairs one block with each PISA pipeline).
//
// Packets are routed to shards by a hash of their five-tuple, so the
// per-flow feature registers a flow touches live entirely inside one shard
// and never need cross-shard coherence. Batches fan out across persistent
// worker goroutines, the caller serving one shard's share itself; per-shard
// statistics merge on demand. The pipeline, not the shard, owns the model: one
// immutable core.Model — tape, weight image, an arena per shard — published
// through one pointer, which an install or an out-of-band weight update
// (§3.3.1) replaces without stopping traffic and a batch loads once, so every
// packet of a batch is served by the same model on every shard.
//
// The steady-state batch path performs no heap allocation: partition index
// buffers, devices, PHVs and MapReduce intermediates are all preallocated.
package pipeline

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"taurus/internal/compiler"
	"taurus/internal/core"
	"taurus/internal/fixed"
	mr "taurus/internal/mapreduce"
	"taurus/internal/obs"
	"taurus/internal/pisa"
)

// DefaultShards is used when Config.Shards is zero.
const DefaultShards = 4

// Config parameterises a pipeline.
type Config struct {
	// Shards is the number of device shards (default DefaultShards).
	// Modelled throughput scales with shards: each shard's MapReduce block
	// accepts a packet every II cycles, so N shards sustain N packets per
	// II.
	Shards int
	// Device is the per-shard device configuration. Its Obs registry (the
	// process default when nil) also receives the pipeline's own batch
	// instruments; when Device.ObsLabels is nil each shard's device is tagged
	// {pipe=N, shard=i}, so per-shard service-time histograms stay separable
	// on a scrape.
	Device core.Config
}

// BatchStats summarises one ProcessBatch call.
type BatchStats struct {
	// Packets is the number of packets in the batch.
	Packets int
	// ModelNs is the modelled time for the hardware to drain the batch:
	// the busiest shard's MapReduce occupancy (II ns per ML packet, one
	// cycle per bypass, shards running in parallel).
	ModelNs float64
}

// ModelPacketsPerSec converts the modelled drain time to a throughput.
func (b BatchStats) ModelPacketsPerSec() float64 {
	if b.ModelNs <= 0 {
		return 0
	}
	return float64(b.Packets) / b.ModelNs * 1e9
}

type shard struct {
	mu     sync.Mutex
	dev    *core.Device
	index  int           // which of a model's arenas is this shard's
	routed []core.Routed // this shard's packets of the current batch, each with the hash it was routed by (nil on a 1-shard pipeline)
	busyNs float64       // modelled occupancy of the last batch
	err    error         // caller error (bad feature width) from the last batch
}

type batchReq struct {
	model *core.Model // what the pipeline had published when the batch was dispatched
	ins   []core.PacketIn
	out   []core.Decision
}

// Pipeline fans packet batches out across device shards. All methods are
// safe for concurrent use; batches are dispatched one at a time (each
// fanned out across every shard), and installs and weight updates interleave
// with traffic at batch granularity.
type Pipeline struct {
	cfg      core.Config // the shards' device configuration
	shards   []*shard
	shardMod pisa.FastMod // reduces a flow hash modulo len(shards)
	reqs     []chan batchReq

	// model is the published model (nil before the first install); publishMu
	// serialises the installs and pushes that replace it.
	model     atomic.Pointer[core.Model]
	publishMu sync.Mutex

	// Registry instruments for the batch plane (one label set per pipeline).
	batches      *obs.Counter
	batchPackets *obs.Histogram
	batchModelNs *obs.Histogram

	dispatchMu sync.Mutex // serialises batch partitioning + fan-out
	wg         sync.WaitGroup
	closed     atomic.Bool
}

// pipeOrdinal numbers pipelines built without explicit ObsLabels.
var pipeOrdinal atomic.Int64

// New builds a pipeline of cfg.Shards devices and starts its workers.
func New(cfg Config) (*Pipeline, error) {
	if cfg.Shards == 0 {
		cfg.Shards = DefaultShards
	}
	if cfg.Shards < 0 {
		return nil, fmt.Errorf("%w: Shards must be positive, got %d", core.ErrBadConfig, cfg.Shards)
	}
	reg := cfg.Device.Obs
	if reg == nil {
		reg = obs.Default()
		cfg.Device.Obs = reg
	}
	pipeLabels := cfg.Device.ObsLabels
	autoLabels := pipeLabels == nil
	if autoLabels {
		pipeLabels = []obs.Label{obs.L("pipe", strconv.FormatInt(pipeOrdinal.Add(1)-1, 10))}
	}
	p := &Pipeline{
		shards:       make([]*shard, cfg.Shards),
		shardMod:     pisa.NewFastMod(uint32(cfg.Shards)),
		reqs:         make([]chan batchReq, cfg.Shards),
		batches:      reg.Counter("taurus.pipeline.batches", pipeLabels...),
		batchPackets: reg.Histogram("taurus.pipeline.batch_packets", pipeLabels...),
		batchModelNs: reg.Histogram("taurus.pipeline.batch_model_ns", pipeLabels...),
	}
	// Construct every device before starting any worker, so a constructor
	// failure for a later shard cannot leak the goroutines of earlier ones.
	for i := range p.shards {
		devCfg := cfg.Device
		if autoLabels {
			devCfg.ObsLabels = append(pipeLabels[:len(pipeLabels):len(pipeLabels)],
				obs.L("shard", strconv.Itoa(i)))
		}
		dev, err := core.NewDevice(devCfg)
		if err != nil {
			return nil, err
		}
		p.shards[i] = &shard{dev: dev, index: i}
		p.reqs[i] = make(chan batchReq, 1)
	}
	// The devices resolved the configuration's defaults (grid, tracer); every
	// model the pipeline builds is built against the same resolved values.
	p.cfg = p.shards[0].dev.Config()
	for i := range p.shards {
		go p.worker(p.shards[i], p.reqs[i])
	}
	return p, nil
}

func (p *Pipeline) worker(s *shard, reqs <-chan batchReq) {
	for r := range reqs {
		s.serve(r)
		p.wg.Done()
	}
}

// serve runs the shard's partition of a batch through its device.
func (s *shard) serve(r batchReq) {
	s.mu.Lock()
	s.err = nil
	before := s.dev.Stats().ModelBusyNs
	// ProcessIndexed drops malformed packets itself (parse errors count in
	// the shard's stats) and batches ML inferences through the device's
	// compiled program; a bad feature width is a caller bug and surfaces
	// from ProcessBatch.
	if err := s.dev.ProcessIndexed(r.model, s.index, r.ins, r.out, s.routed); err != nil {
		s.err = err
	}
	s.busyNs = s.dev.Stats().ModelBusyNs - before
	s.mu.Unlock()
}

// NumShards returns the shard count.
func (p *Pipeline) NumShards() int { return len(p.shards) }

// shardOf picks the owning shard for a flow hash (core.ShardHash): shard
// key % shards, reduced without a divide.
func (p *Pipeline) shardOf(key uint32) *shard {
	return p.shards[p.shardMod.Mod(key)]
}

// LoadModel compiles the program once — placement, tape, translation
// validation — and publishes it to every shard at once: the hardware analogue
// of flashing one bitstream to N identical blocks. The shards share the code
// and the weight image and own only an arena each; g is copied, not kept.
//
// A refused model (core.Install: the static gate, the compiler, the tape
// verifier) is an error before anything is published, so every shard keeps
// the model it was serving; an accepted one serves from the next batch on,
// never part of one.
func (p *Pipeline) LoadModel(g *mr.Graph, inQ fixed.Quantizer, opts compiler.Options) error {
	p.publishMu.Lock()
	defer p.publishMu.Unlock()
	return p.publish(core.Install(p.cfg, p.model.Load(), g, inQ, opts, len(p.shards)))
}

// publish serves m from the next batch on unless it is nil (a refusal, or
// nothing to roll back). The caller holds publishMu.
func (p *Pipeline) publish(m *core.Model, err error) error {
	if m != nil {
		p.model.Store(m)
	}
	return err
}

// UpdateWeights pushes new weights to every shard without re-placement or
// stopping traffic: one image is copied out of the graph — which is only read
// and may be shared across concurrent updates — and published; batches
// dispatched after that are served from it, batches in flight finish on the
// weights they started with.
//
// A push the static gate refuses (core.Model.WithWeights: the graph must
// verify against the grid the model was installed on and be a weight-only
// update of it) is an error before anything is published, and the previous
// weights keep serving.
func (p *Pipeline) UpdateWeights(newGraph *mr.Graph) error {
	p.publishMu.Lock()
	defer p.publishMu.Unlock()
	return p.publish(p.model.Load().WithWeights(newGraph))
}

// RollbackWeights republishes the weights the last accepted push replaced
// (core.Model.Rollback); with no push to undo it does nothing.
func (p *Pipeline) RollbackWeights() {
	p.publishMu.Lock()
	defer p.publishMu.Unlock()
	p.publish(p.model.Load().Rollback(), nil)
}

// ProcessBatch partitions ins across the shards by flow hash, processes
// every packet, and writes out[i] for ins[i]. Malformed packets are dropped
// (counted in Stats().ParseErrors); a feature vector of the wrong width is
// dropped and counted the same way, and — a caller bug — surfaces as
// ErrBadFeatureWidth after the batch drains.
// The steady-state path performs no heap allocation. out must be at least
// as long as ins.
func (p *Pipeline) ProcessBatch(ins []core.PacketIn, out []core.Decision) (BatchStats, error) {
	if len(out) < len(ins) {
		return BatchStats{}, fmt.Errorf("%w: out has %d slots for %d packets", core.ErrBadConfig, len(out), len(ins))
	}
	p.dispatchMu.Lock()
	defer p.dispatchMu.Unlock()
	if p.closed.Load() {
		return BatchStats{}, fmt.Errorf("%w: pipeline is closed", core.ErrBadConfig)
	}

	// Across shards the partition pass hashes every frame to route it, and the
	// key travels with the index so the shard's device reduces it to a register
	// slot instead of hashing again. One shard has nothing to partition: it
	// takes the whole batch unrouted, and its device hashes only the packets its
	// preprocessing MAT sends on to the registers, as a bare device does.
	if len(p.shards) > 1 {
		for _, s := range p.shards {
			s.routed = s.routed[:0]
		}
		for i := range ins {
			key := core.ShardHash(ins[i].Data)
			s := p.shardOf(key)
			s.routed = append(s.routed, core.Routed{Index: i, Key: key})
		}
	}

	// Every active shard but the last goes to its worker; the last one the
	// caller serves itself instead of idling at the barrier. A batch that
	// lands on one shard (always, on a 1-shard pipeline) is then a plain call.
	// A hand-off costs two scheduler wake-ups, each cheap or not by whether a
	// thread happens to be spinning: at 32 packets a batch that is more than
	// the packets themselves, and it makes one run differ from the next.
	last := -1
	for si, s := range p.shards {
		if p.active(s, ins) {
			last = si
		}
	}
	req := batchReq{model: p.model.Load(), ins: ins, out: out}
	for si := 0; si < last; si++ {
		if p.active(p.shards[si], ins) {
			p.wg.Add(1)
			p.reqs[si] <- req
		}
	}
	if last >= 0 {
		p.shards[last].serve(req)
	}
	p.wg.Wait()

	// Fold every shard before surfacing an error: each shard fully processed
	// its partition regardless of a sibling's caller error, so ModelNs must
	// reflect the whole batch the hardware drained.
	bs := BatchStats{Packets: len(ins)}
	var firstErr error
	for _, s := range p.shards {
		if !p.active(s, ins) {
			continue
		}
		if s.err != nil && firstErr == nil {
			firstErr = s.err
		}
		if s.busyNs > bs.ModelNs {
			bs.ModelNs = s.busyNs
		}
	}
	p.batches.Inc()
	p.batchPackets.Record(float64(bs.Packets))
	p.batchModelNs.Record(bs.ModelNs)
	return bs, firstErr
}

// active reports whether shard s has packets of the batch ins to serve: its
// partition across shards, the whole batch on a 1-shard pipeline.
func (p *Pipeline) active(s *shard, ins []core.PacketIn) bool {
	if len(p.shards) == 1 {
		return len(ins) > 0
	}
	return len(s.routed) > 0
}

// Process runs a single packet through its owning shard — the one-packet
// convenience wrapper around the batch plane. As in ProcessBatch, only a
// pipeline of several shards hashes the frame up front, to route it, and its
// device reuses the key; one shard's device hashes only a register-bound
// packet.
func (p *Pipeline) Process(in core.PacketIn) (core.Decision, error) {
	if p.closed.Load() {
		return core.Decision{}, fmt.Errorf("%w: pipeline is closed", core.ErrBadConfig)
	}
	s, routed := p.shards[0], []core.Routed(nil)
	if len(p.shards) > 1 {
		key := core.ShardHash(in.Data)
		s, routed = p.shardOf(key), []core.Routed{{Key: key}}
	}
	s.mu.Lock()
	dec, err := s.dev.ProcessKeyed(p.model.Load(), s.index, in, routed)
	s.mu.Unlock()
	return dec, err
}

// Stats merges the per-shard device counters.
func (p *Pipeline) Stats() core.Stats {
	var total core.Stats
	for _, s := range p.shards {
		s.mu.Lock()
		st := s.dev.Stats()
		s.mu.Unlock()
		total.Add(st)
	}
	return total
}

// ShardStats returns each shard's counters (index = shard).
func (p *Pipeline) ShardStats() []core.Stats {
	out := make([]core.Stats, len(p.shards))
	for i, s := range p.shards {
		s.mu.Lock()
		out[i] = s.dev.Stats()
		s.mu.Unlock()
	}
	return out
}

// InputQuantizer returns the feature quantiser of the published model (the
// zero Quantizer before LoadModel). The control plane pins retrained weights
// to this input domain.
func (p *Pipeline) InputQuantizer() fixed.Quantizer { return p.model.Load().InputQuantizer() }

// ModelLatencyNs returns the per-packet model latency (0 before LoadModel).
func (p *Pipeline) ModelLatencyNs() float64 { return p.model.Load().LatencyNs() }

// ServiceModel is the per-shard service-time model of the deployed design —
// the hook the continuous-time queueing simulator (internal/netqueue) runs
// on. It is the same occupancy model BatchStats.ModelNs folds per batch,
// exposed per packet: an ML packet occupies its shard's MapReduce block for
// II cycles (II ns at 1 GHz), a bypass packet for one cycle, and every
// served packet additionally crosses the block's fill latency on its way
// out.
type ServiceModel struct {
	// Shards is the pipeline's shard count; arrivals are flow-hashed across
	// them exactly as ProcessBatch partitions batches.
	Shards int
	// MLServiceNs is the shard occupancy of one ML packet (II ns).
	MLServiceNs float64
	// BypassServiceNs is the shard occupancy of one bypass packet (1 cycle).
	BypassServiceNs float64
	// LatencyNs is the model's pipeline fill latency, added to every served
	// packet's transit time (it overlaps with the next packet's service, so
	// it never consumes shard capacity).
	LatencyNs float64
}

// NominalPPS returns the model's aggregate saturation throughput: every
// shard accepts one ML packet per II cycles, shards in parallel.
func (m ServiceModel) NominalPPS() float64 {
	if m.MLServiceNs <= 0 {
		return 0
	}
	return float64(m.Shards) * 1e9 / m.MLServiceNs
}

// ServiceModel returns the deployed model's per-shard service times (zero
// MLServiceNs before LoadModel). MLServiceNs is the schedule-measured II of
// the compiled tape (core.Model.ScheduledII) — the II the list scheduler
// packed under the grid's issue capacity — so the queueing simulator and
// MaxSustainablePPS are derived from the schedule the device actually executes.
func (p *Pipeline) ServiceModel() ServiceModel {
	m := p.model.Load()
	return ServiceModel{
		Shards:          len(p.shards),
		MLServiceNs:     float64(m.ScheduledII()),
		BypassServiceNs: 1,
		LatencyNs:       m.LatencyNs(),
	}
}

// Close stops the worker goroutines. Further traffic (batch or single
// packet) errors; per-shard state remains readable through Stats.
func (p *Pipeline) Close() {
	p.dispatchMu.Lock()
	defer p.dispatchMu.Unlock()
	if p.closed.Swap(true) {
		return
	}
	for _, ch := range p.reqs {
		close(ch)
	}
}
