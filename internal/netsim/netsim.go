// Package netsim is the end-to-end discrete-event simulation behind Table 8
// (§5.2): traffic at a fixed rate flows through a switch while the anomaly
// detector runs either in the control plane (the baseline: sampled
// telemetry -> XDP -> database -> batched ML inference -> flow-rule
// installation) or in the Taurus data plane (per-packet inference).
//
// The Taurus side is not shortcut: packets are serialised, batched and
// pushed through a real sharded pipeline.Pipeline — parser, MATs, stateful
// registers and the lowered MapReduce program — exactly the traffic plane
// the public API serves.
//
// The baseline's stages are batching servers: an idle stage grabs its whole
// queue as one batch and serves it in Setup + PerItem*len time. Under load
// the service time of a large batch lets more items accumulate — the
// batch-growth dynamic that Table 8 shows exploding at high sampling rates.
// Rule installation delay means the baseline marks a flow's packets only
// after its first sampled packet has traversed the whole control loop; most
// flows are over by then, which is why Taurus detects two orders of
// magnitude more events.
package netsim

import (
	"container/heap"
	"fmt"
	"math/rand"

	"taurus/internal/compiler"
	"taurus/internal/core"
	"taurus/internal/dataset"
	"taurus/internal/lower"
	"taurus/internal/ml"
	"taurus/internal/pipeline"
	"taurus/internal/pisa"
)

// Table 8's fixed workload: only the sampling rate and the packet count vary
// from run to run. The offered trace is dataset.DefaultTraceConfig (5 Gb/s ≈
// 800 kpps in the paper).
const (
	// threshold is the model's output-code cut for "anomalous".
	threshold = 64
	seed      = 1
	// shards is the Taurus pipeline's shard count.
	shards = 4
	// taurusBatch is how many packets the traffic plane batches per
	// ProcessBatch call.
	taurusBatch = 1024
)

// Result is one Table 8 row.
type Result struct {
	SamplingRate float64
	// Batch sizes: at the XDP stage and at the remaining (ML) stage.
	XDPBatch, RemBatch float64
	// Per-stage mean latencies (ms) and the end-to-end control-loop mean.
	XDPMs, DBMs, MLMs, InstallMs, TotalMs float64
	// Detection quality over all simulated packets.
	BaselineDetectedPct, TaurusDetectedPct float64
	BaselineF1, TaurusF1                   float64
	RulesInstalled                         int
	PacketsSimulated                       int
	SampledPackets                         int
}

// item is one telemetry packet travelling the control loop.
type item struct {
	flow      *dataset.Flow
	enqueueMs float64 // arrival at current stage
}

// stage is a batching server: a batch of n items takes setupMs + perItemMs*n.
type stage struct {
	setupMs, perItemMs float64
	queue              []item
	busyUntil          float64
	inFlight           []item
	// accounting
	sumBatch, sumLatency float64
	batches, served      int
}

// event is a stage-completion at time ms.
type event struct {
	atMs  float64
	stage int
}

type eventHeap []event

func (h eventHeap) Len() int           { return len(h) }
func (h eventHeap) Less(i, j int) bool { return h[i].atMs < h[j].atMs }
func (h eventHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)        { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// Run simulates packets packets of the Table 8 workload against the trained,
// quantised anomaly detector model, sampling each packet into the control
// loop with probability sampling (10^-5..10^-2 in the paper).
func Run(model *ml.QuantizedDNN, sampling float64, packets int) (Result, error) {
	if model == nil {
		return Result{}, fmt.Errorf("netsim: model is required")
	}
	if packets <= 0 {
		return Result{}, fmt.Errorf("netsim: packets must be positive, got %d", packets)
	}
	if !(sampling > 0 && sampling <= 1) { // written so that NaN fails too
		return Result{}, fmt.Errorf("netsim: sampling rate must be in (0,1], got %v", sampling)
	}
	rng := rand.New(rand.NewSource(seed))
	gen, err := dataset.NewTraceGenerator(dataset.DefaultTraceConfig(), rng)
	if err != nil {
		return Result{}, err
	}

	// The Taurus data plane: the same quantised model, lowered to MapReduce
	// and installed across a sharded pipeline. Each packet is serialised and
	// pushed through parser, MATs and the MapReduce block in batches.
	g, err := lower.DNN(model, "netsim-dnn")
	if err != nil {
		return Result{}, err
	}
	devCfg := core.DefaultConfig(g.Node(g.Inputs[0]).Width)
	devCfg.Threshold = threshold
	pl, err := pipeline.New(pipeline.Config{Shards: shards, Device: devCfg})
	if err != nil {
		return Result{}, err
	}
	defer pl.Close()
	if err := pl.LoadModel(g, model.InputQ, compiler.Options{}); err != nil {
		return Result{}, err
	}

	// The control loop (§5.2.1's XDP / InfluxDB / Keras / ONOS+TCAM),
	// calibrated so the batch-size and latency columns land in Table 8's
	// regime: per-invocation overheads of a few ms and per-item costs that
	// saturate the loop near the 10^-2 sampling point.
	stages := []*stage{
		{setupMs: 1.5, perItemMs: 0.11},  // XDP poll
		{setupMs: 10.0, perItemMs: 0.12}, // DB commit
		{setupMs: 16.0, perItemMs: 0.06}, // TensorFlow dispatch
		{setupMs: 12.0, perItemMs: 0.08}, // ONOS rule push + 3 ms TCAM write
	}
	const (
		stXDP = iota
		stDB
		stML
		stInstall
	)

	var events eventHeap

	// Per-flow cached verdict of the quantised model for the baseline's
	// batched control-plane inference (flows have static feature vectors,
	// so the software inference is flow-constant). The Taurus side does NOT
	// use this cache — it runs the real data-plane pipeline per packet.
	verdicts := map[*dataset.Flow]bool{}
	verdict := func(f *dataset.Flow) bool {
		if v, ok := verdicts[f]; ok {
			return v
		}
		codes := model.InputQ.QuantizeSlice(f.Record.Features)
		out := model.ForwardCodes(codes)
		v := int32(out[0]) >= threshold
		verdicts[f] = v
		return v
	}

	// Rules installed by the baseline: srcIP -> install time (ms).
	// Installation dedupes per source IP; every sampled packet still
	// traverses XDP/DB/ML, which is what saturates the loop at high
	// sampling rates (Table 8's batch explosion).
	rules := map[uint32]float64{}

	startBatch := func(si int, now float64) {
		st := stages[si]
		if len(st.queue) == 0 || st.busyUntil > now {
			return
		}
		batch := st.queue
		st.queue = nil
		service := st.setupMs + st.perItemMs*float64(len(batch))
		st.busyUntil = now + service
		st.inFlight = batch
		st.sumBatch += float64(len(batch))
		st.batches++
		heap.Push(&events, event{atMs: st.busyUntil, stage: si})
	}

	deliver := func(si int, it item, now float64) {
		it.enqueueMs = now
		stages[si].queue = append(stages[si].queue, it)
		startBatch(si, now)
	}

	drainEventsUntil := func(tMs float64) {
		for len(events) > 0 && events[0].atMs <= tMs {
			e := heap.Pop(&events).(event)
			st := stages[e.stage]
			batch := st.inFlight
			st.inFlight = nil
			for _, it := range batch {
				st.sumLatency += e.atMs - it.enqueueMs
				st.served++
				switch e.stage {
				case stXDP:
					deliver(stDB, it, e.atMs)
				case stDB:
					deliver(stML, it, e.atMs)
				case stML:
					// Batched control-plane inference: same quantised model.
					if verdict(it.flow) {
						if _, dup := rules[it.flow.Tuple.SrcIP]; !dup {
							deliver(stInstall, it, e.atMs)
						}
					}
				case stInstall:
					if _, dup := rules[it.flow.Tuple.SrcIP]; !dup {
						rules[it.flow.Tuple.SrcIP] = e.atMs
					}
				}
			}
			startBatch(e.stage, e.atMs)
		}
	}

	var baseConf, taurusConf ml.BinaryConfusion
	sampled := 0

	// Taurus batching: packets accumulate into reusable buffers and flush
	// through the pipeline; confusion is scored when the batch returns.
	wire := map[*dataset.Flow][]byte{} // per-flow serialised packet
	ins := make([]core.PacketIn, 0, taurusBatch)
	truths := make([]bool, 0, taurusBatch)
	out := make([]core.Decision, taurusBatch)
	flushTaurus := func() error {
		if len(ins) == 0 {
			return nil
		}
		if _, err := pl.ProcessBatch(ins, out[:len(ins)]); err != nil {
			return err
		}
		for i := range ins {
			taurusConf.Observe(out[i].Verdict != core.Forward, truths[i])
		}
		ins = ins[:0]
		truths = truths[:0]
		return nil
	}

	for i := 0; i < packets; i++ {
		pkt := gen.Next()
		nowMs := pkt.Time * 1000
		drainEventsUntil(nowMs)

		truth := pkt.Flow.Record.Anomalous()

		// Baseline marking: rule present and installed before this packet.
		instT, has := rules[pkt.Flow.Tuple.SrcIP]
		baseConf.Observe(has && instT <= nowMs, truth)

		// Taurus marking: enqueue for per-packet data-plane inference.
		data, ok := wire[pkt.Flow]
		if !ok {
			tu := pkt.Flow.Tuple
			data = pisa.BuildTCPPacket(tu.SrcIP, tu.DstIP, tu.SrcPort, tu.DstPort, 0x10, 64)
			wire[pkt.Flow] = data
		}
		ins = append(ins, core.PacketIn{Data: data, Features: pkt.Flow.Record.Features})
		truths = append(truths, truth)
		if len(ins) == taurusBatch {
			if err := flushTaurus(); err != nil {
				return Result{}, err
			}
		}

		// Telemetry sampling into the control loop.
		if rng.Float64() < sampling {
			sampled++
			deliver(stXDP, item{flow: pkt.Flow}, nowMs)
		}
	}
	if err := flushTaurus(); err != nil {
		return Result{}, err
	}
	// Drain the loop so stage stats cover everything in flight.
	drainEventsUntil(1 << 40)

	mean := func(sum float64, n int) float64 {
		if n == 0 {
			return 0
		}
		return sum / float64(n)
	}
	xdp, db, mlS, inst := stages[stXDP], stages[stDB], stages[stML], stages[stInstall]
	res := Result{
		SamplingRate:        sampling,
		XDPBatch:            mean(xdp.sumBatch, xdp.batches),
		RemBatch:            mean(mlS.sumBatch, mlS.batches),
		XDPMs:               mean(xdp.sumLatency, xdp.served),
		DBMs:                mean(db.sumLatency, db.served),
		MLMs:                mean(mlS.sumLatency, mlS.served),
		InstallMs:           mean(inst.sumLatency, inst.served),
		BaselineDetectedPct: baseConf.Recall() * 100,
		TaurusDetectedPct:   taurusConf.Recall() * 100,
		BaselineF1:          baseConf.F1(),
		TaurusF1:            taurusConf.F1(),
		RulesInstalled:      len(rules),
		PacketsSimulated:    packets,
		SampledPackets:      sampled,
	}
	res.TotalMs = res.XDPMs + res.DBMs + res.MLMs + res.InstallMs
	return res, nil
}
