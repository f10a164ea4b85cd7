package experiments

import (
	"container/heap"
	"fmt"
	"math/rand"

	"taurus/internal/compiler"
	"taurus/internal/controlplane"
	"taurus/internal/core"
	"taurus/internal/dataset"
	"taurus/internal/lower"
	"taurus/internal/ml"
	"taurus/internal/model"
	"taurus/internal/pipeline"
	"taurus/internal/pisa"
)

// Table8 runs the end-to-end control-plane vs Taurus comparison at the four
// sampling rates of the paper.
func Table8(m *Models, packets int) ([]Table8Row, string, error) {
	if packets <= 0 {
		packets = 400_000
	}
	var rows []Table8Row
	var cells [][]string
	for _, p := range []float64{1e-5, 1e-4, 1e-3, 1e-2} {
		res, err := runTable8(m.DNN, p, packets)
		if err != nil {
			return nil, "", err
		}
		rows = append(rows, res)
		cells = append(cells, []string{
			fmt.Sprintf("%.0e", p),
			fmt.Sprintf("%.0f", res.XDPBatch), fmt.Sprintf("%.0f", res.RemBatch),
			fmt.Sprintf("%.0f", res.XDPMs), fmt.Sprintf("%.0f", res.DBMs),
			fmt.Sprintf("%.0f", res.MLMs), fmt.Sprintf("%.0f", res.InstallMs),
			fmt.Sprintf("%.0f", res.TotalMs),
			fmt.Sprintf("%.3f", res.BaselineDetectedPct), fmt.Sprintf("%.1f", res.TaurusDetectedPct),
			fmt.Sprintf("%.3f", res.BaselineF1), fmt.Sprintf("%.1f", res.TaurusF1),
		})
	}
	return rows, table("Table 8: baseline control-plane ML vs Taurus",
		[]string{"Sampling", "XDP batch", "Rem batch", "XDP ms", "DB ms", "ML ms",
			"Install ms", "All ms", "Base det%", "Taurus det%", "Base F1", "Taurus F1"}, cells), nil
}

// Table 8's fixed workload: only the sampling rate and the packet count vary
// from run to run. The offered trace is dataset.DefaultTraceConfig (5 Gb/s ≈
// 800 kpps in the paper).
const (
	// table8Threshold is the model's output-code cut for "anomalous".
	table8Threshold = 64
	table8Seed      = 1
	// table8Shards is the Taurus pipeline's shard count.
	table8Shards = 4
	// table8Batch is how many packets the traffic plane batches per
	// ProcessBatch call.
	table8Batch = 1024
)

// Table8Row is one Table 8 row.
type Table8Row struct {
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

// loopItem is one telemetry packet travelling the control loop.
type loopItem struct {
	flow      *dataset.Flow
	enqueueMs float64 // arrival at current stage
}

// loopStage is a batching server: a batch of n items takes setupMs +
// perItemMs*n.
type loopStage struct {
	setupMs, perItemMs float64
	queue              []loopItem
	busyUntil          float64
	inFlight           []loopItem
	// accounting
	sumBatch, sumLatency float64
	batches, served      int
}

// loopEvent is a stage completion at time ms.
type loopEvent struct {
	atMs  float64
	stage int
}

type loopEventHeap []loopEvent

func (h loopEventHeap) Len() int           { return len(h) }
func (h loopEventHeap) Less(i, j int) bool { return h[i].atMs < h[j].atMs }
func (h loopEventHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *loopEventHeap) Push(x any)        { *h = append(*h, x.(loopEvent)) }
func (h *loopEventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// runTable8 simulates packets packets of the Table 8 workload against the
// trained, quantised anomaly detector q, sampling each packet into the
// control loop with probability sampling (10^-5..10^-2 in the paper).
//
// It is a discrete-event simulation (§5.2): traffic at a fixed rate flows
// through a switch while the detector runs either in the control plane
// (the baseline: sampled telemetry -> XDP -> database -> batched ML
// inference -> flow-rule installation) or in the Taurus data plane
// (per-packet inference). The Taurus side is not shortcut: packets are
// serialised, batched and pushed through a real sharded pipeline.Pipeline —
// parser, MATs, stateful registers and the lowered MapReduce program —
// exactly the traffic plane the public API serves.
//
// The baseline's stages are batching servers: an idle stage grabs its whole
// queue as one batch and serves it in Setup + PerItem*len time. Under load
// the service time of a large batch lets more items accumulate — the
// batch-growth dynamic that Table 8 shows exploding at high sampling rates.
// Rule installation delay means the baseline marks a flow's packets only
// after its first sampled packet has traversed the whole control loop; most
// flows are over by then, which is why Taurus detects two orders of
// magnitude more events.
func runTable8(q *ml.QuantizedDNN, sampling float64, packets int) (Table8Row, error) {
	if q == nil {
		return Table8Row{}, fmt.Errorf("experiments: Table 8 needs a model")
	}
	if packets <= 0 {
		return Table8Row{}, fmt.Errorf("experiments: Table 8 packets must be positive, got %d", packets)
	}
	if !(sampling > 0 && sampling <= 1) { // written so that NaN fails too
		return Table8Row{}, fmt.Errorf("experiments: Table 8 sampling rate must be in (0,1], got %v", sampling)
	}
	rng := rand.New(rand.NewSource(table8Seed))
	gen, err := dataset.NewTraceGenerator(dataset.DefaultTraceConfig(), rng)
	if err != nil {
		return Table8Row{}, err
	}

	// The Taurus data plane: the same quantised model, lowered to MapReduce
	// and installed across a sharded pipeline. Each packet is serialised and
	// pushed through parser, MATs and the MapReduce block in batches.
	g, err := lower.DNN(q, "table8-dnn")
	if err != nil {
		return Table8Row{}, err
	}
	devCfg := core.DefaultConfig(g.Node(g.Inputs[0]).Width)
	devCfg.Threshold = table8Threshold
	pl, err := pipeline.New(pipeline.Config{Shards: table8Shards, Device: devCfg})
	if err != nil {
		return Table8Row{}, err
	}
	defer pl.Close()
	if err := pl.LoadModel(g, q.InputQ, compiler.Options{}); err != nil {
		return Table8Row{}, err
	}

	// The control loop (§5.2.1's XDP / InfluxDB / Keras / ONOS+TCAM),
	// calibrated so the batch-size and latency columns land in Table 8's
	// regime: per-invocation overheads of a few ms and per-item costs that
	// saturate the loop near the 10^-2 sampling point.
	stages := []*loopStage{
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

	var events loopEventHeap

	// Per-flow cached verdict of the quantised model for the baseline's
	// batched control-plane inference (flows have static feature vectors,
	// so the software inference is flow-constant). The Taurus side does NOT
	// use this cache — it runs the real data-plane pipeline per packet.
	verdicts := map[*dataset.Flow]bool{}
	verdict := func(f *dataset.Flow) bool {
		if v, ok := verdicts[f]; ok {
			return v
		}
		codes := q.InputQ.QuantizeSlice(f.Record.Features)
		out := q.ForwardCodes(codes)
		v := int32(out[0]) >= table8Threshold
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
		heap.Push(&events, loopEvent{atMs: st.busyUntil, stage: si})
	}

	deliver := func(si int, it loopItem, now float64) {
		it.enqueueMs = now
		stages[si].queue = append(stages[si].queue, it)
		startBatch(si, now)
	}

	drainEventsUntil := func(tMs float64) {
		for len(events) > 0 && events[0].atMs <= tMs {
			e := heap.Pop(&events).(loopEvent)
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
	ins := make([]core.PacketIn, 0, table8Batch)
	truths := make([]bool, 0, table8Batch)
	out := make([]core.Decision, table8Batch)
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
		if len(ins) == table8Batch {
			if err := flushTaurus(); err != nil {
				return Table8Row{}, err
			}
		}

		// Telemetry sampling into the control loop.
		if rng.Float64() < sampling {
			sampled++
			deliver(stXDP, loopItem{flow: pkt.Flow}, nowMs)
		}
	}
	if err := flushTaurus(); err != nil {
		return Table8Row{}, err
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
	res := Table8Row{
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

// Modelled costs of the online-training loop (§5.2.3). The loop itself is
// real; its clock is not: telemetry reaches the control plane at
// trainLinkPPS × sampling records per second, one SGD sample-epoch costs
// trainMsPerSampleEpoch and one weight push costs trainPushMs (the paper's
// flow-rule installation estimate).
const (
	trainLinkPPS          = 800_000 // 5 Gb/s of anomaly traffic
	trainMsPerSampleEpoch = 0.02
	trainPushMs           = 3.0
	// trainWindow is the sliding window of recent records each retrain
	// fits: a larger batch makes each update more substantial.
	trainWindow = 2048
	trainEvalN  = 2048 // packets in the fixed scoring batch
)

// ConvergenceRow is one point of an online-training curve (Figures 13 and
// 14): the model served after Update retrains (0 = the model deployed on
// the first collected batch).
type ConvergenceRow struct {
	Sampling      float64
	Epochs, Batch int
	Update        int
	// Records is how many labelled records the last fit trained on (the
	// sliding window, up to trainWindow).
	Records int
	// TimeS is modelled: batch collection at the sampled telemetry rate,
	// plus the modelled training and push costs.
	TimeS float64
	// F1 is scored on the pipeline's verdicts, i.e. the quantised model the
	// switch serves.
	F1 float64
}

// convergence runs the real control loop for one curve: a 6-12-6-3-1
// model.DNN is trained on the first collected batch and deployed on a
// 1-shard Pipeline, then each update collects batch fresh labels into the
// sliding window and runs one Controller.RetrainNow on it. After every push
// the pipeline serves one fixed labelled batch and its verdicts are scored.
func convergence(sampling float64, epochs, batch, updates int) ([]ConvergenceRow, error) {
	const seed = 1
	spec, err := driftSpecFor("dnn")
	if err != nil {
		return nil, err
	}
	stream, err := spec.newStream(seed)
	if err != nil {
		return nil, err
	}
	var evalIns []core.PacketIn
	var evalTruth []bool
	for len(evalIns) < trainEvalN { // distinct records: see driftFlows
		ins, _, truth := stream.NextBatch(driftFlows)
		evalIns, evalTruth = append(evalIns, ins...), append(evalTruth, truth...)
	}
	out := make([]core.Decision, len(evalIns))

	var window, handed []dataset.Record
	collect := func() {
		window = append(window, stream.Labelled(batch)...)
		if len(window) > trainWindow {
			window = window[len(window)-trainWindow:]
		}
	}
	collect()
	net := ml.NewDNN([]int{6, 12, 6, 3, 1}, ml.ReLU, ml.Sigmoid, rand.New(rand.NewSource(seed)))
	dep, err := model.NewDNN(net, model.DNNConfig{BatchSize: batch, Epochs: epochs})
	if err != nil {
		return nil, err
	}
	if err := dep.Fit(window); err != nil {
		return nil, err
	}
	inQ := model.InputQuantizerFor(window)
	g, err := dep.Lower(inQ)
	if err != nil {
		return nil, err
	}
	pl, err := spec.newPipe(g, inQ, 1)
	if err != nil {
		return nil, err
	}
	defer pl.Close()
	cfg := controlplane.DefaultConfig()
	cfg.RetrainRecords = trainWindow
	// The window is handed over once per round: while it is shorter than
	// RetrainRecords the fleet's top-up pass asks again, and gets nothing.
	source := func(int) []dataset.Record { w := handed; handed = nil; return w }
	ctrl, err := controlplane.New(pl, dep, inQ, source, cfg)
	if err != nil {
		return nil, err
	}
	defer ctrl.Close()

	collectS := float64(batch) / (trainLinkPPS * sampling)
	now := 0.0
	rows := make([]ConvergenceRow, 0, updates+1)
	for u := 0; ; u++ {
		records := len(window) // the deployment fit's
		if u > 0 {
			records = ctrl.Stats().LastRetrainRecords
		}
		now += collectS + (float64(epochs*records)*trainMsPerSampleEpoch+trainPushMs)/1000
		if _, err := pl.ProcessBatch(evalIns, out); err != nil {
			return nil, err
		}
		rows = append(rows, ConvergenceRow{Sampling: sampling, Epochs: epochs, Batch: batch,
			Update: u, Records: records, TimeS: now, F1: spec.score(out, evalTruth, nil)})
		if u == updates {
			return rows, nil
		}
		collect()
		handed = window
		if err := ctrl.RetrainNow(); err != nil {
			return nil, err
		}
	}
}

// timeToF1 returns the modelled time at which curve first serves at least
// target F1, or -1 if it never does.
func timeToF1(curve []ConvergenceRow, target float64) float64 {
	for _, r := range curve {
		if r.F1 >= target {
			return r.TimeS
		}
	}
	return -1
}

// Figure13 runs the online-training loop at four sampling rates (64-record
// batches, 1 epoch, 60 retrains). F1 is read from the served quantised
// model; the time axis is modelled (see ConvergenceRow.TimeS).
func Figure13() ([]ConvergenceRow, string, error) {
	var rows []ConvergenceRow
	var cells [][]string
	for _, p := range []float64{1e-5, 1e-4, 1e-3, 1e-2} {
		curve, err := convergence(p, 1, 64, 60)
		if err != nil {
			return nil, "", err
		}
		rows = append(rows, curve...)
		last := curve[len(curve)-1]
		cells = append(cells, []string{
			fmt.Sprintf("%.0e", p),
			fmt.Sprintf("%.4f", timeToF1(curve, 60)),
			fmt.Sprintf("%.4f", last.TimeS),
			fmt.Sprintf("%.1f", last.F1),
		})
	}
	return rows, table("Figure 13: online training convergence by sampling rate (served F1, modelled time)",
		[]string{"Sampling", "t(F1>=60) s", "t(final) s", "final F1"}, cells), nil
}

// Figure14 runs the online-training loop per (epochs, batch) at sampling
// 1e-2 (40 retrains). F1 is read from the served quantised model; the time
// axis is modelled (see ConvergenceRow.TimeS).
func Figure14() ([]ConvergenceRow, string, error) {
	var rows []ConvergenceRow
	var cells [][]string
	for _, c := range []struct{ epochs, batch int }{{1, 64}, {1, 256}, {10, 64}, {10, 256}} {
		curve, err := convergence(1e-2, c.epochs, c.batch, 40)
		if err != nil {
			return nil, "", err
		}
		rows = append(rows, curve...)
		cells = append(cells, []string{fmt.Sprintf("%d/%d", c.epochs, c.batch),
			fmt.Sprintf("%.4f", timeToF1(curve, 60)),
			fmt.Sprintf("%.1f", curve[len(curve)-1].F1),
		})
	}
	return rows, table("Figure 14: convergence by epochs/batch at sampling 1e-2 (served F1, modelled time)",
		[]string{"Epoch/Batch", "t(F1>=60) s", "final F1"}, cells), nil
}
