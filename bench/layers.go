package main

import (
	"fmt"
	"runtime"
	"time"
)

// The traced run. Trials with and without per-call spans alternate (the
// difference is trace.overhead_pct); the per-layer numbers come from rounds.
//
// The data path is attributed differentially: admit, stageCodes and flushML
// are private and a time.Now pair is ~5% of a packet, so each round pushes
// one slice of the workload's packets through nested compositions — parse ⊂
// bypass device ⊂ ML device ⊂ 1-shard pipeline ⊂ N-shard pipeline — one span
// each, and a layer's cost is the difference between two compositions. The
// control path is replayed step by step in the order Pipeline.LoadModel runs
// it, under one parent span, next to a span around the real call.

// Shares of a cycle of a traced run; the queueing model's slices take the
// rest.
const (
	shareTracedTrials = 0.30
	shareDataRounds   = 0.35
	shareCtlRounds    = 0.25
)

const (
	smallCalls    = 256 // 1-packet calls per span
	evalCalls     = 64
	obsCalls      = 100_000
	distfitChunk  = 128
	distfitWorker = 2
)

func runTraced(w *workload, seed int64, seconds float64, spanPath string) (*result, error) {
	res := &result{}
	t := &res.tally
	e, err := setUp(w, seed)
	if err != nil {
		return nil, err
	}
	defer e.close()
	rec := newRecorder(w.name)
	facts := map[string]float64{"round_call": float64(min(w.batch, w.roundPackets)), "ml_share": w.mlShare()}
	ref := newReference(e.g, e.m.inQ, e.m.numFeatures())
	t.check("after warm-up", pipeRun(e.pl1, w.batch), e.reg1, ref, e.ps, 0, setBatch)

	data, err := newDataPath(e, t, rec, facts)
	if err != nil {
		return nil, err
	}
	defer data.close()
	ctl, err := newCtlPath(e, t, rec, facts, seconds)
	if err != nil {
		return nil, err
	}
	defer ctl.close()

	// A first stretch of trials without per-call spans counts allocations;
	// after that, trials with and without them alternate, so both kinds sample
	// the same stretches of the machine's mood. Untraced trials still get one
	// span each — two clock reads per few ms.
	trials := newTrialRunner(e.pl1, e, rec)
	runtime.GC()
	trials.run(seconds2dur(seconds*0.05), 5, callSpansOff)
	deadline := time.Now().Add(seconds2dur(seconds * 0.95))
	for cycle := 0; cycle < 2 || time.Now().Before(deadline); cycle++ {
		trials.run(share(cycleLen, shareTracedTrials), 2, callSpansAlternate)
		if err := data.rounds(share(cycleLen, shareDataRounds)); err != nil {
			return nil, err
		}
		if err := ctl.rounds(share(cycleLen, shareCtlRounds)); err != nil {
			return nil, err
		}
		ctl.queueStep()
	}
	st := trials.stats()
	facts["allocs_per_kpkt"] = st.allocsPerKpkt
	t.add(st.packets, st.failedPackets, "timed trials")
	t.check("after last trial", pipeRun(e.pl1, w.batch), e.reg1, ref, e.ps, setSize-setBatch, setSize)
	data.finish()
	if err := ctl.finish(); err != nil {
		return nil, err
	}

	file := &spanFile{Workload: w.name, Seed: seed, Facts: facts, Spans: rec.spans}
	if err := file.write(spanPath); err != nil {
		return nil, fmt.Errorf("span file: %w", err)
	}
	res.metrics = layerMetrics(file)
	return res, nil
}

// firstError keeps the first error a round's spans hit; the round is then one
// failed operation.
type firstError struct{ err error }

func (f *firstError) note(err error) {
	if err != nil && f.err == nil {
		f.err = err
	}
}

// dataPath runs the nested data-path compositions, one slice of the packet
// set per round.
type dataPath struct {
	e   *env
	t   *tally
	rec *recorder

	regD, regN *Registry
	dev        *Device
	plN        *Pipeline
	tape       *Tape
	parser     *frameParser
	codes      [][]int32 // quantised features of ps.mlFeat, the tape's inputs
	round      int
}

func newDataPath(e *env, t *tally, rec *recorder, facts map[string]float64) (*dataPath, error) {
	nf := e.m.numFeatures()
	d := &dataPath{e: e, t: t, rec: rec, regD: newRegistry(), regN: newRegistry()}
	var err error
	if d.dev, err = newDevice(nf, d.regD, e.g, e.m.inQ); err != nil {
		return nil, err
	}
	if d.parser, err = newFrameParser(nf); err != nil {
		return nil, err
	}
	if d.tape, err = compileTape(e.g.Clone()); err != nil {
		return nil, err
	}
	tf := factsOf(d.tape)
	facts["sched.tape_instrs"], facts["sched.ii"] = float64(tf.instrs), float64(tf.ii)
	facts["sched.depth"], facts["sched.occupancy"] = float64(tf.depth), tf.occupancy
	for _, in := range e.ps.mlFeat {
		c := make([]int32, nf)
		for j, f := range in.Features {
			c[j] = int32(e.m.inQ.Quantize(f))
		}
		d.codes = append(d.codes, c)
	}

	nShards := min(runtime.GOMAXPROCS(0), 4)
	if d.plN, err = newPipeline(nShards, nf, d.regN); err != nil {
		return nil, err
	}
	if err := loadPipeline(d.plN, e.g, e.m.inQ); err != nil {
		d.close()
		return nil, err
	}
	// One pass of the whole set fixes the shard balance exactly.
	runN, out := pipeRun(d.plN, e.w.batch), make([]Decision, setSize)
	if err := runN(e.ps.warm, out); err != nil {
		d.close()
		return nil, err
	}
	if err := runN(e.ps.ins, out); err != nil {
		d.close()
		return nil, err
	}
	var most, total int
	for _, s := range d.plN.ShardStats() {
		most, total = max(most, s.Processed), total+s.Processed
	}
	facts["pipeline.max_shard_share"] = float64(most) / float64(total)
	facts["nshards"] = float64(nShards)
	return d, devRun(d.dev, e.w.batch)(e.ps.warm, out)
}

func (d *dataPath) close() { d.plN.Close() }

// rounds runs data-path rounds for budget, at least one.
func (d *dataPath) rounds(budget time.Duration) error {
	w, ps, rec, out := d.e.w, d.e.ps, d.rec, d.e.out
	unit := w.roundPackets
	call := min(w.batch, unit)
	runD, run1, runN := devRun(d.dev, call), pipeRun(d.e.pl1, call), pipeRun(d.plN, call)
	for deadline, n := time.Now().Add(budget), 0; n == 0 || time.Now().Before(deadline); n++ {
		off := d.round * unit % setSize
		d.round++
		blk, cls := ps.ins[off:off+unit], ps.class[off:off+unit]
		var f firstError
		round := rec.begin("round", 0)

		wellFormed := 0
		id := rec.begin("pisa.parse", round)
		for i, in := range blk {
			if cls[i] != clsTrunc {
				f.note(d.parser.parse(in.Data))
				wellFormed++
			}
		}
		rec.end(id, int64(wellFormed))
		rec.timed("pisa.parse_err", round, smallCalls, func() {
			for i := 0; i < smallCalls; i++ {
				if d.parser.parse(ps.truncFrames[i%truncPool]) == nil {
					f.note(fmt.Errorf("truncated frame %d parsed", i%truncPool))
				}
			}
		})
		rec.timed("core.bypass", round, unit, func() { f.note(runD(ps.allBypass, out)) })
		rec.timed("core.device", round, unit, func() { f.note(runD(blk, out)) })
		rec.timed("core.device_feat", round, unit, func() { f.note(runD(ps.mlFeat, out)) })
		rec.timed("core.device_nil", round, unit, func() { f.note(runD(ps.mlNil, out)) })
		rec.timed("core.batch1", round, smallCalls, func() {
			for i := 0; i < smallCalls; i++ {
				f.note(d.dev.ProcessBatch(blk[i:i+1], out[i:i+1]))
			}
		})
		// A sweep span stages n packets' codes and runs the tape over them,
		// n at a time, until the slice is done.
		for _, fill := range []int{16, 8, 4, 1} {
			rec.timed(fmt.Sprintf("sched.sweep%d", fill), round, unit, func() {
				for lo := 0; lo < unit; lo += fill {
					for j := 0; j < fill; j++ {
						copy(d.tape.InAt(0, j), d.codes[lo+j])
					}
					d.tape.RunBatch(fill)
				}
			})
		}
		rec.timed("pipeline.batch1shard", round, unit, func() { f.note(run1(blk, out)) })
		rec.timedCPU("pipeline.batchN", round, unit, func() { f.note(runN(blk, out)) })
		rec.timed("pipeline.process1", round, smallCalls, func() {
			for i := 0; i < smallCalls; i++ {
				if _, err := d.e.pl1.Process(blk[i]); err != nil && cls[i] != clsTrunc {
					f.note(err)
				}
			}
		})
		rec.timed("mapreduce.eval", round, evalCalls, func() {
			for i := 0; i < evalCalls; i++ {
				_, err := d.e.g.Eval(d.codes[i])
				f.note(err)
			}
		})
		rec.end(round, 1)
		d.t.op(f.err, "data-path round")
		if f.err != nil {
			return f.err
		}
	}
	return nil
}

// finish checks the two paths only the rounds drive.
func (d *dataPath) finish() {
	e := d.e
	ref := newReference(e.g, e.m.inQ, e.m.numFeatures())
	d.t.check("bare device", devRun(d.dev, e.w.batch), d.regD, ref, e.ps, 0, setBatch)
	d.t.check("N-shard pipeline", pipeRun(d.plN, e.w.batch), d.regN, ref, e.ps, 0, setBatch)
}

// ctlPath runs one of every control-path step per round, and the queueing
// model.
type ctlPath struct {
	e     *env
	t     *tally
	rec   *recorder
	facts map[string]float64

	pl1, plN *Pipeline
	regN     *Registry
	labels   func(n int) []Record
	ctl      *Controller
	coord    *DistFit
	queue    *queueModel
	g2       *Graph // the latest lowering, for the weight-only diff

	latencyNs, placedII []float64
	queueMallocs        uint64
}

func newCtlPath(e *env, t *tally, rec *recorder, facts map[string]float64, seconds float64) (*ctlPath, error) {
	nf := e.m.numFeatures()
	c := &ctlPath{e: e, t: t, rec: rec, facts: facts, regN: newRegistry(), g2: e.g}
	var err error
	if c.pl1, err = newPipeline(1, nf, newRegistry()); err != nil {
		return nil, err
	}
	if c.plN, err = newPipeline(installShards, nf, c.regN); err != nil {
		c.close()
		return nil, err
	}
	if c.labels, err = recordSource(nf, subSeed(e.seed, streamLabels)); err != nil {
		c.close()
		return nil, err
	}
	if c.ctl, err = newController(&capturePusher{Pipeline: c.plN}, e.m, c.labels, retrainRecords, newRegistry()); err != nil {
		c.close()
		return nil, err
	}
	if c.coord, err = newDistFit(e.m, distfitWorker, distfitChunk); err != nil {
		c.close()
		return nil, err
	}
	if err := loadPipeline(c.plN, e.g, e.m.inQ); err != nil {
		c.close()
		return nil, err
	}
	if c.queue, err = newQueueModel(c.plN.ServiceModel(), subSeed(e.seed, streamQueue), seconds); err != nil {
		c.close()
		return nil, err
	}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	err = verifyGraph(e.g)
	runtime.ReadMemStats(&m1)
	facts["graphcheck.verify_allocs"] = float64(m1.Mallocs - m0.Mallocs)
	if err != nil {
		c.close()
	}
	return c, err
}

func (c *ctlPath) close() {
	if c.coord != nil {
		c.coord.Close()
	}
	if c.ctl != nil {
		c.ctl.Close()
	}
	if c.plN != nil {
		c.plN.Close()
	}
	c.pl1.Close()
}

// rounds runs control-path rounds for budget, at least one.
func (c *ctlPath) rounds(budget time.Duration) error {
	e, rec, g := c.e, c.rec, c.e.g
	scratch := newRegistry()
	counter, hist := scratch.Counter("bench.scratch_total"), scratch.Histogram("bench.scratch_ns")
	for deadline, n := time.Now().Add(budget), 0; n == 0 || time.Now().Before(deadline); n++ {
		var f firstError
		round := rec.begin("ctl", 0)
		recs := c.labels(retrainRecords)

		rec.timed("graphcheck.verify", round, 1, func() { f.note(verifyGraph(g)) })
		rec.timed("graphcheck.compatible", round, 10, func() {
			for i := 0; i < 10; i++ {
				f.note(compatibleGraphs(g, c.g2))
			}
		})
		clone := g.Clone()
		rec.timed("compiler.compile", round, 1, func() {
			ii, err := placeGraph(clone)
			c.placedII = append(c.placedII, float64(ii))
			f.note(err)
		})
		rec.timed("mapreduce.clone", round, installShards, func() {
			for i := 0; i < installShards; i++ {
				clone = g.Clone()
			}
		})
		rec.timed("sched.plan", round, 1, func() { f.note(planTape(clone)) })
		rec.timed("sched.compile", round, 1, func() { _, err := compileTape(clone); f.note(err) })

		// The real install at 1 and at installShards shards, then its steps
		// replayed in LoadModel's order: verify, place, per shard clone +
		// compile the tape.
		rec.timed("install.1shard", round, 1, func() { f.note(loadPipeline(c.pl1, g, e.m.inQ)) })
		rec.timed("install.nshard", round, 1, func() { f.note(loadPipeline(c.plN, g, e.m.inQ)) })
		c.latencyNs = append(c.latencyNs, c.plN.ModelLatencyNs())
		replay := rec.begin("install.replay", round)
		rec.timed("replay.verify", replay, 1, func() { f.note(verifyGraph(g)) })
		rec.timed("replay.place", replay, 1, func() { _, err := placeGraph(g.Clone()); f.note(err) })
		for s := 0; s < installShards; s++ {
			var shardGraph *Graph
			rec.timed("replay.clone", replay, 1, func() { shardGraph = g.Clone() })
			rec.timed("replay.tape", replay, 1, func() { _, err := compileTape(shardGraph); f.note(err) })
		}
		rec.end(replay, 1)

		rec.timed("model.fit", round, 1, func() { f.note(e.m.fit(recs)) })
		rec.timed("model.lower", round, 1, func() {
			var err error
			c.g2, err = e.m.lower()
			f.note(err)
		})
		rec.timed("distfit.round", round, 1, func() { f.note(c.coord.Fit(recs)) })
		rec.timed("controlplane.observe", round, len(e.out), func() { c.ctl.Observe(e.out) })

		rec.timed("obs.counter_add", round, obsCalls, func() {
			for i := 0; i < obsCalls; i++ {
				counter.Add(1)
			}
		})
		rec.timed("obs.hist_record", round, obsCalls, func() {
			for i := 0; i < obsCalls; i++ {
				hist.Record(float64(i & 1023))
			}
		})
		rec.timed("obs.snapshot", round, 10, func() {
			for i := 0; i < 10; i++ {
				e.reg1.Snapshot()
			}
		})
		rec.timed("trafficgen.gen", round, setBatch, func() { f.note(trafficgenBatch(e.seed, setBatch, warmFlows)) })
		rec.end(round, 1)
		c.t.op(f.err, "control-path round")
		if f.err != nil {
			return f.err
		}
	}
	return nil
}

// queueStep advances the queueing model by a slice and counts what the event
// loop allocated.
func (c *ctlPath) queueStep() {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c.queue.step(c.rec)
	runtime.ReadMemStats(&m1)
	c.queueMallocs += m1.Mallocs - m0.Mallocs
}

func (c *ctlPath) finish() error {
	e, facts := c.e, c.facts
	// Every round ends on an install of e.g with nothing pushed after it.
	c.t.check("after control rounds", pipeRun(c.plN, e.w.batch), c.regN,
		newReference(e.g, e.m.inQ, e.m.numFeatures()), e.ps, 0, checkSlice)

	for c.queue.stepsLeft > 0 {
		c.queueStep()
	}
	q, err := c.queue.finish(c.rec)
	if err != nil {
		return err
	}
	// Placement is not deterministic: the placed II and fill latency of one
	// graph differ from install to install, so both are medians over the
	// rounds, and the transit times are quoted at the median latency.
	added := summarize(c.latencyNs).value
	facts["compiler.ii"] = summarize(c.placedII).value
	facts["model_added_ns"] = added
	facts["model_p99_ns"] = q.poisson.P99Ns + added
	facts["netqueue.p50_ns"] = q.poisson.P50Ns + added
	facts["netqueue.max_depth"] = float64(q.poisson.MaxDepth)
	facts["netqueue.allocs_per_kpkt"] = float64(c.queueMallocs) / float64(q.poisson.Packets+q.onoff.Packets) * 1000
	return nil
}

// layerMetrics recomputes every per-layer metric from a span file: timings
// from the spans, counts and modelled quantities from the facts. A timing is
// the undisturbed cost of its span across the rounds; a difference or ratio
// is taken between two such costs, not round by round, because two spans of
// one round need not have been disturbed alike.
func layerMetrics(f *spanFile) map[string]sample {
	m := map[string]sample{}
	for _, name := range []string{
		"allocs_per_kpkt", "model_added_ns", "model_p99_ns",
		"sched.tape_instrs", "sched.ii", "sched.depth", "sched.occupancy",
		"graphcheck.verify_allocs", "compiler.ii", "pipeline.max_shard_share",
		"netqueue.allocs_per_kpkt", "netqueue.p50_ns", "netqueue.max_depth",
	} {
		m[name] = exactly(f.Facts[name])
	}

	// cost is wall ns per operation of one span name under one kind of round.
	cost := func(rs []map[string]agg, span string) sample {
		var xs []float64
		for _, r := range rs {
			if a := r[span]; a.n > 0 {
				xs = append(xs, a.dur/a.n)
			}
		}
		return undisturbed(xs, false)
	}
	scaled := func(s sample, k float64) sample {
		s.value, s.median, s.q1, s.q3 = s.value*k, s.median*k, s.q1*k, s.q3*k
		return s
	}

	data := rounds(f.Spans, "round")
	for metric, span := range map[string]string{
		"pisa.parse_ns": "pisa.parse", "pisa.parse_err_ns": "pisa.parse_err",
		"core.bypass_ns": "core.bypass", "core.device_ns": "core.device", "core.batch1_ns": "core.batch1",
		"sched.sweep16_ns": "sched.sweep16", "sched.sweep8_ns": "sched.sweep8",
		"sched.sweep4_ns": "sched.sweep4", "sched.sweep1_ns": "sched.sweep1",
		"pipeline.process1_ns": "pipeline.process1", "mapreduce.eval_ns": "mapreduce.eval",
	} {
		m[metric] = cost(data, span)
	}
	n := len(data)
	device, sweep := m["core.device_ns"].value, m["sched.sweep16_ns"].value
	// The tape's share of a device packet is its sweep cost times the share
	// of packets that reach it.
	tape := f.Facts["ml_share"] * sweep
	m["core.front_ns"] = derived(device-tape, n)
	m["core.device_over_tape_x"] = derived(device/tape, n)
	m["core.accumulate_ns"] = derived(cost(data, "core.device_feat").value-cost(data, "core.device_nil").value, n)
	pipe1 := cost(data, "pipeline.batch1shard").value
	m["pipeline.dispatch_ns_per_batch"] = derived((pipe1-device)*f.Facts["round_call"], n)
	m["pipeline.over_device_x"] = derived(pipe1/device, n)

	var ppsN, cpuN []float64
	for _, r := range data {
		if a := r["pipeline.batchN"]; a.n > 0 {
			ppsN = append(ppsN, a.n/a.dur*1e9)
			cpuN = append(cpuN, a.cpu/a.n)
		}
	}
	nshard := map[string]sample{
		"pipeline.pps_nshard":            undisturbed(ppsN, true),
		"pipeline.cpu_ns_per_pkt_nshard": undisturbed(cpuN, false),
	}
	for name, s := range nshard {
		s.unresolved = s.spread() > 0.10
		m[name] = s
	}
	scaling := derived(m["pipeline.pps_nshard"].value*pipe1/1e9, n)
	scaling.unresolved = m["pipeline.pps_nshard"].unresolved
	m["pipeline.scaling_x"] = scaling

	// Per-call wall time of the 1-shard pipeline, from the traced trials.
	var calls []float64
	for _, s := range f.Spans {
		if s.Name == "pipeline.batch" {
			calls = append(calls, s.dur()/1e3)
		}
	}
	p50 := summarize(calls)
	m["pipeline.batch_wall_us_p50"] = p50
	p99 := p50
	p99.value = percentile(calls, 0.99)
	m["pipeline.batch_wall_us_p99"] = p99

	ctl := rounds(f.Spans, "ctl")
	for metric, spec := range map[string]struct {
		span  string
		scale float64
	}{
		"graphcheck.verify_ms": {"graphcheck.verify", 1e-6}, "graphcheck.compatible_us": {"graphcheck.compatible", 1e-3},
		"compiler.compile_ms": {"compiler.compile", 1e-6}, "mapreduce.clone_us": {"mapreduce.clone", 1e-3},
		"sched.compile_ms": {"sched.compile", 1e-6}, "sched.plan_ms": {"sched.plan", 1e-6},
		"model.fit_ms": {"model.fit", 1e-6}, "model.lower_ms": {"model.lower", 1e-6},
		"distfit.round_ms": {"distfit.round", 1e-6}, "controlplane.observe_ns_per_pkt": {"controlplane.observe", 1},
		"obs.counter_add_ns": {"obs.counter_add", 1}, "obs.hist_record_ns": {"obs.hist_record", 1},
		"obs.snapshot_us": {"obs.snapshot", 1e-3}, "trafficgen.gen_ns_per_pkt": {"trafficgen.gen", 1},
	} {
		m[metric] = scaled(cost(ctl, spec.span), spec.scale)
	}
	install := cost(ctl, "install.nshard").value
	m["pipeline.install_shards_x"] = derived(install/cost(ctl, "install.1shard").value, len(ctl))
	m["trace.install_coverage_x"] = derived(cost(ctl, "install.replay").value/install, len(ctl))

	// Trials and the queue model's slices are compared across the whole run.
	var poisson, onoff, tracedNs, untracedNs []float64
	for _, s := range f.Spans {
		switch s.Name {
		case "trial.traced":
			tracedNs = append(tracedNs, s.dur()/float64(s.N))
		case "trial.untraced":
			untracedNs = append(untracedNs, s.dur()/float64(s.N))
		case "netqueue.poisson":
			poisson = append(poisson, s.dur()/float64(s.N))
		case "netqueue.onoff":
			onoff = append(onoff, s.dur()/float64(s.N))
		}
	}
	m["trace.overhead_pct"] = derived(100*(undisturbed(tracedNs, false).value/undisturbed(untracedNs, false).value-1), len(tracedNs))
	m["netqueue.host_ns_per_pkt"] = undisturbed(poisson, false)
	m["netqueue.host_ns_per_pkt_onoff"] = undisturbed(onoff, false)
	return m
}
