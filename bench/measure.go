package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"
)

// env is one set-up of a workload: trained model, generated traffic, and a
// loaded, warmed 1-shard pipeline — everything the first timed trial needs.
type env struct {
	w    *workload
	seed int64
	m    *trainedModel
	g    *Graph // the graph pl1 serves
	ps   *packetSet
	reg1 *Registry
	pl1  *Pipeline

	batches [][]PacketIn // ps.ins cut into w.batch-packet calls
	out     []Decision
}

// setUp is what setup_s times: train and lower the model, generate the
// packets, build the pipeline, install, warm up.
func setUp(w *workload, seed int64) (*env, error) {
	m, g, err := trainModel(w.sizes, subSeed(seed, streamModel), w.trainRecords, w.epochs)
	if err != nil {
		return nil, fmt.Errorf("train: %w", err)
	}
	nf := m.numFeatures()
	scratch, err := newDevice(nf, newRegistry(), g, m.inQ)
	if err != nil {
		return nil, fmt.Errorf("probe device: %w", err)
	}
	records, err := recordSource(nf, subSeed(seed, streamPackets))
	if err != nil {
		return nil, err
	}
	ps, err := w.generate(seed, records, probeWith(scratch))
	if err != nil {
		return nil, fmt.Errorf("generate: %w", err)
	}
	e := &env{w: w, seed: seed, m: m, g: g, ps: ps, reg1: newRegistry(), out: make([]Decision, setBatch)}
	for lo := 0; lo < len(ps.ins); lo += w.batch {
		e.batches = append(e.batches, ps.ins[lo:lo+w.batch])
	}
	if e.pl1, err = newPipeline(1, nf, e.reg1); err != nil {
		return nil, err
	}
	if err := loadPipeline(e.pl1, g, m.inQ); err != nil {
		e.close()
		return nil, fmt.Errorf("first LoadModel: %w", err)
	}
	// Warm-up: registers, then one pass over the whole set.
	run := pipeRun(e.pl1, w.batch)
	if err := run(ps.warm, e.out); err != nil {
		e.close()
		return nil, err
	}
	for lo := 0; lo < len(ps.ins); lo += setBatch {
		if err := run(ps.ins[lo:lo+setBatch], e.out); err != nil {
			e.close()
			return nil, err
		}
	}
	return e, nil
}

func (e *env) close() {
	if e.pl1 != nil {
		e.pl1.Close()
	}
}

// probeWith answers the generator's one question about the program's flow
// hash through a scratch device: a TCP packet without features is bypassed
// exactly when its flow's register slot has never been written.
func probeWith(dev *Device) flowProbe {
	return func(frames [][]byte, feat []float32) ([]bool, error) {
		ins := make([]PacketIn, 0, 2*len(frames))
		for _, f := range frames {
			ins = append(ins, PacketIn{Data: f}, PacketIn{Data: f, Features: feat})
		}
		out := make([]Decision, len(ins))
		if err := dev.ProcessBatch(ins, out); err != nil {
			return nil, err
		}
		free := make([]bool, len(frames))
		for i := range free {
			free[i] = out[2*i].Bypassed
		}
		return free, nil
	}
}

// inBatches feeds a packet slice to call in batch-packet pieces.
func inBatches(batch int, call func(ins []PacketIn, out []Decision) error) batcher {
	return func(ins []PacketIn, out []Decision) error {
		for lo := 0; lo < len(ins); lo += batch {
			hi := min(lo+batch, len(ins))
			if err := call(ins[lo:hi], out[lo:hi]); err != nil {
				return err
			}
		}
		return nil
	}
}

func pipeRun(pl *Pipeline, batch int) batcher {
	return inBatches(batch, func(ins []PacketIn, out []Decision) error {
		_, err := pl.ProcessBatch(ins, out)
		return err
	})
}

func devRun(d *Device, batch int) batcher { return inBatches(batch, d.ProcessBatch) }

var rusage syscall.Rusage // cpuNow's buffer; only the measuring goroutine calls it

// cpuNow is the process's user+system CPU time in ns.
func cpuNow() int64 {
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &rusage); err != nil {
		return 0
	}
	return rusage.Utime.Nano() + rusage.Stime.Nano()
}

// trialStats are the timed trials of one pipeline.
type trialStats struct {
	pps, cpuNsPerPkt sample
	allocsPerKpkt    float64 // over the stretches run with callSpansOff
	packets          int
	failedPackets    int // packets of batches ProcessBatch returned an error for
}

// How a stretch of trials records its ProcessBatch calls.
const (
	callSpansOff       = iota // no span per call: an untraced trial
	callSpansAlternate        // odd trials carry a span per call, even trials none
)

// trialRunner drives the closed loop — one caller, the next batch only after
// the previous one returned — in trials of w.trialBatches calls, a stretch at
// a time, so that the trials of a run are spread over its whole length.
type trialRunner struct {
	pl  *Pipeline
	e   *env
	rec *recorder // nil: no spans at all

	next     int // batch the next call sends
	pps, cpu []float64
	mallocs  uint64
	counted  int // packets of the stretches whose allocations were counted
	failed   int
}

const maxTrials = 1 << 15

func newTrialRunner(pl *Pipeline, e *env, rec *recorder) *trialRunner {
	return &trialRunner{pl: pl, e: e, rec: rec, pps: make([]float64, 0, maxTrials), cpu: make([]float64, 0, maxTrials)}
}

// run adds trials for budget, at least minTrials. With a recorder every trial
// is a span, and under callSpansAlternate every other trial also records each
// call under it — what the traced run pays for, and what trace.overhead_pct
// compares against the trials in between.
func (r *trialRunner) run(budget time.Duration, minTrials int, callSpans int) {
	w := r.e.w
	perTrial := w.trialBatches * w.batch
	if r.rec != nil {
		r.rec.reserve((w.trialBatches + 1) * 1024) // growing the span slice is not the program's allocation
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	deadline := time.Now().Add(budget)
	done := 0
	for ; len(r.pps) < maxTrials && (done < minTrials || time.Now().Before(deadline)); done++ {
		perCall := callSpans == callSpansAlternate && done%2 == 1
		var trial int32
		if r.rec != nil {
			name := "trial.untraced"
			if perCall {
				name = "trial.traced"
			}
			trial = r.rec.begin(name, 0)
		}
		c0, t0 := cpuNow(), time.Now()
		for b := 0; b < w.trialBatches; b++ {
			var id int32
			if perCall {
				id = r.rec.begin("pipeline.batch", trial)
			}
			_, err := r.pl.ProcessBatch(r.e.batches[r.next], r.e.out)
			if perCall {
				r.rec.end(id, int64(w.batch))
			}
			if err != nil {
				r.failed += w.batch
			}
			if r.next++; r.next == len(r.e.batches) {
				r.next = 0
			}
		}
		wall, used := time.Since(t0), cpuNow()-c0
		if r.rec != nil {
			r.rec.end(trial, int64(perTrial))
		}
		r.pps = append(r.pps, float64(perTrial)/wall.Seconds())
		r.cpu = append(r.cpu, float64(used)/float64(perTrial))
	}
	if callSpans == callSpansOff {
		runtime.ReadMemStats(&after)
		r.mallocs += after.Mallocs - before.Mallocs
		r.counted += done * perTrial
	}
}

func (r *trialRunner) stats() trialStats {
	return trialStats{
		pps:           undisturbed(r.pps, true),
		cpuNsPerPkt:   undisturbed(r.cpu, false),
		allocsPerKpkt: float64(r.mallocs) / float64(max(r.counted, 1)) * 1000,
		packets:       len(r.pps) * r.e.w.trialBatches * r.e.w.batch,
		failedPackets: r.failed,
	}
}

// result is one run's metrics and its operation tally.
type result struct {
	metrics map[string]sample
	tally   tally
}

// checkSlice is how many packets of the set a control-path recheck replays
// (after the warm-up batch); the checks around the timed trials replay a
// whole block.
const checkSlice = 128

// A run cycles through its phases every cycleLen, each phase taking its share
// of the cycle, instead of running them one after the other: every metric's
// samples then span the whole run, and a few seconds of a busy neighbour
// cost each metric some samples, not one metric all of them.
const cycleLen = 250 * time.Millisecond

// Shares of a cycle of an untraced run; the queueing model's slices take the
// rest.
const (
	shareTrials  = 0.62
	shareInstall = 0.10
	sharePush    = 0.04
	shareRetrain = 0.14
)

func share(d time.Duration, s float64) time.Duration { return time.Duration(float64(d) * s) }

func seconds2dur(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// setupRuns is how many times a run sets up, so that setup_s is a median.
const setupRuns = 9

// runEndToEnd is the untraced run: every end-to-end metric. It sets up
// setups times and measures on the last.
func runEndToEnd(w *workload, seed int64, seconds float64, setups int) (*result, error) {
	res := &result{metrics: map[string]sample{}}
	t := &res.tally

	var e *env
	var setupS []float64
	for i := 0; i < setups; i++ {
		if e != nil {
			e.close()
		}
		t0 := time.Now()
		var err error
		if e, err = setUp(w, seed); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer e.close()
	res.metrics["setup_s"] = summarize(setupS)

	ref := newReference(e.g, e.m.inQ, e.m.numFeatures())
	t.check("after warm-up", pipeRun(e.pl1, w.batch), e.reg1, ref, e.ps, 0, setBatch)

	ctl, err := newControlPath(e, t, seconds)
	if err != nil {
		return nil, err
	}
	defer ctl.close()
	trials := newTrialRunner(e.pl1, e, nil)
	runtime.GC()
	deadline := time.Now().Add(seconds2dur(seconds))
	for cycle := 0; cycle < 2 || time.Now().Before(deadline); cycle++ {
		trials.run(share(cycleLen, shareTrials), 2, callSpansOff)
		ctl.installs(share(cycleLen, shareInstall))
		ctl.pushes(share(cycleLen, sharePush))
		ctl.retrains(share(cycleLen, shareRetrain))
		ctl.queue.step(nil)
	}
	st := trials.stats()
	res.metrics["wall_pps"] = st.pps
	res.metrics["cpu_ns_per_pkt"] = st.cpuNsPerPkt
	t.add(st.packets, st.failedPackets, "timed trials")
	if st.allocsPerKpkt >= 0.01 {
		t.notes = append(t.notes, fmt.Sprintf("timed trials allocated: %.2f allocations per 1000 packets", st.allocsPerKpkt))
	}
	t.check("after last trial", pipeRun(e.pl1, w.batch), e.reg1, ref, e.ps, setSize-setBatch, setSize)

	res.metrics["install_ms"] = undisturbed(ctl.installMs, false)
	res.metrics["install_alloc_kb"] = summarize(ctl.allocKB)
	res.metrics["push_us"] = undisturbed(ctl.pushUs, false)
	res.metrics["retrain_ms"] = undisturbed(ctl.retrainMs, false)
	q, err := ctl.queue.finish(nil)
	if err != nil {
		return nil, err
	}
	res.metrics["model_max_pps"] = exactly(q.maxPPS)
	res.metrics["model_mean_ns"] = exactly(q.poisson.MeanNs + ctl.addedNs())
	res.metrics["model_drop_frac"] = exactly(q.onoff.DropFrac)
	res.metrics["sim_pps"] = undisturbed(ctl.queue.poissonPPS, true)
	return res, nil
}

// retrainRecords is the labelled-record draw of one retrain.
const retrainRecords = 512

// controlPath measures install, push and retrain on an installShards-shard
// pipeline, and owns the queueing model of the design that pipeline serves.
type controlPath struct {
	e   *env
	t   *tally
	reg *Registry
	pl  *Pipeline
	run batcher

	graphs [2]*Graph // pushes alternate two weight sets, so each one changes what the shards hold
	pusher *capturePusher
	ctl    *Controller
	queue  *queueModel

	installMs, allocKB, latencyNs, pushUs, retrainMs []float64
}

func newControlPath(e *env, t *tally, seconds float64) (*controlPath, error) {
	nf := e.m.numFeatures()
	c := &controlPath{e: e, t: t, reg: newRegistry()}
	var err error
	if c.pl, err = newPipeline(installShards, nf, c.reg); err != nil {
		return nil, err
	}
	c.run = pipeRun(c.pl, e.w.batch)
	if err := loadPipeline(c.pl, e.g, e.m.inQ); err != nil {
		c.close()
		return nil, fmt.Errorf("first %d-shard LoadModel: %w", installShards, err)
	}
	labels, err := recordSource(nf, subSeed(e.seed, streamLabels))
	if err != nil {
		c.close()
		return nil, err
	}
	g2, err := e.m.refit(labels(e.w.trainRecords / 4))
	if err != nil {
		c.close()
		return nil, fmt.Errorf("second lowering: %w", err)
	}
	c.graphs = [2]*Graph{g2, e.g}
	c.pusher = &capturePusher{Pipeline: c.pl}
	if c.ctl, err = newController(c.pusher, e.m, labels, retrainRecords, newRegistry()); err != nil {
		c.close()
		return nil, err
	}
	if c.queue, err = newQueueModel(c.pl.ServiceModel(), subSeed(e.seed, streamQueue), seconds); err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

func (c *controlPath) close() {
	if c.ctl != nil {
		c.ctl.Close()
	}
	c.pl.Close()
}

// check reruns the reference against graph g, the one the shards now hold.
func (c *controlPath) check(what string, g *Graph) {
	ref := newReference(g, c.e.m.inQ, c.e.m.numFeatures())
	c.t.check(what, c.run, c.reg, ref, c.e.ps, 0, checkSlice)
}

const perBlock = 5 // back-to-back calls per install or push sample

// installs times blocks of LoadModel: install_ms and install_alloc_kb.
func (c *controlPath) installs(budget time.Duration) {
	var m0, m1 runtime.MemStats
	for deadline, n := time.Now().Add(budget), 0; n == 0 || time.Now().Before(deadline); n++ {
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		for i := 0; i < perBlock; i++ {
			c.t.op(loadPipeline(c.pl, c.e.g, c.e.m.inQ), "LoadModel")
		}
		dt := time.Since(t0)
		runtime.ReadMemStats(&m1)
		c.installMs = append(c.installMs, dt.Seconds()*1e3/perBlock)
		c.allocKB = append(c.allocKB, float64(m1.TotalAlloc-m0.TotalAlloc)/1024/perBlock)
		c.latencyNs = append(c.latencyNs, c.pl.ModelLatencyNs())
	}
	c.check("after install", c.e.g)
}

// pushes times blocks of UpdateWeights: push_us.
func (c *controlPath) pushes(budget time.Duration) {
	pushed := c.e.g
	for deadline, n := time.Now().Add(budget), 0; n == 0 || time.Now().Before(deadline); n++ {
		t0 := time.Now()
		for i := 0; i < perBlock; i++ {
			//clonecheck:owned — the two weight sets are only read; every shard copies the weights out
			//gatecheck:verified — Pipeline.UpdateWeights runs graphcheck + Compatible before pushing
			err := c.pl.UpdateWeights(c.graphs[i%2])
			c.t.op(err, "UpdateWeights")
			if err == nil {
				pushed = c.graphs[i%2]
			}
		}
		c.pushUs = append(c.pushUs, time.Since(t0).Seconds()*1e6/perBlock)
	}
	c.check("after push", pushed)
}

// retrains times RetrainNow — labels, Fit, Lower, verify, push — and reruns
// the reference against every graph the controller pushes: retrain_ms.
func (c *controlPath) retrains(budget time.Duration) {
	for deadline, n := time.Now().Add(budget), 0; n == 0 || time.Now().Before(deadline); n++ {
		t0 := time.Now()
		err := c.ctl.RetrainNow()
		c.retrainMs = append(c.retrainMs, time.Since(t0).Seconds()*1e3)
		c.t.op(err, "RetrainNow")
		if err == nil {
			c.check("after retrain", c.pusher.last)
		}
	}
}

// addedNs is the design's fill latency at the median install. The compiler's
// placement is not deterministic — the same 8-64-32-1 graph placed twice
// reads anywhere from 148 to 176 ns — so one install's latency is a draw, and
// the modelled transit times are quoted at the median of the draws this run
// saw.
func (c *controlPath) addedNs() float64 { return summarize(c.latencyNs).value }

// queueModel runs the three netqueue experiments on one design: transit time
// at 0.8 of nominal under Poisson arrivals, loss under on/off bursts at 0.7,
// and the zero-drop sustainable rate. The two long simulations advance a
// slice per step, so their host cost is sampled along the run. They are run
// with zero fill latency: the latency is added to every packet alike, so the
// caller adds the median install's to the transit times afterwards.
type queueModel struct {
	svc  ServiceModel
	seed int64

	poisson, onoff           *queueSim
	slicePoisson, sliceOn    int
	stepsLeft                int
	poissonPPS               []float64 // host packets/s of each Poisson slice
	poissonNsPer, onoffNsPer []float64
	probePackets             int
}

const queueSlices = 100

// newQueueModel sizes the simulations to -seconds, up to the full size at
// 10 s, so a smoke run stays short and two runs at one setting repeat
// exactly.
func newQueueModel(svc ServiceModel, seed int64, seconds float64) (*queueModel, error) {
	scale := min(1, seconds/10)
	svc.LatencyNs = 0
	q := &queueModel{
		svc: svc, seed: seed, stepsLeft: queueSlices,
		slicePoisson: int(2_000_000*scale) / queueSlices,
		sliceOn:      int(4_000_000*scale) / queueSlices,
		probePackets: int(200_000 * scale),
	}
	var err error
	if q.poisson, err = newPoissonSim(svc, 0.8*svc.NominalPPS(), seed+1); err != nil {
		return nil, err
	}
	q.onoff, err = newOnOffSim(svc, 0.7, seed+2)
	return q, err
}

// step advances both simulations by one slice, each under a span if rec is
// given.
func (q *queueModel) step(rec *recorder) {
	if q.stepsLeft == 0 {
		return
	}
	q.stepsLeft--
	timeSlice := func(name string, sim *queueSim, n int) float64 {
		var id int32
		if rec != nil {
			id = rec.begin(name, 0)
		}
		t0 := time.Now()
		sim.run(n)
		dt := time.Since(t0)
		if rec != nil {
			rec.end(id, int64(n))
		}
		return dt.Seconds()
	}
	q.poissonPPS = append(q.poissonPPS, float64(q.slicePoisson)/timeSlice("netqueue.poisson", q.poisson, q.slicePoisson))
	timeSlice("netqueue.onoff", q.onoff, q.sliceOn)
}

// queueStats is what the queueing model says of one design.
type queueStats struct {
	maxPPS         float64
	poisson, onoff QueueResult
}

// finish runs whatever slices are left and the sustainable-rate search.
func (q *queueModel) finish(rec *recorder) (*queueStats, error) {
	for q.stepsLeft > 0 {
		q.step(rec)
	}
	maxPPS, err := maxSustainablePPS(q.svc, q.seed, q.probePackets)
	if err != nil {
		return nil, err
	}
	return &queueStats{maxPPS: maxPPS, poisson: q.poisson.finish(), onoff: q.onoff.finish()}, nil
}
