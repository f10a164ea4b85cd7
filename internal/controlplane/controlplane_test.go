package controlplane

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"taurus/internal/compiler"
	"taurus/internal/core"
	"taurus/internal/dataset"
	"taurus/internal/fixed"
	"taurus/internal/lower"
	mr "taurus/internal/mapreduce"
	"taurus/internal/ml"
	"taurus/internal/model"
	"taurus/internal/obs"
	"taurus/internal/pipeline"
	"taurus/internal/tensor"
	"taurus/internal/trafficgen"
)

// loopFixture is a deployed pipeline plus the drifting stream and the
// model lifecycle the controller retrains.
type loopFixture struct {
	pipe   *pipeline.Pipeline
	stream *trafficgen.DriftingStream
	dep    model.Deployable
	inQ    fixed.Quantizer
}

func newLoopFixture(t *testing.T, shards, epochs int) *loopFixture {
	t.Helper()
	stream, err := trafficgen.NewDriftingStream(dataset.DefaultDriftConfig(), 11, 128)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	X, y := dataset.Split(stream.Labelled(2000))
	net := ml.NewDNN([]int{6, 12, 6, 3, 1}, ml.ReLU, ml.Sigmoid, rng)
	ml.NewTrainer(net, ml.SGDConfig{LearningRate: 0.05, Momentum: 0.9, BatchSize: 32, Epochs: 15}, rng).Fit(X, y)
	q, err := ml.Quantize(net, X[:200])
	if err != nil {
		t.Fatal(err)
	}
	g, err := lower.DNN(q, "loop-dnn")
	if err != nil {
		t.Fatal(err)
	}
	pl, err := pipeline.New(pipeline.Config{Shards: shards, Device: core.DefaultConfig(6)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pl.Close)
	if err := pl.LoadModel(g, q.InputQ, compiler.Options{}); err != nil {
		t.Fatal(err)
	}
	dep, err := model.NewDNN(net, model.DNNConfig{Epochs: epochs, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	return &loopFixture{pipe: pl, stream: stream, dep: dep, inQ: q.InputQ}
}

func (f *loopFixture) f1(out []core.Decision, truth []bool) float64 {
	var conf ml.BinaryConfusion
	for i := range out {
		conf.Observe(out[i].Verdict != core.Forward, truth[i])
	}
	return conf.F1()
}

func TestControllerValidation(t *testing.T) {
	f := newLoopFixture(t, 1, 5)
	goodQ := f.inQ
	src := f.stream.Labelled
	if _, err := New(nil, f.dep, goodQ, src, Config{}); err == nil {
		t.Error("nil pusher accepted")
	}
	if _, err := New(f.pipe, nil, goodQ, src, Config{}); err == nil {
		t.Error("nil model accepted")
	}
	if _, err := New(f.pipe, f.dep, goodQ, nil, Config{}); err == nil {
		t.Error("nil source accepted")
	}
	if _, err := New(f.pipe, f.dep, fixed.Quantizer{}, src, Config{}); err == nil {
		t.Error("zero input quantiser accepted")
	}
	if _, err := New(f.pipe, f.dep, goodQ, src, Config{}); err != nil {
		t.Errorf("valid construction failed: %v", err)
	}
}

// TestControllerClosesTheLoop drives the loop synchronously: drift must be
// detected after the distribution shifts, a retrain must push new weights,
// and accuracy must recover while an untouched run would have stayed broken.
func TestControllerClosesTheLoop(t *testing.T) {
	f := newLoopFixture(t, 2, 10)
	cfg := DefaultConfig()
	cfg.Window = 256
	cfg.RefWindows = 2
	cfg.RetrainRecords = 2000
	ctrl, err := New(f.pipe, f.dep, f.inQ, f.stream.Labelled, cfg)
	if err != nil {
		t.Fatal(err)
	}

	const batch = 1024
	run := func(rounds int) (last float64) {
		for r := 0; r < rounds; r++ {
			ins, out, truth := f.stream.NextBatch(batch)
			if _, err := f.pipe.ProcessBatch(ins, out); err != nil {
				t.Fatal(err)
			}
			if ctrl.Observe(out) {
				if err := ctrl.RetrainNow(); err != nil {
					t.Fatal(err)
				}
			}
			last = f.f1(out, truth)
		}
		return last
	}

	preF1 := run(3)
	if preF1 < 50 {
		t.Fatalf("pre-drift F1 = %.1f, deployment model did not train", preF1)
	}
	if got := ctrl.Stats().Drifts; got != 0 {
		t.Fatalf("drift declared on stationary traffic (drifts = %d)", got)
	}

	f.stream.SetPhase(1)
	run(4)
	st := ctrl.Stats()
	if st.Drifts == 0 {
		t.Fatal("drift never detected after phase shift")
	}
	if st.Retrains == 0 {
		t.Fatal("no retrain pushed after drift")
	}
	postF1 := run(3)
	if postF1 < preF1-10 {
		t.Errorf("closed loop did not recover: pre-drift F1 %.1f, post-retrain F1 %.1f", preF1, postF1)
	}
}

// drifted reports whether the controller's one member has drift detected
// and not yet answered by a retrain.
func drifted(c *Controller) bool { return c.f.Stats().Members[0].Drifted }

// TestControllerRetrainUnderTraffic exercises the deployment shape under
// the race detector: batches flow through ProcessBatch and Observe on
// several goroutines while another keeps pushing weights into the live
// shards with RetrainNow.
func TestControllerRetrainUnderTraffic(t *testing.T) {
	f := newLoopFixture(t, 4, 2)
	cfg := DefaultConfig()
	cfg.Window = 128
	cfg.RefWindows = 1
	cfg.RetrainRecords = 512
	ctrl, err := New(f.pipe, f.dep, f.inQ, f.stream.Labelled, cfg)
	if err != nil {
		t.Fatal(err)
	}

	const workers, pushes = 3, 5
	ins, _, _ := f.stream.NextBatch(512)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := make([]core.Decision, len(ins))
			for r := 0; r < 30; r++ {
				if _, err := f.pipe.ProcessBatch(ins, out); err != nil {
					t.Error(err)
					return
				}
				ctrl.Observe(out)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < pushes; i++ {
			if err := ctrl.RetrainNow(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	ctrl.Close()
	ctrl.Close() // idempotent
	if got := ctrl.Stats().Retrains; got != pushes {
		t.Fatalf("retrains = %d after %d operator pushes under traffic", got, pushes)
	}
	if err := ctrl.Err(); err != nil {
		t.Fatalf("retrain under traffic failed: %v", err)
	}

	// The pipeline must still serve traffic after the controller is closed.
	out := make([]core.Decision, len(ins))
	if _, err := f.pipe.ProcessBatch(ins, out); err != nil {
		t.Fatal(err)
	}
}

// TestControllerFailedRetrainRearms verifies a failed retrain does not end
// drift-driven retraining: the detector must be able to re-signal on the
// still-shifted distribution so a later retrain can succeed.
func TestControllerFailedRetrainRearms(t *testing.T) {
	f := newLoopFixture(t, 1, 5)
	failures := 2 // outlasts the pool's one top-up re-request within a retrain
	flaky := func(n int) []dataset.Record {
		if failures > 0 {
			failures--
			return nil // transient label-source outage
		}
		return f.stream.Labelled(n)
	}
	cfg := DefaultConfig()
	cfg.Window = 128
	cfg.RefWindows = 1
	cfg.RetrainRecords = 1000
	ctrl, err := New(f.pipe, f.dep, f.inQ, flaky, cfg)
	if err != nil {
		t.Fatal(err)
	}

	const batch = 512
	drive := func(rounds int) (retrainErr error) {
		for r := 0; r < rounds; r++ {
			ins, out, _ := f.stream.NextBatch(batch)
			if _, err := f.pipe.ProcessBatch(ins, out); err != nil {
				t.Fatal(err)
			}
			if ctrl.Observe(out) {
				if err := ctrl.RetrainNow(); err != nil {
					retrainErr = err
				}
			}
		}
		return retrainErr
	}
	drive(2) // establish reference
	f.stream.SetPhase(1)
	if err := drive(6); err == nil {
		t.Fatal("flaky source never made a retrain fail; test needs retuning")
	}
	if drifted(ctrl) {
		t.Error("failed retrain left the drift flag latched")
	}
	// The distribution is still shifted: the detector must fire again and
	// the retry must succeed.
	if err := drive(8); err != nil {
		t.Fatalf("retry after failed retrain errored: %v", err)
	}
	st := ctrl.Stats()
	if st.Drifts < 2 {
		t.Errorf("drift not re-detected after failed retrain (drifts = %d)", st.Drifts)
	}
	if st.Retrains == 0 {
		t.Error("no successful retrain after the transient failure")
	}
	if err := ctrl.Err(); err != nil {
		t.Errorf("Err() still reports a failure after a successful retrain: %v", err)
	}
}

// encodingPusher forwards to a pipeline, keeping the wire encoding of every
// graph pushed through it.
type encodingPusher struct {
	*pipeline.Pipeline
	pushed [][]byte
}

func (p *encodingPusher) UpdateWeights(g *mr.Graph) error {
	p.pushed = append(p.pushed, mr.Encode(g))
	return p.Pipeline.UpdateWeights(g)
}

// TestControllerIsOneMemberFleet: the controller is a view of the fleet loop,
// not a second loop. The same seeded world driven through New and through
// NewFleet + Register pushes byte-identical graphs, reports the same numbers
// and journals the same events.
func TestControllerIsOneMemberFleet(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Window = 256
	cfg.RetrainRecords = 1000
	cfg.Obs = obs.NewRegistry()

	// drive runs the drift episode; observe and retrain are the only calls
	// that differ between the two surfaces.
	drive := func(f *loopFixture, observe func([]core.Decision) bool, retrain func() error) {
		for r := 0; r < 10; r++ {
			if r == 3 {
				f.stream.SetPhase(1)
			}
			ins, out, _ := f.stream.NextBatch(1024)
			if _, err := f.pipe.ProcessBatch(ins, out); err != nil {
				t.Fatal(err)
			}
			if observe(out) {
				if err := retrain(); err != nil {
					t.Fatal(err)
				}
			}
		}
		// An operator retrain on top of the drift-driven ones, so the second
		// push also exercises the Compatible gate against the first.
		if err := retrain(); err != nil {
			t.Fatal(err)
		}
	}
	kinds := func(tr *obs.Tracer) []string {
		var out []string
		for _, e := range tr.Events() {
			out = append(out, fmt.Sprintf("%d:%s", e.Span, e.Kind))
		}
		return out
	}

	cf := newLoopFixture(t, 2, 5)
	cPush := &encodingPusher{Pipeline: cf.pipe}
	cCfg := cfg
	cCfg.Tracer = obs.NewTracer(256)
	ctrl, err := New(cPush, cf.dep, cf.inQ, cf.stream.Labelled, cCfg)
	if err != nil {
		t.Fatal(err)
	}
	drive(cf, ctrl.Observe, ctrl.RetrainNow)

	ff := newLoopFixture(t, 2, 5)
	fPush := &encodingPusher{Pipeline: ff.pipe}
	fCfg := cfg
	fCfg.Tracer = obs.NewTracer(256)
	fleet, err := NewFleet(ff.dep, ff.inQ, fCfg)
	if err != nil {
		t.Fatal(err)
	}
	id, err := fleet.Register("", fPush, ff.stream.Labelled)
	if err != nil {
		t.Fatal(err)
	}
	drive(ff, func(d []core.Decision) bool { return fleet.Observe(id, d) }, fleet.RetrainNow)

	if len(cPush.pushed) < 2 {
		t.Fatalf("controller pushed %d graphs, want the drift retrain and the operator retrain", len(cPush.pushed))
	}
	if len(cPush.pushed) != len(fPush.pushed) {
		t.Fatalf("controller pushed %d graphs, one-member fleet %d", len(cPush.pushed), len(fPush.pushed))
	}
	for i := range cPush.pushed {
		if !bytes.Equal(cPush.pushed[i], fPush.pushed[i]) {
			t.Errorf("push %d: controller and one-member fleet graphs differ", i)
		}
	}

	fs := fleet.Stats()
	want := fs.Members[0].Stats
	want.Retrains = fs.Retrains
	want.LastRetrainRecords = fs.LastPoolSize
	want.LastRetrainWorkers = fs.LastRetrainWorkers
	want.ReissuedTasks = fs.ReissuedTasks
	if got := ctrl.Stats(); got != want {
		t.Errorf("controller stats %+v, want member 0 plus the fleet aggregates %+v", got, want)
	}
	if want.Drifts == 0 || want.Retrains != len(fPush.pushed) || want.LastRetrainRecords != cfg.RetrainRecords {
		t.Errorf("stats carry no signal: %+v over %d pushes", want, len(fPush.pushed))
	}

	if got, want := kinds(cCfg.Tracer), kinds(fCfg.Tracer); !slices.Equal(got, want) {
		t.Errorf("trace differs:\ncontroller %v\nfleet      %v", got, want)
	}
}

// TestControllerReferenceRearms verifies the detector re-learns its
// reference after a retrain instead of flagging the recovered distribution
// as drifted forever.
func TestControllerReferenceRearms(t *testing.T) {
	f := newLoopFixture(t, 1, 8)
	cfg := DefaultConfig()
	cfg.Window = 128
	cfg.RefWindows = 1
	ctrl, err := New(f.pipe, f.dep, f.inQ, f.stream.Labelled, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const batch = 512
	drive := func(rounds int) {
		for r := 0; r < rounds; r++ {
			ins, out, _ := f.stream.NextBatch(batch)
			if _, err := f.pipe.ProcessBatch(ins, out); err != nil {
				t.Fatal(err)
			}
			if ctrl.Observe(out) {
				if err := ctrl.RetrainNow(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	drive(2)
	f.stream.SetPhase(1)
	drive(4)
	if !t.Failed() && ctrl.Stats().Retrains == 0 {
		t.Fatal("no retrain on drift")
	}
	if drifted(ctrl) {
		t.Error("drift flag still set after retrain re-armed the reference")
	}
	// Stationary post-recovery traffic must not keep declaring drift.
	before := ctrl.Stats().Drifts
	drive(4)
	after := ctrl.Stats().Drifts
	if after > before+1 {
		t.Errorf("detector kept firing on stationary recovered traffic: %d -> %d drifts", before, after)
	}
}

// TestControllerStatsRearmedAfterRetrain pins the stale-reference bugfix:
// after a retrain re-arms the detector, the reference profile and the
// statistics measured against it must read zero until a post-push reference
// is built — never the pre-drift profile.
func TestControllerStatsRearmedAfterRetrain(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ctrl := detectorController(t, DriftPSI)
	for w := 0; w < 2; w++ {
		ctrl.Observe(scoreDecisions(normalScores(rng, 256, 64, 4)))
	}
	fired := false
	for w := 0; w < 6 && !fired; w++ {
		fired = ctrl.Observe(scoreDecisions(normalScores(rng, 256, 160, 24)))
	}
	if !fired {
		t.Fatal("drift never detected; test needs retuning")
	}
	st := ctrl.Stats()
	if st.RefMeanScore == 0 || st.LastPSI == 0 {
		t.Fatalf("pre-retrain stats carry no signal (ref mean %.1f, PSI %.3f); test needs retuning",
			st.RefMeanScore, st.LastPSI)
	}
	if err := ctrl.RetrainNow(); err != nil {
		t.Fatal(err)
	}
	st = ctrl.Stats()
	if st.RefFlagRate != 0 || st.RefMeanScore != 0 || st.LastPSI != 0 {
		t.Errorf("stale reference reported as current after re-arm: ref flag %.3f, ref mean %.1f, PSI %.3f",
			st.RefFlagRate, st.RefMeanScore, st.LastPSI)
	}
	// Cumulative counters must survive the re-arm.
	if st.Windows == 0 || st.Drifts == 0 || st.Sampled == 0 {
		t.Errorf("cumulative counters lost on re-arm: %+v", st)
	}
}

// --- PSI drift statistic ---

// nopPusher absorbs weight pushes.
type nopPusher struct{}

func (nopPusher) UpdateWeights(*mr.Graph) error { return nil }
func (nopPusher) RollbackWeights()              {}

// stubModel is a minimal Deployable for detector-only tests. Lower returns
// a fresh copy of a tiny valid graph: the push gate (graphcheck) verifies
// every lowering, so even stubs must produce something verifiable.
type stubModel struct{}

// stubGraph builds the minimal graph that passes graphcheck: one int8
// input reduced to one output lane. Each call returns a distinct pointer
// with identical structure, so repeated pushes stay Compatible.
func stubGraph() *mr.Graph {
	b := mr.NewBuilder("stub")
	b.Output(b.Reduce(mr.RAdd, b.Input("x", 4)))
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

func (stubModel) Name() string                             { return "stub" }
func (stubModel) NumFeatures() int                         { return 1 }
func (stubModel) Fit([]dataset.Record) error               { return nil }
func (stubModel) Lower(fixed.Quantizer) (*mr.Graph, error) { return stubGraph(), nil }
func (stubModel) Score(tensor.Vec) float64                 { return 0 }
func (stubModel) ReferenceDecision(fixed.Quantizer, tensor.Vec) (int32, error) {
	return 0, nil
}

// detectorController builds a controller wired to stubs, for feeding
// synthetic decision streams straight into the drift detector; opts adjust
// the configuration last.
func detectorController(t *testing.T, stat DriftStatistic, opts ...func(*Config)) *Controller {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Statistic = stat
	cfg.SampleEvery = 1
	cfg.Window = 256
	cfg.RefWindows = 2
	cfg.DriftPatience = 2
	for _, o := range opts {
		o(&cfg)
	}
	src := func(n int) []dataset.Record { return make([]dataset.Record, n) }
	ctrl, err := New(nopPusher{}, stubModel{}, fixed.NewQuantizer(1), src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ctrl
}

// scoreDecisions wraps synthetic model scores as forwarded (never flagged)
// decisions, so the flag-rate detector arm stays silent and only the score
// distribution carries signal.
func scoreDecisions(scores []int32) []core.Decision {
	out := make([]core.Decision, len(scores))
	for i, s := range scores {
		out[i] = core.Decision{Verdict: core.Forward, MLScore: s}
	}
	return out
}

// normalScores draws n integer scores from N(mean, sigma).
func normalScores(rng *rand.Rand, n int, mean, sigma float64) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(mean + sigma*rng.NormFloat64())
	}
	return out
}

// TestPSIDetectsVarianceWidening is the satellite acceptance test: a
// symmetric widening of the score distribution keeps the mean and the flag
// rate unchanged — invisible to the mean-shift detector — but must trip the
// PSI statistic.
func TestPSIDetectsVarianceWidening(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	psiCtrl := detectorController(t, DriftPSI)
	meanCtrl := detectorController(t, DriftMeanShift)

	feed := func(c *Controller, scores []int32) bool {
		return c.Observe(scoreDecisions(scores))
	}

	// Establish the reference on tight scores around 64.
	for w := 0; w < 4; w++ {
		scores := normalScores(rng, 256, 64, 8)
		feed(psiCtrl, scores)
		feed(meanCtrl, scores)
	}
	if drifted(psiCtrl) || drifted(meanCtrl) {
		t.Fatal("drift declared during reference establishment")
	}

	// Symmetric variance widening: same mean 64, sigma 8 -> 40.
	psiFired, meanFired := false, false
	for w := 0; w < 8; w++ {
		scores := normalScores(rng, 256, 64, 40)
		psiFired = feed(psiCtrl, scores) || psiFired
		meanFired = feed(meanCtrl, scores) || meanFired
	}
	if !psiFired {
		t.Errorf("PSI detector missed symmetric variance widening (last PSI %.3f)", psiCtrl.Stats().LastPSI)
	}
	if meanFired {
		st := meanCtrl.Stats()
		t.Errorf("mean-shift detector unexpectedly fired (mean %.1f vs ref %.1f) — widening is no longer mean-preserving, retune the test",
			st.LastMeanScore, st.RefMeanScore)
	}
	if psiCtrl.Stats().LastPSI <= psiCtrl.f.cfg.PSIThreshold {
		t.Errorf("post-widening PSI %.3f not above threshold %.3f", psiCtrl.Stats().LastPSI, psiCtrl.f.cfg.PSIThreshold)
	}
}

// TestPSIStationaryQuiet: on a stationary score stream the PSI detector
// must not fire.
func TestPSIStationaryQuiet(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ctrl := detectorController(t, DriftPSI)
	for w := 0; w < 16; w++ {
		if ctrl.Observe(scoreDecisions(normalScores(rng, 256, 64, 8))) {
			t.Fatalf("PSI fired on stationary traffic at window %d (PSI %.3f)", w, ctrl.Stats().LastPSI)
		}
	}
}

// TestPSIDiscreteScores: category-index scores (KMeans) must bin into the
// deduplicated quantile edges and still detect a category-mix shift.
func TestPSIDiscreteScores(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	ctrl := detectorController(t, DriftPSI)
	classMix := func(n int, weights []float64) []int32 {
		out := make([]int32, n)
		for i := range out {
			r := rng.Float64()
			acc := 0.0
			for c, w := range weights {
				acc += w
				if r < acc {
					out[i] = int32(c)
					break
				}
			}
		}
		return out
	}
	base := []float64{0.4, 0.3, 0.15, 0.1, 0.05}
	for w := 0; w < 4; w++ {
		if ctrl.Observe(scoreDecisions(classMix(256, base))) {
			t.Fatal("PSI fired while the mix was stationary")
		}
	}
	shifted := []float64{0.05, 0.1, 0.15, 0.3, 0.4}
	fired := false
	for w := 0; w < 8; w++ {
		fired = ctrl.Observe(scoreDecisions(classMix(256, shifted))) || fired
	}
	if !fired {
		t.Errorf("PSI missed the category-mix shift (last PSI %.3f)", ctrl.Stats().LastPSI)
	}
}
