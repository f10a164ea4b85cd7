package controlplane

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"taurus/internal/compiler"
	"taurus/internal/core"
	"taurus/internal/dataset"
	"taurus/internal/fixed"
	mr "taurus/internal/mapreduce"
	"taurus/internal/ml"
	"taurus/internal/model"
	"taurus/internal/obs"
	"taurus/internal/pipeline"
	"taurus/internal/trafficgen"
)

// fleetFixture is one shared deployment fanned out to n member pipelines,
// each serving its own independently seeded drifting stream.
type fleetFixture struct {
	fleet   *Fleet
	pipes   []*pipeline.Pipeline
	streams []*trafficgen.DriftingStream
	dep     model.Deployable
	inQ     fixed.Quantizer
}

func newFleetFixture(t *testing.T, members, shards, epochs int, cfg Config) *fleetFixture {
	t.Helper()
	streams, err := trafficgen.NewDriftingStreams(dataset.DefaultDriftConfig(), 31, 128, members)
	if err != nil {
		t.Fatal(err)
	}
	// Deployment: train once on labels pooled across the members' pre-drift
	// worlds, then install the same graph on every member's pipeline.
	var recs []dataset.Record
	for _, s := range streams {
		recs = append(recs, s.Labelled(1500)...)
	}
	rng := rand.New(rand.NewSource(31))
	net := ml.NewDNN([]int{6, 12, 6, 3, 1}, ml.ReLU, ml.Sigmoid, rng)
	dep, err := model.NewDNN(net, model.DNNConfig{Epochs: epochs, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	inQ := model.InputQuantizerFor(recs)
	for i := 0; i < 3; i++ {
		if err := dep.Fit(recs); err != nil {
			t.Fatal(err)
		}
	}
	g, err := dep.Lower(inQ)
	if err != nil {
		t.Fatal(err)
	}
	fl, err := NewFleet(dep, inQ, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pipes := make([]*pipeline.Pipeline, members)
	for i := range pipes {
		pl, err := pipeline.New(pipeline.Config{Shards: shards, Device: core.DefaultConfig(6)})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(pl.Close)
		if err := pl.LoadModel(g, inQ, compiler.Options{}); err != nil {
			t.Fatal(err)
		}
		id, err := fl.Register("", pl, streams[i].Labelled)
		if err != nil {
			t.Fatal(err)
		}
		if id != i {
			t.Fatalf("member id = %d, want %d", id, i)
		}
		pipes[i] = pl
	}
	return &fleetFixture{fleet: fl, pipes: pipes, streams: streams, dep: dep, inQ: inQ}
}

// round serves one batch on every member and feeds each member's decisions
// to its fleet detector; reports whether any member newly drifted.
func (f *fleetFixture) round(t *testing.T, batch int) bool {
	t.Helper()
	drifted := false
	for i, pl := range f.pipes {
		ins, out, _ := f.streams[i].NextBatch(batch)
		if _, err := pl.ProcessBatch(ins, out); err != nil {
			t.Fatal(err)
		}
		if f.fleet.Observe(i, out) {
			drifted = true
		}
	}
	return drifted
}

func TestFleetValidation(t *testing.T) {
	src := func(n int) []dataset.Record { return make([]dataset.Record, n) }
	if _, err := NewFleet(nil, fixed.NewQuantizer(1), Config{}); err == nil {
		t.Error("nil model accepted")
	}
	if _, err := NewFleet(stubModel{}, fixed.Quantizer{}, Config{}); err == nil {
		t.Error("zero input quantiser accepted")
	}
	fl, err := NewFleet(stubModel{}, fixed.NewQuantizer(1), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fl.Register("a", nil, src); err == nil {
		t.Error("nil pusher accepted")
	}
	if _, err := fl.Register("a", nopPusher{}, nil); err == nil {
		t.Error("nil source accepted")
	}
	if err := fl.RetrainNow(); err == nil {
		t.Error("retrain with no members accepted")
	}
	if _, err := fl.Register("a", nopPusher{}, src); err != nil {
		t.Errorf("valid registration failed: %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Error("Observe on an unregistered member id did not panic")
		}
	}()
	fl.Observe(7, nil)
}

// TestFleetRefusesUndetectableDrift: a NaN or +Inf drift threshold is never
// exceeded and an undefined Statistic silently runs mean-shift, so each would
// turn drift detection off without a word. NewFleet — and New, built on it —
// refuses them with an error naming the field.
func TestFleetRefusesUndetectableDrift(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	q := fixed.NewQuantizer(1)
	for _, c := range []struct {
		field string
		cfg   Config
	}{
		{"FlagDelta", Config{FlagDelta: nan}},
		{"FlagDelta", Config{FlagDelta: inf}},
		{"ScoreDelta", Config{ScoreDelta: nan}},
		{"ScoreDelta", Config{ScoreDelta: inf}},
		{"PSIThreshold", Config{PSIThreshold: nan}},
		{"PSIThreshold", Config{PSIThreshold: inf}},
		{"KSThreshold", Config{KSThreshold: nan}},
		{"KSThreshold", Config{KSThreshold: inf}},
		{"Statistic", Config{Statistic: DriftKS + 1}},
		{"Statistic", Config{Statistic: -1}},
	} {
		if _, err := NewFleet(stubModel{}, q, c.cfg); err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("NewFleet(%s bad): err = %v, want a refusal naming %s", c.field, err, c.field)
		}
	}
	src := func(n int) []dataset.Record { return make([]dataset.Record, n) }
	if _, err := New(nopPusher{}, stubModel{}, q, src, Config{KSThreshold: nan}); err == nil || !strings.Contains(err.Error(), "KSThreshold") {
		t.Errorf("New(KSThreshold NaN): err = %v, want a refusal naming KSThreshold", err)
	}
	// Zero, negative and -Inf thresholds still select the defaults.
	for _, cfg := range []Config{{}, {FlagDelta: -1}, {ScoreDelta: math.Inf(-1)}, {Statistic: DriftPSI}} {
		if _, err := NewFleet(stubModel{}, q, cfg); err != nil {
			t.Errorf("NewFleet(%+v) = %v, want the defaults", cfg, err)
		}
	}
}

// TestFleetDriftOnOneMemberRetrainsAll is the core fleet contract: drift on
// a single member triggers one shared retrain pooled from the drifted
// member's labels, the push lands on every member, every detector re-arms,
// and each member's post-push scores are bit-identical to the model's
// quantised reference decision.
func TestFleetDriftOnOneMemberRetrainsAll(t *testing.T) {
	cfg := DefaultConfig()
	// Windows span several traffic rounds: the per-round flow redraw makes
	// single-round flag rates noisy, so short windows would trip the
	// detector on stationary members.
	cfg.Window = 256
	cfg.RefWindows = 2
	cfg.FlagDelta = 0.15
	cfg.ScoreDelta = 20
	cfg.RetrainRecords = 2000
	f := newFleetFixture(t, 3, 2, 8, cfg)
	const batch = 512

	// Establish every member's reference on stationary traffic.
	for r := 0; r < 4; r++ {
		if f.round(t, batch) {
			t.Fatal("drift declared on stationary traffic")
		}
	}

	// Drift member 0 only; its detector must fire while the others stay
	// quiet, and the answer is one fleet-wide retrain.
	f.streams[0].SetPhase(1)
	fired := false
	for r := 0; r < 10 && !fired; r++ {
		fired = f.round(t, batch)
	}
	if !fired {
		t.Fatal("drift on member 0 never detected")
	}
	st := f.fleet.Stats()
	if !st.Members[0].Drifted || st.Members[1].Drifted || st.Members[2].Drifted {
		t.Fatalf("drift flags = [%v %v %v], want only member 0",
			st.Members[0].Drifted, st.Members[1].Drifted, st.Members[2].Drifted)
	}
	if err := f.fleet.RetrainNow(); err != nil {
		t.Fatal(err)
	}
	st = f.fleet.Stats()
	if st.Retrains != 1 {
		t.Fatalf("retrains = %d, want 1", st.Retrains)
	}
	if st.LastPoolSize != cfg.RetrainRecords {
		t.Errorf("pool size = %d, want %d", st.LastPoolSize, cfg.RetrainRecords)
	}
	// Only the drifted member pools labels...
	if got := st.Members[0].PooledRecords; got != cfg.RetrainRecords {
		t.Errorf("drifted member pooled %d records, want all %d", got, cfg.RetrainRecords)
	}
	for i := 1; i < 3; i++ {
		if got := st.Members[i].PooledRecords; got != 0 {
			t.Errorf("undrifted member %d pooled %d records, want 0", i, got)
		}
	}
	// ...and every member's detector re-arms with zeroed reference stats.
	for i, m := range st.Members {
		if m.Drifted {
			t.Errorf("member %d still latched drifted after the fleet retrain", i)
		}
		if m.RefFlagRate != 0 || m.RefMeanScore != 0 || m.LastPSI != 0 || m.LastKS != 0 {
			t.Errorf("member %d reports a stale reference after re-arm: %+v", i, m.Stats)
		}
	}

	// Parity: the push must have landed on every member — each member's
	// non-bypassed data-plane score equals the model's quantised reference,
	// bit for bit, on every shard.
	for i, pl := range f.pipes {
		ins, out, _ := f.streams[i].NextBatch(768)
		if _, err := pl.ProcessBatch(ins, out); err != nil {
			t.Fatal(err)
		}
		checked := 0
		for j := range out {
			if out[j].Bypassed {
				continue
			}
			want, err := f.dep.ReferenceDecision(f.inQ, ins[j].Features)
			if err != nil {
				t.Fatal(err)
			}
			if out[j].MLScore != want {
				t.Fatalf("member %d packet %d: data plane score %d != reference %d",
					i, j, out[j].MLScore, want)
			}
			checked++
		}
		if checked < 700 {
			t.Fatalf("member %d: only %d packets reached the model", i, checked)
		}
		for s, ss := range pl.ShardStats() {
			if ss.MLInferences == 0 {
				t.Errorf("member %d shard %d served no inferences — parity not proven there", i, s)
			}
		}
	}
}

// TestFleetPoolWeighting: when several members drift, each contributes to
// the pooled retrain in proportion to the traffic it sampled since the last
// retrain.
func TestFleetPoolWeighting(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Window = 256
	cfg.RefWindows = 2
	cfg.FlagDelta = 0.15
	cfg.ScoreDelta = 20
	cfg.RetrainRecords = 1200
	f := newFleetFixture(t, 2, 1, 2, cfg)
	const batch = 512
	for r := 0; r < 4; r++ {
		f.round(t, batch)
	}
	// Drift both members, but member 0 serves twice the traffic.
	f.streams[0].SetPhase(1)
	f.streams[1].SetPhase(1)
	bothDrifted := func() bool {
		st := f.fleet.Stats()
		return st.Members[0].Drifted && st.Members[1].Drifted
	}
	for r := 0; r < 16 && !bothDrifted(); r++ {
		f.round(t, batch)
	}
	for k := 0; k < 8; k++ { // extra traffic on member 0 only
		ins, out, _ := f.streams[0].NextBatch(batch)
		if _, err := f.pipes[0].ProcessBatch(ins, out); err != nil {
			t.Fatal(err)
		}
		f.fleet.Observe(0, out)
	}
	st := f.fleet.Stats()
	if !st.Members[0].Drifted || !st.Members[1].Drifted {
		t.Fatalf("both members should have drifted (flags: %v %v)",
			st.Members[0].Drifted, st.Members[1].Drifted)
	}
	if err := f.fleet.RetrainNow(); err != nil {
		t.Fatal(err)
	}
	st = f.fleet.Stats()
	p0, p1 := st.Members[0].PooledRecords, st.Members[1].PooledRecords
	if p0+p1 != st.LastPoolSize || st.LastPoolSize != cfg.RetrainRecords {
		t.Errorf("pool accounting: %d + %d != %d", p0, p1, st.LastPoolSize)
	}
	if p0 <= p1 {
		t.Errorf("busier member pooled %d records vs quieter member's %d — weighting lost", p0, p1)
	}
}

// recordPusher records every pushed graph and can fail on demand.
type recordPusher struct {
	mu     sync.Mutex
	graphs []*mr.Graph
	failAt int // fail the Nth push (1-based); 0 = never
}

func (p *recordPusher) UpdateWeights(g *mr.Graph) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.failAt > 0 && len(p.graphs)+1 == p.failAt {
		p.graphs = append(p.graphs, nil)
		return errors.New("injected push failure")
	}
	p.graphs = append(p.graphs, g)
	return nil
}

func (p *recordPusher) pushed() []*mr.Graph {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]*mr.Graph(nil), p.graphs...)
}

// liveModel is a stub whose Lower returns a distinct graph each call, so
// pushes are distinguishable by pointer while staying structurally
// compatible across retrains (the push gate diffs consecutive lowerings).
type liveModel struct{ stubModel }

func (liveModel) Lower(fixed.Quantizer) (*mr.Graph, error) { return stubGraph(), nil }

// TestFleetPushFailureRollsBack: a member rejecting a push must not leave
// the fleet serving a mix of models — members already updated are rolled
// back to the previous graph, the error surfaces, and a later retrain
// succeeds everywhere.
func TestFleetPushFailureRollsBack(t *testing.T) {
	src := func(n int) []dataset.Record { return make([]dataset.Record, n) }
	fl, err := NewFleet(liveModel{}, fixed.NewQuantizer(1), Config{})
	if err != nil {
		t.Fatal(err)
	}
	good := &recordPusher{}
	flaky := &recordPusher{failAt: 2} // accepts the first push, rejects the second
	if _, err := fl.Register("good", good, src); err != nil {
		t.Fatal(err)
	}
	if _, err := fl.Register("flaky", flaky, src); err != nil {
		t.Fatal(err)
	}

	if err := fl.RetrainNow(); err != nil {
		t.Fatalf("first retrain failed: %v", err)
	}
	g1 := good.pushed()[0]

	if err := fl.RetrainNow(); err == nil {
		t.Fatal("second retrain should have surfaced the injected push failure")
	}
	if fl.Err() == nil {
		t.Error("Err() empty after failed push")
	}
	got := good.pushed()
	if len(got) != 3 || got[2] != g1 {
		t.Fatalf("good member saw %d pushes, last == first push: %v — rollback missing", len(got), len(got) == 3 && got[2] == g1)
	}
	if st := fl.Stats(); st.Retrains != 1 {
		t.Errorf("failed cycle counted as a retrain (retrains = %d)", st.Retrains)
	}

	// The flaky member accepts again: the fleet must converge on retry.
	if err := fl.RetrainNow(); err != nil {
		t.Fatalf("retry after rollback failed: %v", err)
	}
	got = good.pushed()
	fGot := flaky.pushed()
	if got[len(got)-1] != fGot[len(fGot)-1] {
		t.Error("members diverged after the retry push")
	}
	if st := fl.Stats(); st.Retrains != 2 {
		t.Errorf("retrains = %d, want 2", st.Retrains)
	}
}

// auditedPusher is a recordPusher whose post-push audit fails after its
// failRecheck-th push (1-based; 0 = never).
type auditedPusher struct {
	recordPusher
	failRecheck int
}

func (p *auditedPusher) RecheckTape() error {
	if n := len(p.pushed()); n == p.failRecheck {
		return errors.New("injected recheck failure")
	}
	return nil
}

// TestFleetRecheckFailureRollsBack: a member whose post-push tape audit fails
// must not leave the rejected weights serving anywhere — every member is
// rolled back to the previous push exactly as after a refused UpdateWeights,
// what the members serve agrees with the fleet's record of it, the error
// names the member, and the next retrain runs again.
func TestFleetRecheckFailureRollsBack(t *testing.T) {
	tracer := obs.NewTracer(256)
	fl, err := NewFleet(liveModel{}, fixed.NewQuantizer(1), Config{Tracer: tracer, Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	good := &auditedPusher{}
	picky := &auditedPusher{failRecheck: 2} // audits the first push clean, fails the second
	for name, p := range map[string]*auditedPusher{"good": good, "picky": picky} {
		if _, err := fl.Register(name, p, labelSrc); err != nil {
			t.Fatal(err)
		}
	}
	if err := fl.RetrainNow(); err != nil {
		t.Fatalf("first retrain failed: %v", err)
	}
	g1 := good.pushed()[0]

	err = fl.RetrainNow()
	if err == nil || !strings.Contains(err.Error(), `"picky"`) || !strings.Contains(err.Error(), "recheck") {
		t.Fatalf("second retrain = %v, want the recheck failure naming member picky", err)
	}
	for name, p := range map[string]*auditedPusher{"good": good, "picky": picky} {
		got := p.pushed()
		if len(got) != 3 || got[2] != g1 {
			t.Errorf("member %s saw %d pushes and does not end on the first push's graph: the rejected weights keep serving", name, len(got))
		}
	}
	rolledBack := false
	for _, e := range tracer.Events() {
		if e.Kind == "push.rollback" && strings.Contains(e.Detail, `member="picky"`) && strings.Contains(e.Detail, "rolled_back=2") {
			rolledBack = true
		}
	}
	if !rolledBack {
		t.Error("no push.rollback event names member picky and both members")
	}
	if st := fl.Stats(); st.Retrains != 1 {
		t.Errorf("failed cycle counted as a retrain (retrains = %d)", st.Retrains)
	}

	// The loop is not over: the next retrain pushes again and converges.
	if err := fl.RetrainNow(); err != nil {
		t.Fatalf("retrain after the rollback failed: %v", err)
	}
	if g, p := good.pushed(), picky.pushed(); g[len(g)-1] != p[len(p)-1] || g[len(g)-1] == g1 {
		t.Error("members did not converge on a fresh graph after the retry")
	}
	if st := fl.Stats(); st.Retrains != 2 {
		t.Errorf("retrains = %d, want 2", st.Retrains)
	}

	// Before the first fleet push there is nothing to roll back to: the error
	// says which members already serve the new model.
	first, err := NewFleet(liveModel{}, fixed.NewQuantizer(1), Config{Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := first.Register("only", &auditedPusher{failRecheck: 1}, labelSrc); err != nil {
		t.Fatal(err)
	}
	if err := first.RetrainNow(); err == nil || !strings.Contains(err.Error(), "already serve the new model") {
		t.Errorf("recheck failure on the first fleet push = %v, want the members-already-serve error", err)
	}
}

// TestFleetCatchUpIsRechecked: a late joiner's catch-up push is audited like
// every fan-out push. A joiner whose tape fails the audit after the catch-up
// cannot join — it is tombstoned, the error names it, and later retrains
// leave it alone — and one whose audit passes joins with the pass journalled.
func TestFleetCatchUpIsRechecked(t *testing.T) {
	tracer := obs.NewTracer(256)
	fl, err := NewFleet(liveModel{}, fixed.NewQuantizer(1), Config{Tracer: tracer, Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	founder := &auditedPusher{}
	if _, err := fl.Register("founder", founder, labelSrc); err != nil {
		t.Fatal(err)
	}
	if err := fl.RetrainNow(); err != nil {
		t.Fatal(err)
	}

	broken := &auditedPusher{failRecheck: 1} // fails the audit of its catch-up push
	id, err := fl.Register("broken", broken, labelSrc)
	if err == nil || !strings.Contains(err.Error(), `"broken"`) || !strings.Contains(err.Error(), "recheck") {
		t.Fatalf("Register of a joiner whose audit fails = %v, want the recheck failure naming it", err)
	}
	if !fl.Stats().Members[id].Deregistered {
		t.Error("a joiner whose audit failed was not tombstoned")
	}
	good := &auditedPusher{}
	if _, err := fl.Register("good", good, labelSrc); err != nil {
		t.Fatal(err)
	}
	var verdicts []string
	for _, e := range tracer.Events() {
		if strings.HasPrefix(e.Kind, "tapecheck.") && !strings.Contains(e.Detail, `member="founder"`) {
			verdicts = append(verdicts, e.Kind+" "+e.Detail[:strings.Index(e.Detail, " ")])
		}
	}
	if want := []string{`tapecheck.fail member="broken"`, `tapecheck.pass member="good"`}; !slices.Equal(verdicts, want) {
		t.Errorf("catch-up audits journalled %q, want %q", verdicts, want)
	}

	if err := fl.RetrainNow(); err != nil {
		t.Fatal(err)
	}
	if got := len(broken.pushed()); got != 1 {
		t.Errorf("tombstoned joiner has %d pushes, want the catch-up only", got)
	}
	if f, g := founder.pushed(), good.pushed(); len(g) != 2 || g[1] != f[len(f)-1] {
		t.Error("the audited joiner does not serve the fleet's graph after the next retrain")
	}
}

// TestFleetBackgroundRetrainUnderTraffic exercises the deployment shape
// under the race detector: every member serves batches on its own goroutine
// while the shared background worker retrains and pushes to all of them.
func TestFleetBackgroundRetrainUnderTraffic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Window = 128
	cfg.RefWindows = 1
	cfg.RetrainRecords = 512
	cfg.RetrainInterval = time.Millisecond // force pushes regardless of drift
	f := newFleetFixture(t, 3, 2, 2, cfg)
	f.fleet.Start()
	f.fleet.Start() // second Start must be a harmless no-op

	for _, s := range f.streams {
		s.SetPhase(1) // drifted traffic so member Observes also kick
	}
	var wg sync.WaitGroup
	for i := range f.pipes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ins, _, _ := f.streams[i].NextBatch(512)
			out := make([]core.Decision, len(ins))
			for r := 0; r < 25; r++ {
				if _, err := f.pipes[i].ProcessBatch(ins, out); err != nil {
					t.Error(err)
					return
				}
				f.fleet.Observe(i, out)
			}
		}(i)
	}
	wg.Wait()

	deadline := time.Now().Add(5 * time.Second)
	for f.fleet.Stats().Retrains == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	f.fleet.Close()
	f.fleet.Close() // idempotent
	if err := f.fleet.Err(); err != nil {
		t.Fatalf("background fleet retrain failed: %v", err)
	}
	if got := f.fleet.Stats().Retrains; got == 0 {
		t.Fatal("background worker never retrained")
	}
	// Every member pipeline must still serve traffic afterwards.
	for i, pl := range f.pipes {
		ins, out, _ := f.streams[i].NextBatch(256)
		if _, err := pl.ProcessBatch(ins, out); err != nil {
			t.Fatalf("member %d: %v", i, err)
		}
	}
}

// TestFleetSlowSourceSkipped: the backpressure guard. A member whose label
// source blocks past Config.SourceDeadline is skipped for that retrain —
// its share of the pool falls to the members after it, its SourceTimeouts
// counter increments, and the shared loop completes instead of stalling.
func TestFleetSlowSourceSkipped(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SourceDeadline = 25 * time.Millisecond
	cfg.RetrainRecords = 64
	fl, err := NewFleet(stubModel{}, fixed.NewQuantizer(1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	slow := func(n int) []dataset.Record {
		<-release
		return make([]dataset.Record, n)
	}
	fast := func(n int) []dataset.Record { return make([]dataset.Record, n) }
	if _, err := fl.Register("laggy", nopPusher{}, slow); err != nil {
		t.Fatal(err)
	}
	if _, err := fl.Register("prompt", nopPusher{}, fast); err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() { done <- fl.RetrainNow() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("retrain with one laggy member failed: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("retrain stalled on the laggy member despite the deadline")
	}

	st := fl.Stats()
	if got := st.Members[0].SourceTimeouts; got != 1 {
		t.Errorf("laggy member SourceTimeouts = %d, want 1", got)
	}
	if got := st.Members[1].SourceTimeouts; got != 0 {
		t.Errorf("prompt member SourceTimeouts = %d, want 0", got)
	}
	if got := st.Members[0].PooledRecords; got != 0 {
		t.Errorf("laggy member contributed %d records, want 0", got)
	}
	// The laggy member's share fell to the prompt member.
	if got := st.Members[1].PooledRecords; got != cfg.RetrainRecords {
		t.Errorf("prompt member contributed %d records, want the whole pool %d",
			got, cfg.RetrainRecords)
	}
	if st.LastPoolSize != cfg.RetrainRecords {
		t.Errorf("pool size = %d, want %d", st.LastPoolSize, cfg.RetrainRecords)
	}

	// Once the source recovers, the member pools again; the timeout counter
	// records history instead of blacklisting. Until the abandoned call's
	// goroutine drains, the member stays skipped (never invoked
	// concurrently with itself), so poll through retrains until it
	// contributes.
	close(release)
	deadline := time.Now().Add(5 * time.Second)
	for fl.Stats().Members[0].PooledRecords == 0 {
		if time.Now().After(deadline) {
			t.Fatal("recovered member never pooled again")
		}
		if err := fl.RetrainNow(); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	before := fl.Stats().Members[0].SourceTimeouts
	if err := fl.RetrainNow(); err != nil {
		t.Fatal(err)
	}
	st = fl.Stats()
	if got := st.Members[0].SourceTimeouts; got != before {
		t.Errorf("recovered member's SourceTimeouts still rising: %d -> %d", before, got)
	}
	if got := st.Members[0].PooledRecords; got == 0 {
		t.Error("recovered member contributed nothing to the latest retrain")
	}
}

// TestFleetAllSourcesStalled: when every member times out the retrain
// fails cleanly (no records) rather than hanging, and the error is
// retained.
func TestFleetAllSourcesStalled(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SourceDeadline = 10 * time.Millisecond
	fl, err := NewFleet(stubModel{}, fixed.NewQuantizer(1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	defer close(release)
	slow := func(n int) []dataset.Record {
		<-release
		return make([]dataset.Record, n)
	}
	if _, err := fl.Register("a", nopPusher{}, slow); err != nil {
		t.Fatal(err)
	}
	if err := fl.RetrainNow(); err == nil {
		t.Fatal("retrain with every source stalled should fail")
	}
	if fl.Err() == nil {
		t.Error("Err() lost the failed retrain")
	}
	if got := fl.Stats().Members[0].SourceTimeouts; got != 1 {
		t.Errorf("SourceTimeouts = %d, want 1", got)
	}
}

// TestFleetSlowSourceLastSkipped: registration order must not matter — when
// the member that times out is the *last* in the pool (the one that would
// normally absorb the rounding remainder), the top-up pass re-draws its
// share from the members that answered instead of silently shrinking the
// pool.
func TestFleetSlowSourceLastSkipped(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SourceDeadline = 25 * time.Millisecond
	cfg.RetrainRecords = 64
	fl, err := NewFleet(stubModel{}, fixed.NewQuantizer(1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	defer close(release)
	slow := func(n int) []dataset.Record {
		<-release
		return make([]dataset.Record, n)
	}
	fast := func(n int) []dataset.Record { return make([]dataset.Record, n) }
	if _, err := fl.Register("prompt", nopPusher{}, fast); err != nil {
		t.Fatal(err)
	}
	if _, err := fl.Register("laggy", nopPusher{}, slow); err != nil {
		t.Fatal(err)
	}
	if err := fl.RetrainNow(); err != nil {
		t.Fatalf("retrain with the last member laggy failed: %v", err)
	}
	st := fl.Stats()
	if got := st.Members[1].SourceTimeouts; got != 1 {
		t.Errorf("laggy member SourceTimeouts = %d, want 1", got)
	}
	if got := st.Members[0].PooledRecords; got != cfg.RetrainRecords {
		t.Errorf("prompt member contributed %d records, want the whole pool %d", got, cfg.RetrainRecords)
	}
	if st.LastPoolSize != cfg.RetrainRecords {
		t.Errorf("pool size = %d, want %d — the laggy member's share was lost", st.LastPoolSize, cfg.RetrainRecords)
	}
}

// TestFleetSourceNeverConcurrent: a source that is slow (but not stuck)
// must not be invoked concurrently with its own abandoned call — the
// member stays skipped while the old call runs, then pools again.
func TestFleetSourceNeverConcurrent(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SourceDeadline = 20 * time.Millisecond
	cfg.RetrainRecords = 64
	fl, err := NewFleet(stubModel{}, fixed.NewQuantizer(1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	inside, maxInside := 0, 0
	release := make(chan struct{})
	slow := func(n int) []dataset.Record {
		mu.Lock()
		inside++
		if inside > maxInside {
			maxInside = inside
		}
		mu.Unlock()
		<-release
		mu.Lock()
		inside--
		mu.Unlock()
		return make([]dataset.Record, n)
	}
	fast := func(n int) []dataset.Record { return make([]dataset.Record, n) }
	if _, err := fl.Register("laggy", nopPusher{}, slow); err != nil {
		t.Fatal(err)
	}
	if _, err := fl.Register("prompt", nopPusher{}, fast); err != nil {
		t.Fatal(err)
	}
	// Two retrains while the first slow call is still in flight: the second
	// must skip the member without a second concurrent invocation.
	if err := fl.RetrainNow(); err != nil {
		t.Fatal(err)
	}
	if err := fl.RetrainNow(); err != nil {
		t.Fatal(err)
	}
	close(release)
	st := fl.Stats()
	if got := st.Members[0].SourceTimeouts; got != 2 {
		t.Errorf("laggy member SourceTimeouts = %d, want 2 (one per skipped retrain)", got)
	}
	mu.Lock()
	defer mu.Unlock()
	if maxInside != 1 {
		t.Errorf("label source ran %d times concurrently, want at most 1", maxInside)
	}
}
