package controlplane

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

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

// TestFleetRegisterRefusesDuplicateName: a member's detector counters are
// registry instruments labelled {member=<name>}, and the registry hands back
// the existing instrument for a name and labels it has seen, so two members
// under one name would share — and corrupt — one detector's counters. A
// second registration of a name is refused before anything is bound, whether
// the name is explicit or a default "member-N" that an earlier explicit name
// already took.
func TestFleetRegisterRefusesDuplicateName(t *testing.T) {
	src := func(n int) []dataset.Record { return make([]dataset.Record, n) }
	for _, names := range [][2]string{{"a", "a"}, {"member-1", ""}} {
		reg := obs.NewRegistry()
		fl, err := NewFleet(stubModel{}, fixed.NewQuantizer(1), Config{Obs: reg})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fl.Register(names[0], nopPusher{}, src); err != nil {
			t.Fatal(err)
		}
		series := reg.Snapshot()
		if _, err := fl.Register(names[1], nopPusher{}, src); err == nil || !strings.Contains(err.Error(), names[0]) {
			t.Errorf("Register(%q) after Register(%q) = %v, want a refusal naming %q", names[1], names[0], err, names[0])
		}
		if got := len(fl.Stats().Members); got != 1 {
			t.Errorf("%q then %q: %d members registered, want 1", names[0], names[1], got)
		}
		if got := reg.Snapshot(); !reflect.DeepEqual(got, series) {
			t.Errorf("%q then %q: refused registration changed the taurus.ctl.* series:\nbefore %+v\nafter  %+v", names[0], names[1], series, got)
		}
	}
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
		{"Statistic", Config{Statistic: DriftPSI + 1}},
		{"Statistic", Config{Statistic: -1}},
	} {
		if _, err := NewFleet(stubModel{}, q, c.cfg); err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("NewFleet(%s bad): err = %v, want a refusal naming %s", c.field, err, c.field)
		}
	}
	src := func(n int) []dataset.Record { return make([]dataset.Record, n) }
	if _, err := New(nopPusher{}, stubModel{}, q, src, Config{PSIThreshold: nan}); err == nil || !strings.Contains(err.Error(), "PSIThreshold") {
		t.Errorf("New(PSIThreshold NaN): err = %v, want a refusal naming PSIThreshold", err)
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
		if m.RefFlagRate != 0 || m.RefMeanScore != 0 || m.LastPSI != 0 {
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

// recordPusher records every pushed graph and every rollback, serves what a
// data plane would (a rollback undoes the last accepted push, once), and can
// fail on demand.
type recordPusher struct {
	mu        sync.Mutex
	graphs    []*mr.Graph
	rollbacks int
	serving   *mr.Graph // nil: the install's weights
	undo      *mr.Graph // what the last accepted push replaced
	canUndo   bool
	failAt    int   // fail the Nth push (1-based); 0 = never
	err       error // what the failed push returns; nil = "injected push failure"
}

func (p *recordPusher) UpdateWeights(g *mr.Graph) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.failAt > 0 && len(p.graphs)+1 == p.failAt {
		p.graphs = append(p.graphs, nil)
		if p.err != nil {
			return p.err
		}
		return errors.New("injected push failure")
	}
	p.graphs = append(p.graphs, g)
	p.serving, p.undo, p.canUndo = g, p.serving, true
	return nil
}

func (p *recordPusher) RollbackWeights() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.rollbacks++
	if p.canUndo {
		p.serving, p.canUndo = p.undo, false
	}
}

// served returns the graph the pusher serves (nil: its install) and how many
// rollbacks it was sent.
func (p *recordPusher) served() (*mr.Graph, int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.serving, p.rollbacks
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
// the fleet serving a mix of models — members already updated roll back to
// what they served before, the rollback is journalled naming the member and
// how many members it undid, the error surfaces, and a later retrain
// succeeds everywhere. The fleet's first push is as atomic: the member that
// took it serves its install again.
func TestFleetPushFailureRollsBack(t *testing.T) {
	src := func(n int) []dataset.Record { return make([]dataset.Record, n) }
	tracer := obs.NewTracer(256)
	fl, err := NewFleet(liveModel{}, fixed.NewQuantizer(1), Config{Tracer: tracer, Obs: obs.NewRegistry()})
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

	if err := fl.RetrainNow(); err == nil || !strings.Contains(err.Error(), `fleet member "flaky"`) {
		t.Fatalf("second retrain = %v, want the injected push failure naming member flaky", err)
	}
	if fl.Err() == nil {
		t.Error("Err() empty after failed push")
	}
	if got := good.pushed(); len(got) != 2 || got[1] == g1 {
		t.Fatalf("good member saw %d pushes, want the first push and a distinct second", len(got))
	}
	if serving, rollbacks := good.served(); serving != g1 || rollbacks != 1 {
		t.Fatalf("good member serves the first push: %v, after %d rollbacks — want true after 1", serving == g1, rollbacks)
	}
	if _, rollbacks := flaky.served(); rollbacks != 0 {
		t.Errorf("the refusing member was sent %d rollbacks, want 0: it published nothing", rollbacks)
	}
	rolledBack := false
	for _, e := range tracer.Events() {
		if e.Kind == "push.rollback" && strings.Contains(e.Detail, `member="flaky"`) && strings.Contains(e.Detail, "rolled_back=1") {
			rolledBack = true
		}
	}
	if !rolledBack {
		t.Error("no push.rollback event names member flaky and the one member it rolled back")
	}
	if st := fl.Stats(); st.Retrains != 1 {
		t.Errorf("failed cycle counted as a retrain (retrains = %d)", st.Retrains)
	}

	// The flaky member accepts again: the fleet must converge on retry.
	if err := fl.RetrainNow(); err != nil {
		t.Fatalf("retry after rollback failed: %v", err)
	}
	gs, _ := good.served()
	fs, _ := flaky.served()
	if gs != fs || gs == g1 {
		t.Error("members do not both serve the retry push")
	}
	if st := fl.Stats(); st.Retrains != 2 {
		t.Errorf("retrains = %d, want 2", st.Retrains)
	}

	first, err := NewFleet(liveModel{}, fixed.NewQuantizer(1), Config{Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	takes := &recordPusher{}
	if _, err := first.Register("takes", takes, src); err != nil {
		t.Fatal(err)
	}
	if _, err := first.Register("refuses", &recordPusher{failAt: 1}, src); err != nil {
		t.Fatal(err)
	}
	if err := first.RetrainNow(); err == nil || !strings.Contains(err.Error(), `fleet member "refuses"`) {
		t.Errorf("refused first fleet push = %v, want the refusal naming member refuses", err)
	}
	if serving, rollbacks := takes.served(); serving != nil || rollbacks != 1 || len(takes.pushed()) != 1 {
		t.Errorf("after the refused first fleet push member takes serves its install: %v, after %d pushes and %d rollbacks — want true after 1 and 1",
			serving == nil, len(takes.pushed()), rollbacks)
	}
}

// TestFleetRollbackRestoresServedWeights: on a real data plane a refused
// fan-out leaves the member that took the push scoring as it did before it,
// on the fleet's first push (back to the install) and on a later one (back
// to the previous push, not the install). The undo is one more publish —
// model.publish kind=rollback under a fresh epoch — and cannot fail, so the
// fleet journals no rollback event but push.rollback.
func TestFleetRollbackRestoresServedWeights(t *testing.T) {
	for _, tc := range []struct {
		name   string
		failAt int // the refusing member's first refused push
		epoch  int // the device's epoch after the rollback
	}{
		{"first push", 1, 3}, // install, push, rollback
		{"later push", 2, 4}, // install, push, push, rollback
	} {
		t.Run(tc.name, func(t *testing.T) {
			dev := newGateMember(t, scaledSquareGraph(t, 1), compiler.Options{})
			m := &seqModel{graphs: []*mr.Graph{scaledSquareGraph(t, 2), scaledSquareGraph(t, 3)}}
			if tc.failAt == 1 {
				m.graphs = m.graphs[1:]
			}
			tr := obs.NewTracer(256)
			fl, err := NewFleet(m, fixed.NewQuantizer(1), gateConfig(tr))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := fl.Register("dev", dev, labelSrc); err != nil {
				t.Fatal(err)
			}
			if _, err := fl.Register("refuses", &recordPusher{failAt: tc.failAt}, labelSrc); err != nil {
				t.Fatal(err)
			}
			install := dev.score(t)
			for i := 1; i < tc.failAt; i++ {
				if err := fl.RetrainNow(); err != nil {
					t.Fatalf("retrain %d: %v", i, err)
				}
			}
			before := dev.score(t)
			if tc.failAt > 1 && before == install {
				t.Fatalf("the accepted push left the score at the install's %d: the test cannot tell them apart", install)
			}
			if err := fl.RetrainNow(); err == nil || !strings.Contains(err.Error(), `fleet member "refuses"`) {
				t.Fatalf("refused fan-out = %v, want the refusal naming member refuses", err)
			}
			if got := dev.score(t); got != before {
				t.Errorf("device scores %d after the refused fan-out, %d before it", got, before)
			}
			if got := dev.epoch(t); got != tc.epoch {
				t.Errorf("device serves epoch %d, want %d", got, tc.epoch)
			}
			if evs := dev.tr.Events(); !strings.Contains(evs[len(evs)-1].Detail, "kind=rollback") {
				t.Errorf("device's last event is %s %s, want model.publish kind=rollback", evs[len(evs)-1].Kind, evs[len(evs)-1].Detail)
			}
			rolledBack := false
			for _, e := range tr.Events() {
				rolledBack = rolledBack || e.Kind == "push.rollback" && strings.Contains(e.Detail, "rolled_back=1")
				if strings.HasPrefix(e.Kind, "push.rollback") && e.Kind != "push.rollback" {
					t.Errorf("journalled %s %s: a rollback cannot fail", e.Kind, e.Detail)
				}
			}
			if !rolledBack {
				t.Error("no push.rollback event names the one member rolled back")
			}
		})
	}
}

// TestFleetCatchUpIsRechecked: a late joiner's catch-up push passes the
// joiner's own push gate, like every fan-out push. A joiner that refuses the
// catch-up cannot join — Register returns -1 and an error naming it, the
// member count is unchanged, its name stays free and later retrains leave
// it alone — and one that accepts it serves the fleet's graph.
func TestFleetCatchUpIsRechecked(t *testing.T) {
	fl, err := NewFleet(liveModel{}, fixed.NewQuantizer(1), Config{Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	founder := &recordPusher{}
	if _, err := fl.Register("founder", founder, labelSrc); err != nil {
		t.Fatal(err)
	}
	if err := fl.RetrainNow(); err != nil {
		t.Fatal(err)
	}

	broken := &recordPusher{failAt: 1} // refuses its catch-up push
	brokenSrc := &countingSource{}
	id, err := fl.Register("broken", broken, brokenSrc.pull)
	if err == nil || !strings.Contains(err.Error(), `"broken"`) || !strings.Contains(err.Error(), "catch-up") {
		t.Fatalf("Register of a joiner that refuses its catch-up = %v, want the refusal naming it", err)
	}
	if id != -1 {
		t.Errorf("refused joiner got id %d, want -1", id)
	}
	if got := len(fl.Stats().Members); got != 1 {
		t.Errorf("%d members after the refused joiner, want 1", got)
	}
	good := &recordPusher{}
	if _, err := fl.Register("good", good, labelSrc); err != nil {
		t.Fatal(err)
	}
	if f, g := founder.pushed(), good.pushed(); len(g) != 1 || g[0] != f[len(f)-1] {
		t.Error("the accepted catch-up is not the fleet's graph")
	}

	if err := fl.RetrainNow(); err != nil {
		t.Fatal(err)
	}
	if got := len(broken.pushed()); got != 1 {
		t.Errorf("refused joiner has %d pushes, want the catch-up only", got)
	}
	if got := brokenSrc.count(); got != 0 {
		t.Errorf("refused joiner's source pulled %d times, want 0", got)
	}
	if f, g := founder.pushed(), good.pushed(); len(g) != 2 || g[1] != f[len(f)-1] {
		t.Error("the caught-up joiner does not serve the fleet's graph after the next retrain")
	}
	again := &recordPusher{}
	if id, err := fl.Register("broken", again, labelSrc); err != nil || id != 2 {
		t.Fatalf("re-Register of the refused name = (%d, %v), want (2, nil)", id, err)
	}
	if f, g := founder.pushed(), again.pushed(); len(g) != 1 || g[0] != f[len(f)-1] {
		t.Error("the re-registered joiner does not serve the fleet's graph")
	}
}

// TestFleetRetrainUnderTraffic exercises the fleet deployment shape under
// the race detector: every member serves batches and observes them on its
// own goroutine while another keeps pushing to all of them with RetrainNow.
func TestFleetRetrainUnderTraffic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Window = 128
	cfg.RefWindows = 1
	cfg.RetrainRecords = 512
	f := newFleetFixture(t, 3, 2, 2, cfg)

	const pushes = 5
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
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < pushes; i++ {
			if err := f.fleet.RetrainNow(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	f.fleet.Close()
	f.fleet.Close() // idempotent
	if got := f.fleet.Stats().Retrains; got != pushes {
		t.Fatalf("retrains = %d after %d operator pushes under traffic", got, pushes)
	}
	if err := f.fleet.Err(); err != nil {
		t.Fatalf("fleet retrain under traffic failed: %v", err)
	}
	// Every member pipeline must still serve traffic afterwards.
	for i, pl := range f.pipes {
		ins, out, _ := f.streams[i].NextBatch(256)
		if _, err := pl.ProcessBatch(ins, out); err != nil {
			t.Fatalf("member %d: %v", i, err)
		}
	}
}

// dryFleet registers one member per source on a stub-model fleet that pools
// cfg.RetrainRecords records per retrain.
func dryFleet(t *testing.T, cfg Config, srcs ...LabelSource) *Fleet {
	t.Helper()
	fl, err := NewFleet(stubModel{}, fixed.NewQuantizer(1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range srcs {
		if _, err := fl.Register("", nopPusher{}, src); err != nil {
			t.Fatal(err)
		}
	}
	return fl
}

// checkPooled retrains fl once and checks that the pool came up full and
// that each member contributed the records in want.
func checkPooled(t *testing.T, fl *Fleet, cfg Config, want ...int) {
	t.Helper()
	if err := fl.RetrainNow(); err != nil {
		t.Fatalf("retrain failed: %v", err)
	}
	st := fl.Stats()
	if st.LastPoolSize != cfg.RetrainRecords {
		t.Errorf("pool size = %d, want %d", st.LastPoolSize, cfg.RetrainRecords)
	}
	for i, w := range want {
		if got := st.Members[i].PooledRecords; got != w {
			t.Errorf("member %d pooled %d records, want %d", i, got, w)
		}
	}
}

// TestFleetSlowSourceSkipped: a member whose label source has nothing to
// give (a labeler that has fallen behind answers with no records) is skipped
// for that retrain: its share of the pool falls to the member after it, and
// once the source recovers the member pools again.
func TestFleetSlowSourceSkipped(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RetrainRecords = 64
	var behind atomic.Bool
	behind.Store(true)
	laggy := func(n int) []dataset.Record {
		if behind.Load() {
			return nil
		}
		return make([]dataset.Record, n)
	}
	full := func(n int) []dataset.Record { return make([]dataset.Record, n) }
	fl := dryFleet(t, cfg, laggy, full)
	checkPooled(t, fl, cfg, 0, 64)

	behind.Store(false)
	checkPooled(t, fl, cfg, 32, 32)
}

// TestFleetAllSourcesStalled: when every source comes back empty the retrain
// fails cleanly, the error is retained, and no retrain is counted.
func TestFleetAllSourcesStalled(t *testing.T) {
	cfg := DefaultConfig()
	none := func(int) []dataset.Record { return nil }
	fl := dryFleet(t, cfg, none, none)
	if err := fl.RetrainNow(); err == nil {
		t.Fatal("retrain with every source dry should fail")
	}
	if fl.Err() == nil {
		t.Error("Err() lost the failed retrain")
	}
	if got := fl.Stats().Retrains; got != 0 {
		t.Errorf("retrains = %d with every source dry, want 0", got)
	}
}

// TestFleetSlowSourceLastSkipped: registration order must not matter. When
// the member that under-delivers is the last in the pool (the one that would
// absorb the rounding remainder), the top-up pass re-draws its shortfall
// from the members that answered instead of silently shrinking the pool.
func TestFleetSlowSourceLastSkipped(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RetrainRecords = 64
	full := func(n int) []dataset.Record { return make([]dataset.Record, n) }
	half := func(n int) []dataset.Record { return make([]dataset.Record, n/2) }
	none := func(int) []dataset.Record { return nil }
	// 32 + 16 on the first pass, the missing 16 topped up from the first.
	checkPooled(t, dryFleet(t, cfg, full, half), cfg, 48, 16)
	// Nothing from the last: its whole share falls to the first.
	checkPooled(t, dryFleet(t, cfg, full, none), cfg, 64, 0)
}
