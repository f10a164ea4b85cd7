package controlplane

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"taurus/internal/core"
	"taurus/internal/dataset"
	"taurus/internal/distfit"
	"taurus/internal/fixed"
	"taurus/internal/ml"
	"taurus/internal/model"
)

// countingSource is a LabelSource that counts its invocations — the probe
// for a refused joiner's never-pulled guarantee.
type countingSource struct{ calls int32 }

func (s *countingSource) pull(n int) []dataset.Record {
	atomic.AddInt32(&s.calls, 1)
	return make([]dataset.Record, n)
}

func (s *countingSource) count() int32 { return atomic.LoadInt32(&s.calls) }

// TestFleetRegisterCatchUp: a member joining after the fleet has pushed a
// retrained graph receives that graph before Register returns; a joiner
// whose catch-up push fails does not join: Register returns -1, later
// retrains neither pull its source nor push to it, the member count is
// unchanged, and its name stays free for a joiner that accepts.
func TestFleetRegisterCatchUp(t *testing.T) {
	src := func(n int) []dataset.Record { return make([]dataset.Record, n) }
	fl, err := NewFleet(liveModel{}, fixed.NewQuantizer(1), Config{})
	if err != nil {
		t.Fatal(err)
	}
	founder := &recordPusher{}
	if _, err := fl.Register("founder", founder, src); err != nil {
		t.Fatal(err)
	}

	// Before any push there is nothing to catch up on.
	early := &recordPusher{}
	if _, err := fl.Register("early", early, src); err != nil {
		t.Fatal(err)
	}
	if got := len(early.pushed()); got != 0 {
		t.Fatalf("pre-push joiner received %d graphs, want 0", got)
	}

	if err := fl.RetrainNow(); err != nil {
		t.Fatal(err)
	}
	current := founder.pushed()[0]

	// A late joiner is caught up with the exact graph the fleet serves.
	late := &recordPusher{}
	if _, err := fl.Register("late", late, src); err != nil {
		t.Fatal(err)
	}
	if got := late.pushed(); len(got) != 1 || got[0] != current {
		t.Fatalf("late joiner got %d pushes (same graph: %v), want the fleet's current graph immediately",
			len(got), len(got) == 1 && got[0] == current)
	}

	// The next retrain treats the joiner as a full member.
	if err := fl.RetrainNow(); err != nil {
		t.Fatal(err)
	}
	if got := len(late.pushed()); got != 2 {
		t.Fatalf("late joiner has %d pushes after the next retrain, want 2", got)
	}

	// A joiner that rejects the catch-up push cannot join.
	broken := &recordPusher{failAt: 1}
	brokenSrc := &countingSource{}
	id, err := fl.Register("broken", broken, brokenSrc.pull)
	if err == nil || id != -1 {
		t.Fatalf("Register of a joiner refusing its catch-up = (%d, %v), want (-1, an error)", id, err)
	}
	if got := len(fl.Stats().Members); got != 3 {
		t.Errorf("%d members after the refused joiner, want 3", got)
	}
	if err := fl.RetrainNow(); err != nil {
		t.Fatal(err)
	}
	if got := len(broken.pushed()); got != 1 { // the refused catch-up only
		t.Errorf("refused joiner has %d pushes, want 1", got)
	}
	if got := brokenSrc.count(); got != 0 {
		t.Errorf("refused joiner's source pulled %d times, want 0", got)
	}

	// Its name is free: a joiner that accepts takes it, and the next id.
	again := &recordPusher{}
	id, err = fl.Register("broken", again, src)
	if err != nil || id != 3 {
		t.Fatalf("re-Register of the refused name = (%d, %v), want (3, nil)", id, err)
	}
	f := founder.pushed()
	if got := again.pushed(); len(got) != 1 || got[0] != f[len(f)-1] {
		t.Error("the re-registered joiner was not caught up with the fleet's graph")
	}
	st := fl.Stats()
	if len(st.Members) != 4 || st.Members[id].Name != "broken" {
		t.Fatalf("Stats has %d members, member %d = %q; want 4 with the joiner last", len(st.Members), id, st.Members[id].Name)
	}
}

// TestFleetChurnDuringTraffic is the -race regression: joiners register
// (each refusing its catch-up push, so none joins) while the founding
// members observe traffic and the fleet retrains; the member list, and so
// every id, must stay as it was, and no refused joiner is pushed to again
// or pulled from.
func TestFleetChurnDuringTraffic(t *testing.T) {
	fl, err := NewFleet(liveModel{}, fixed.NewQuantizer(1), Config{})
	if err != nil {
		t.Fatal(err)
	}
	src := func(n int) []dataset.Record { return make([]dataset.Record, n) }
	const seed = 4
	for i := 0; i < seed; i++ {
		if _, err := fl.Register("", &recordPusher{}, src); err != nil {
			t.Fatal(err)
		}
	}
	// One push first, so that every later joiner gets a catch-up push.
	if err := fl.RetrainNow(); err != nil {
		t.Fatal(err)
	}
	var churn sync.WaitGroup
	var traffic sync.WaitGroup
	stop := make(chan struct{})
	traffic.Add(1)
	go func() { // traffic on the founding members, until the churn is done
		defer traffic.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for i := 0; i < seed; i++ {
				fl.Observe(i, []core.Decision{{}, {}})
			}
		}
	}()
	churn.Add(2)
	joiners := make([]*recordPusher, 20)
	sources := make([]*countingSource, len(joiners))
	go func() { // churn: joiners that refuse their catch-up push
		defer churn.Done()
		for i := range joiners {
			joiners[i], sources[i] = &recordPusher{failAt: 1}, &countingSource{}
			id, err := fl.Register(fmt.Sprintf("joiner-%d", i), joiners[i], sources[i].pull)
			if err == nil || id != -1 {
				t.Errorf("refused catch-up push returned (%d, %v), want (-1, an error)", id, err)
				return
			}
		}
	}()
	go func() { // retrains interleaving with both
		defer churn.Done()
		for i := 0; i < 10; i++ {
			if err := fl.RetrainNow(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	churn.Wait()
	close(stop)
	traffic.Wait()

	if got := len(fl.Stats().Members); got != seed {
		t.Fatalf("Stats has %d members, want the %d founders", got, seed)
	}
	for i, p := range joiners {
		if got := len(p.pushed()); got != 1 { // the refused catch-up only
			t.Errorf("joiner %d has %d pushes, want 1", i, got)
		}
		if got := sources[i].count(); got != 0 {
			t.Errorf("joiner %d's source pulled %d times, want 0", i, got)
		}
	}
	// Every refused name is free for a joiner that accepts.
	for i := range joiners {
		id, err := fl.Register(fmt.Sprintf("joiner-%d", i), &recordPusher{}, src)
		if err != nil || id != seed+i {
			t.Fatalf("re-Register of joiner-%d = (%d, %v), want (%d, nil)", i, id, err, seed+i)
		}
	}
}

// distFleet builds a DNN-backed fleet, with DistFit enabled when df is
// non-nil.
func distFleet(t *testing.T, members int, df *distfit.Config) (*Fleet, []*recordPusher, model.Deployable, fixed.Quantizer) {
	t.Helper()
	gen, err := dataset.NewAnomalyGenerator(dataset.AnomalyConfig{
		NumFeatures: 6, AnomalyFraction: 0.4, Separation: 1.2,
	}, rand.New(rand.NewSource(61)))
	if err != nil {
		t.Fatal(err)
	}
	dep, err := model.NewDNN(ml.NewDNN([]int{6, 12, 6, 3, 1}, ml.ReLU, ml.Sigmoid,
		rand.New(rand.NewSource(61))), model.DNNConfig{Epochs: 2, Seed: 61})
	if err != nil {
		t.Fatal(err)
	}
	warm := gen.Records(1024)
	if err := dep.Fit(warm); err != nil {
		t.Fatal(err)
	}
	inQ := model.InputQuantizerFor(warm)
	cfg := DefaultConfig()
	cfg.RetrainRecords = 1024
	cfg.DistFit = df
	fl, err := NewFleet(dep, inQ, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	source := func(n int) []dataset.Record {
		mu.Lock()
		defer mu.Unlock()
		return gen.Records(n)
	}
	pushers := make([]*recordPusher, members)
	for i := range pushers {
		pushers[i] = &recordPusher{}
		if _, err := fl.Register("", pushers[i], source); err != nil {
			t.Fatal(err)
		}
	}
	return fl, pushers, dep, inQ
}

// TestFleetDistFitRetrain: a DistFit-routed fleet retrain survives a worker
// kill, pushes one graph to every member, and the pushed graph agrees with
// the model's quantised reference decisions — push parity holds through
// the distributed merge.
func TestFleetDistFitRetrain(t *testing.T) {
	fl, pushers, dep, inQ := distFleet(t, 3, &distfit.Config{
		Workers: 4, ChunkSize: 256, TaskDeadline: 500 * time.Millisecond,
	})
	defer fl.Close()
	coord := fl.DistFit()
	if coord == nil {
		t.Fatal("DistFit() = nil with Config.DistFit set")
	}
	if err := coord.KillWorker(0); err != nil {
		t.Fatal(err)
	}
	if err := fl.RetrainNow(); err != nil {
		t.Fatal(err)
	}
	st := fl.Stats()
	if st.LastRetrainWorkers != 3 {
		t.Errorf("LastRetrainWorkers = %d, want 3 after killing 1 of 4", st.LastRetrainWorkers)
	}
	var g = pushers[0].pushed()[0]
	for i, p := range pushers {
		if got := p.pushed(); len(got) != 1 || got[0] != g {
			t.Fatalf("member %d did not receive the shared graph", i)
		}
	}
	// Push parity: the deployed graph must reproduce the model's reference
	// decisions bit-for-bit, exactly as with a single-process Fit.
	gen, err := dataset.NewAnomalyGenerator(dataset.AnomalyConfig{
		NumFeatures: 6, AnomalyFraction: 0.4, Separation: 1.2,
	}, rand.New(rand.NewSource(62)))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range gen.Records(100) {
		codes := inQ.QuantizeSlice(r.Features)
		in := make([]int32, len(codes))
		for i, c := range codes {
			in[i] = int32(c)
		}
		outs, err := g.Eval(in)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := dep.ReferenceDecision(inQ, r.Features)
		if err != nil {
			t.Fatal(err)
		}
		if ref != outs[0][0] {
			t.Fatalf("reference %d != pushed graph %d — parity broken by distributed merge", ref, outs[0][0])
		}
	}
}

// TestFleetDistFitValidation: DistFit on a model without PartialFit must be
// rejected at construction, mirroring the Controller.
func TestFleetDistFitValidation(t *testing.T) {
	cfg := Config{DistFit: &distfit.Config{}}
	if _, err := NewFleet(stubModel{}, fixed.NewQuantizer(1), cfg); err == nil {
		t.Fatal("DistFit accepted on a model without PartialFit")
	}
}

// TestFleetDistFitCloseIsFinal: the coordinator lives as long as the fleet.
// Close releases it for good: DistFit() keeps returning it, a later retrain
// fails with distfit.ErrClosed and pushes nothing, the counters still read,
// and a second Close is harmless.
func TestFleetDistFitCloseIsFinal(t *testing.T) {
	fl, pushers, _, _ := distFleet(t, 1, &distfit.Config{Workers: 2, ChunkSize: 256})
	if err := fl.RetrainNow(); err != nil {
		t.Fatal(err)
	}
	coord := fl.DistFit()
	fl.Close()
	fl.Close() // idempotent
	if fl.DistFit() != coord {
		t.Fatal("DistFit() changed across Close")
	}
	if err := fl.RetrainNow(); !errors.Is(err, distfit.ErrClosed) {
		t.Fatalf("retrain after Close: %v, want distfit.ErrClosed", err)
	}
	if n := len(pushers[0].pushed()); n != 1 {
		t.Fatalf("member saw %d pushes, want 1 (none after Close)", n)
	}
	if st := fl.Stats(); st.Retrains != 1 || st.ReissuedTasks != coord.Stats().ReissuedTasks {
		t.Fatalf("Stats after Close = %+v, want 1 retrain and the coordinator's re-issues", st)
	}
}

// TestFleetCloseIsFinal: Close ends the loop with and without DistFit. A
// retrain after Close fails with distfit.ErrClosed before it draws a label:
// no label source is called and no member sees a push.
func TestFleetCloseIsFinal(t *testing.T) {
	for _, tc := range []struct {
		name string
		df   *distfit.Config
	}{
		{"in-process", nil},
		{"distfit", &distfit.Config{Workers: 2, ChunkSize: 256}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fl, pushers, _, _ := distFleet(t, 1, tc.df)
			gen, err := dataset.NewAnomalyGenerator(dataset.AnomalyConfig{
				NumFeatures: 6, AnomalyFraction: 0.4, Separation: 1.2,
			}, rand.New(rand.NewSource(63)))
			if err != nil {
				t.Fatal(err)
			}
			var calls atomic.Int32
			probe := &recordPusher{}
			if _, err := fl.Register("probe", probe, func(n int) []dataset.Record {
				calls.Add(1)
				return gen.Records(n)
			}); err != nil {
				t.Fatal(err)
			}
			fl.Close()
			fl.Close() // idempotent
			if err := fl.RetrainNow(); !errors.Is(err, distfit.ErrClosed) {
				t.Fatalf("retrain after Close: %v, want distfit.ErrClosed", err)
			}
			if n := calls.Load(); n != 0 {
				t.Errorf("label source called %d times after Close, want 0", n)
			}
			for i, p := range append(pushers, probe) {
				if n := len(p.pushed()); n != 0 {
					t.Errorf("member %d saw %d pushes after Close, want 0", i, n)
				}
			}
			if err := fl.Err(); !errors.Is(err, distfit.ErrClosed) {
				t.Errorf("Err() = %v, want distfit.ErrClosed", err)
			}
		})
	}
}

// loadSignal is a checkpoint store that reports on loaded when Fit loads it,
// which a distributed round does once it has opened.
type loadSignal struct {
	*distfit.MemStore
	loaded chan struct{}
}

func (s loadSignal) Load() (distfit.Checkpoint, bool) {
	select {
	case s.loaded <- struct{}{}:
	default:
	}
	return s.MemStore.Load()
}

// TestFleetCloseAbortsWedgedRetrain: with every worker killed a distributed
// Fit blocks; Close aborts it instead of waiting on it. The retrain fails
// with distfit.ErrClosed, nothing is pushed, and the failure is the fleet's
// Err() by the time Close returns — Close waited for the retrain to return.
func TestFleetCloseAbortsWedgedRetrain(t *testing.T) {
	store := loadSignal{distfit.NewMemStore(), make(chan struct{}, 1)}
	fl, pushers, _, _ := distFleet(t, 2, &distfit.Config{Workers: 2, ChunkSize: 256, Store: store})
	for _, w := range fl.DistFit().Workers() {
		w.Kill()
	}
	errc := make(chan error, 1)
	go func() { errc <- fl.RetrainNow() }()
	<-store.loaded // the round is open and no worker will serve it
	fl.Close()
	if err := fl.Err(); !errors.Is(err, distfit.ErrClosed) {
		t.Fatalf("Err() right after Close = %v, want distfit.ErrClosed", err)
	}
	if err := <-errc; !errors.Is(err, distfit.ErrClosed) {
		t.Fatalf("wedged retrain returned %v, want distfit.ErrClosed", err)
	}
	for i, p := range pushers {
		if n := len(p.pushed()); n != 0 {
			t.Fatalf("member %d saw %d pushes from an aborted retrain", i, n)
		}
	}
}

// TestControllerDistFitLifecycle mirrors the fleet checks on the
// single-switch Controller: validation, routed retrain, worker stats, and a
// Close that is final.
func TestControllerDistFitLifecycle(t *testing.T) {
	src := func(n int) []dataset.Record { return make([]dataset.Record, n) }
	cfg := DefaultConfig()
	cfg.DistFit = &distfit.Config{Workers: 2, ChunkSize: 256}
	if _, err := New(nopPusher{}, stubModel{}, fixed.NewQuantizer(1), src, cfg); err == nil {
		t.Fatal("DistFit accepted on a model without PartialFit")
	}

	gen, err := dataset.NewAnomalyGenerator(dataset.AnomalyConfig{
		NumFeatures: 6, AnomalyFraction: 0.4, Separation: 1.2,
	}, rand.New(rand.NewSource(63)))
	if err != nil {
		t.Fatal(err)
	}
	dep, err := model.NewDNN(ml.NewDNN([]int{6, 12, 6, 3, 1}, ml.ReLU, ml.Sigmoid,
		rand.New(rand.NewSource(63))), model.DNNConfig{Epochs: 2, Seed: 63})
	if err != nil {
		t.Fatal(err)
	}
	warm := gen.Records(1024)
	if err := dep.Fit(warm); err != nil {
		t.Fatal(err)
	}
	cfg.RetrainRecords = 1024
	var mu sync.Mutex
	source := func(n int) []dataset.Record {
		mu.Lock()
		defer mu.Unlock()
		return gen.Records(n)
	}
	ctrl, err := New(nopPusher{}, dep, model.InputQuantizerFor(warm), source, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ctrl.DistFit() == nil {
		t.Fatal("DistFit() = nil with Config.DistFit set")
	}
	if err := ctrl.RetrainNow(); err != nil {
		t.Fatal(err)
	}
	if st := ctrl.Stats(); st.LastRetrainWorkers != 2 {
		t.Errorf("LastRetrainWorkers = %d, want 2", st.LastRetrainWorkers)
	}
	coord := ctrl.DistFit()
	ctrl.Close()
	ctrl.Close() // idempotent
	if ctrl.DistFit() != coord {
		t.Fatal("DistFit() changed across Close")
	}
	if err := ctrl.RetrainNow(); !errors.Is(err, distfit.ErrClosed) {
		t.Fatalf("retrain after Close: %v, want distfit.ErrClosed", err)
	}
	if st := ctrl.Stats(); st.Retrains != 1 || st.ReissuedTasks != coord.Stats().ReissuedTasks {
		t.Fatalf("Stats after Close = %+v, want 1 retrain and the coordinator's re-issues", st)
	}
}
