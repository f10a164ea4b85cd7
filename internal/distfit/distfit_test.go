package distfit

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"taurus/internal/dataset"
	"taurus/internal/fixed"
	mr "taurus/internal/mapreduce"
	"taurus/internal/model"
	"taurus/internal/tensor"
)

// fakePartial tags which chunk produced it (by the chunk's first record
// index) and on which execution attempt, so tests can assert merge order,
// re-execution and first-write-wins without a real model.
type fakePartial struct {
	first int // Features[0] of the chunk's first record
	n     int
	nth   int // which PartialFit attempt for this chunk produced it
}

func (p *fakePartial) Records() int { return p.n }

// fakeFitter is a scriptable PartialFitter: hook runs inside PartialFit
// with the chunk identity and per-chunk attempt number, and may block or
// fail to stage deadlines, crashes and aborts deterministically.
type fakeFitter struct {
	mu       sync.Mutex
	perChunk map[int]int
	merged   []model.Partial
	merges   int
	hook     func(first, nth int) error
}

func newFake(hook func(first, nth int) error) *fakeFitter {
	return &fakeFitter{perChunk: make(map[int]int), hook: hook}
}

func (f *fakeFitter) calls(first int) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.perChunk[first]
}

func (f *fakeFitter) PartialFit(recs []dataset.Record) (model.Partial, error) {
	first := int(recs[0].Features[0])
	f.mu.Lock()
	f.perChunk[first]++
	nth := f.perChunk[first]
	f.mu.Unlock()
	if f.hook != nil {
		if err := f.hook(first, nth); err != nil {
			return nil, err
		}
	}
	return &fakePartial{first: first, n: len(recs), nth: nth}, nil
}

func (f *fakeFitter) Merge(parts []model.Partial) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.merged = append([]model.Partial(nil), parts...)
	f.merges++
	return nil
}

// Deployable stubs — the coordinator only needs PartialFit/Merge.
func (f *fakeFitter) Name() string               { return "fake" }
func (f *fakeFitter) NumFeatures() int           { return 1 }
func (f *fakeFitter) Fit([]dataset.Record) error { return nil }
func (f *fakeFitter) Lower(fixed.Quantizer) (*mr.Graph, error) {
	return nil, errors.New("fake: no graph")
}
func (f *fakeFitter) Score(tensor.Vec) float64 { return 0 }
func (f *fakeFitter) ReferenceDecision(fixed.Quantizer, tensor.Vec) (int32, error) {
	return 0, errors.New("fake: no reference")
}

// fakeRecs makes n records whose Features[0] is their global index, so a
// chunk is identified by its first record.
func fakeRecs(n int) []dataset.Record {
	out := make([]dataset.Record, n)
	for i := range out {
		out[i] = dataset.Record{Features: tensor.Vec{float32(i)}}
	}
	return out
}

// wantMerged asserts the merged partials arrived complete and in
// chunk-index order — the deterministic merge schedule.
func wantMerged(t *testing.T, f *fakeFitter, firsts []int, ns []int) {
	t.Helper()
	f.mu.Lock()
	merged := f.merged
	f.mu.Unlock()
	if len(merged) != len(firsts) {
		t.Fatalf("merged %d partials, want %d", len(merged), len(firsts))
	}
	for i, p := range merged {
		fp := p.(*fakePartial)
		if fp.first != firsts[i] || fp.n != ns[i] {
			t.Fatalf("merged[%d] = chunk@%d/%d recs, want chunk@%d/%d", i, fp.first, fp.n, firsts[i], ns[i])
		}
	}
}

// eventually polls cond until it holds or the test times out.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// fakeClock is a coordinator's clock under a test's control: it stands
// still until advance moves it, so the monitor's scans find a task overdue
// only once the test has moved the clock past its deadline.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (k *fakeClock) now() time.Time {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.t
}

// advance moves the clock by d. The monitor's next scan re-issues the tasks
// overdue at the new time and restamps them, so while the clock stands
// still again nothing is re-issued twice.
func (k *fakeClock) advance(d time.Duration) {
	k.mu.Lock()
	k.t = k.t.Add(d)
	k.mu.Unlock()
}

// newFakeCoordinator is New on a fresh fakeClock.
func newFakeCoordinator(t *testing.T, f *fakeFitter, cfg Config) (*Coordinator, *fakeClock) {
	t.Helper()
	clk := &fakeClock{t: time.Unix(0, 0)}
	c, err := newCoordinator(f, cfg, clk.now)
	if err != nil {
		t.Fatal(err)
	}
	return c, clk
}

// newGate returns a channel a fake worker parks on and its release, which is
// idempotent. A test defers release after the coordinator's Close — defers
// run last first — so a t.Fatalf on the way frees the parked worker before
// Close waits for it.
func newGate() (<-chan struct{}, func()) {
	ch := make(chan struct{})
	var once sync.Once
	return ch, func() { once.Do(func() { close(ch) }) }
}

// TestRoundMergesInChunkOrder: the happy path — one round fans out, every
// chunk executes exactly once, and Merge sees partials in chunk-index
// order regardless of which workers computed them.
func TestRoundMergesInChunkOrder(t *testing.T) {
	f := newFake(nil)
	c, err := New(f, Config{Workers: 4, ChunkSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Fit(fakeRecs(18)); err != nil {
		t.Fatal(err)
	}
	wantMerged(t, f, []int{0, 4, 8, 12, 16}, []int{4, 4, 4, 4, 2})
	st := c.Stats()
	if st.Rounds != 1 || st.ReissuedTasks != 0 || st.ResumedChunks != 0 || st.DuplicateCompletions != 0 {
		t.Fatalf("stats = %+v, want one clean round", st)
	}
	for first, n := range map[int]int{0: 1, 4: 1, 8: 1, 12: 1, 16: 1} {
		if got := f.calls(first); got != n {
			t.Fatalf("chunk@%d executed %d times, want %d", first, got, n)
		}
	}
}

// TestDeadlineReissueFirstWriteWins: a chunk whose result misses
// TaskDeadline is re-issued; when the straggler's result finally arrives
// the duplicate is discarded, and the merge counts the chunk exactly once.
func TestDeadlineReissueFirstWriteWins(t *testing.T) {
	gateA, releaseA := newGate()
	gateB, releaseB := newGate()
	store := NewMemStore()
	f := newFake(func(first, nth int) error {
		switch {
		case first == 0 && nth == 1:
			<-gateA // straggle past the deadline
		case first == 4:
			<-gateB // hold the round open until the duplicate has landed
		}
		return nil
	})
	c, clk := newFakeCoordinator(t, f, Config{Workers: 4, ChunkSize: 4, TaskDeadline: 30 * time.Millisecond, Store: store})
	defer c.Close()
	defer releaseA()
	defer releaseB()

	fitErr := make(chan error, 1)
	go func() { fitErr <- c.Fit(fakeRecs(8)) }()

	// Both chunks are out when the clock passes the deadline, so both are
	// re-issued. The re-issued chunk@0 completes at once (it appears in the
	// checkpoint); then the straggler reports while chunk@4 still holds the
	// round open — the duplicate path.
	eventually(t, "both chunks issued", func() bool { return f.calls(0) == 1 && f.calls(4) == 1 })
	clk.advance(31 * time.Millisecond)
	eventually(t, "re-executed chunk@0 accepted", func() bool {
		ck, ok := store.Load()
		return ok && len(ck.Partials) == 2 && ck.Partials[0] != nil
	})
	releaseA()
	eventually(t, "duplicate completion", func() bool { return c.Stats().DuplicateCompletions == 1 })
	releaseB()
	if err := <-fitErr; err != nil {
		t.Fatal(err)
	}
	wantMerged(t, f, []int{0, 4}, []int{4, 4})
	st := c.Stats()
	if st.ReissuedTasks < 1 {
		t.Fatalf("ReissuedTasks = %d, want >= 1", st.ReissuedTasks)
	}
	if f.calls(0) != 2 {
		t.Fatalf("chunk@0 executed %d times, want 2 (original + re-issue)", f.calls(0))
	}
	f.mu.Lock()
	nth := f.merged[0].(*fakePartial).nth
	f.mu.Unlock()
	if nth != 2 {
		t.Fatalf("merged chunk@0 came from attempt %d, want 2 (the first to report)", nth)
	}
}

// TestKillWorkerDropsItsReport: a worker killed mid-task stops accepting
// work, its eventual result is discarded as a crashed process's would be,
// and its chunk is recovered by re-execution on a live worker.
func TestKillWorkerDropsItsReport(t *testing.T) {
	gateA, releaseA := newGate()
	gateB, releaseB := newGate()
	store := NewMemStore()
	f := newFake(func(first, nth int) error {
		switch {
		case first == 0 && nth == 1:
			<-gateA // the doomed worker wedges here
		case first == 4:
			<-gateB // hold the round open until the dropped report lands
		}
		return nil
	})
	c, clk := newFakeCoordinator(t, f, Config{Workers: 1, ChunkSize: 4, TaskDeadline: 30 * time.Millisecond, Store: store})
	defer c.Close()
	defer releaseA()
	defer releaseB()

	fitErr := make(chan error, 1)
	go func() { fitErr <- c.Fit(fakeRecs(8)) }()

	// The lone worker takes chunk@0 and wedges; kill it. The clock then
	// passes the deadline once, while chunk@0 is the only chunk issued; a
	// chunk issued later is stamped at the new time and never falls due, so
	// only chunk@0 is re-issued. The two workers added next take one task
	// each: chunk@4 (which parks) and the re-issue of chunk@0.
	eventually(t, "worker to take chunk@0", func() bool { return f.calls(0) == 1 })
	if err := c.KillWorker(0); err != nil {
		t.Fatal(err)
	}
	clk.advance(31 * time.Millisecond)
	c.AddWorker()
	c.AddWorker()
	if live := c.LiveWorkers(); live != 2 {
		t.Fatalf("LiveWorkers = %d, want 2", live)
	}

	// Wait for the re-executed chunk@0's result to be accepted (it appears
	// in the checkpoint), then release the dead worker's wedged call — its
	// report must be dropped, not merged.
	eventually(t, "re-executed chunk@0 accepted", func() bool {
		ck, ok := store.Load()
		return ok && len(ck.Partials) == 2 && ck.Partials[0] != nil
	})
	releaseA()
	eventually(t, "dropped report", func() bool { return c.Stats().DroppedReports == 1 })
	releaseB()
	if err := <-fitErr; err != nil {
		t.Fatal(err)
	}
	wantMerged(t, f, []int{0, 4}, []int{4, 4})
	f.mu.Lock()
	nth := f.merged[0].(*fakePartial).nth
	f.mu.Unlock()
	if nth != 2 {
		t.Fatalf("merged chunk@0 came from attempt %d, want 2 (the re-execution)", nth)
	}
}

// TestCheckpointResume: a round aborted after accepting some partials
// leaves them checkpointed; a successor coordinator on the same Store and
// pool re-executes only the missing chunks, and the resumed chunks carry
// the original partials bit-for-bit (here: the very same values).
func TestCheckpointResume(t *testing.T) {
	store := NewMemStore()
	boom := errors.New("worker exploded")
	f := newFake(func(first, nth int) error {
		if first == 4 && nth == 1 {
			// Fail chunk@4 only after chunk@0's partial is safely
			// checkpointed, so the abort point is deterministic.
			deadline := time.Now().Add(10 * time.Second)
			for {
				if ck, ok := store.Load(); ok && len(ck.Partials) == 2 && ck.Partials[0] != nil {
					return boom
				}
				if time.Now().After(deadline) {
					return fmt.Errorf("chunk@0 never checkpointed")
				}
				time.Sleep(time.Millisecond)
			}
		}
		return nil
	})
	recs := fakeRecs(8)
	c1, err := New(f, Config{Workers: 2, ChunkSize: 4, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Fit(recs); !errors.Is(err, boom) {
		t.Fatalf("Fit = %v, want the injected worker error", err)
	}
	c1.Close()
	if f.merges != 0 {
		t.Fatal("aborted round must not merge")
	}

	// Successor on the same Store: chunk@0 restores, only chunk@4 re-runs.
	c2, err := New(f, Config{Workers: 2, ChunkSize: 4, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if err := c2.Fit(recs); err != nil {
		t.Fatal(err)
	}
	wantMerged(t, f, []int{0, 4}, []int{4, 4})
	if got := c2.Stats().ResumedChunks; got != 1 {
		t.Fatalf("ResumedChunks = %d, want 1", got)
	}
	if f.calls(0) != 1 {
		t.Fatalf("chunk@0 executed %d times across both coordinators, want 1", f.calls(0))
	}
	f.mu.Lock()
	nth := f.merged[0].(*fakePartial).nth
	f.mu.Unlock()
	if nth != 1 {
		t.Fatalf("resumed chunk@0 is attempt %d, want the original", nth)
	}
	if _, ok := store.Load(); ok {
		t.Fatal("checkpoint not cleared after the round completed")
	}
}

// TestFullyCheckpointedRoundCompletes: a round whose every chunk is already
// checkpointed merges immediately without executing a single task.
func TestFullyCheckpointedRoundCompletes(t *testing.T) {
	recs := fakeRecs(8)
	store := NewMemStore()
	store.Save(Checkpoint{
		Fingerprint: fingerprint(recs, 4),
		Partials: []model.Partial{
			&fakePartial{first: 0, n: 4, nth: 1},
			&fakePartial{first: 4, n: 4, nth: 1},
		},
	})
	f := newFake(nil)
	c, err := New(f, Config{Workers: 2, ChunkSize: 4, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Fit(recs); err != nil {
		t.Fatal(err)
	}
	wantMerged(t, f, []int{0, 4}, []int{4, 4})
	if got := c.Stats().ResumedChunks; got != 2 {
		t.Fatalf("ResumedChunks = %d, want 2", got)
	}
	if f.calls(0) != 0 || f.calls(4) != 0 {
		t.Fatal("fully checkpointed round executed tasks")
	}
}

// TestCloseMidRound: Close during a round aborts it with ErrClosed, drains
// the in-flight PartialFit calls before Fit returns (the model is
// quiescent), and later Fit calls fail fast.
func TestCloseMidRound(t *testing.T) {
	gate, release := newGate()
	f := newFake(func(first, nth int) error {
		<-gate
		return nil
	})
	// The clock never moves, so nothing is re-issued while the workers wedge.
	c, _ := newFakeCoordinator(t, f, Config{Workers: 2, ChunkSize: 4})
	defer release()
	fitErr := make(chan error, 1)
	go func() { fitErr <- c.Fit(fakeRecs(8)) }()
	eventually(t, "workers to wedge", func() bool { return f.calls(0)+f.calls(4) >= 1 })

	closed := make(chan struct{})
	go func() { c.Close(); close(closed) }()
	// Close signals shutdown first, then joins the workers — which are
	// wedged in PartialFit until the gate opens.
	eventually(t, "shutdown signal", func() bool {
		select {
		case <-c.closed:
			return true
		default:
			return false
		}
	})
	release()
	if err := <-fitErr; !errors.Is(err, ErrClosed) {
		t.Fatalf("Fit during Close = %v, want ErrClosed", err)
	}
	<-closed
	if f.merges != 0 {
		t.Fatal("aborted round must not merge")
	}
	if err := c.Fit(fakeRecs(4)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Fit after Close = %v, want ErrClosed", err)
	}
}
