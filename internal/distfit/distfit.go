// Package distfit shards one model retrain coordinator/worker style — the
// 6.824 MapReduce shape applied to the control plane's Fit. The ROADMAP
// names the single-process pooled retrain as the fleet's scaling wall: at
// hundreds of switches the labelled telemetry of one round outgrows one
// goroutine. Here a Coordinator splits the pooled records into fixed-size
// chunks, hands them as map tasks to N Workers, each worker computes a
// model partial via the model.PartialFitter contract, and the reduce phase
// merges the partials in chunk-index order.
//
// Three properties carry the design:
//
// Bit-reproducible merge. Chunking is by index, partials are deterministic
// in their chunk's contents (the PartialFitter contract), and Merge folds
// in chunk-index order — so the merged model, and the lowered graph pushed
// from it, is bit-identical across worker counts, completion orders and
// failures for a fixed chunk size. The control plane's push-parity audits
// survive distribution unchanged.
//
// Task re-execution. A task whose result has not arrived within
// TaskDeadline is re-issued to a live worker; duplicate completions are
// discarded first-write-wins (the first accepted partial for a chunk is
// the one merged — and since partials are deterministic, any later copy is
// bit-identical anyway). A worker killed by the fault injector stops
// accepting tasks, and results it was still computing are discarded at the
// coordinator, exactly as a crashed process's would be.
//
// Checkpointed rounds. Every accepted partial is checkpointed (Store)
// under a fingerprint of the round's records, so a coordinator that dies
// mid-round resumes from its merged-so-far state instead of re-running the
// whole round: a new Coordinator given the same Store and the same record
// pool re-executes only the missing chunks. The model is untouched until
// the final Merge, so resumption is bit-identical to an uninterrupted run.
//
// Workers are in-process goroutines; they reach the coordinator only
// through the two-call Transport interface (RequestTask/Report), so a
// process boundary — workers in separate processes behind an RPC transport
// — can slot in without touching coordinator logic. (That boundary would
// also need Partial serialisation, which the in-process transport avoids;
// see the ROADMAP follow-up.)
package distfit

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"taurus/internal/dataset"
	"taurus/internal/model"
	"taurus/internal/obs"
)

// ErrClosed is returned by Fit on a closed coordinator.
var ErrClosed = errors.New("distfit: coordinator closed")

// Config parameterises a Coordinator. The zero value of any field selects
// the default noted on it.
type Config struct {
	// Workers is how many in-process workers the coordinator spawns
	// (default 4).
	Workers int
	// ChunkSize is the map-task granularity in records (default 512). It is
	// the merge schedule: results are bit-identical across worker counts
	// and failures only at a fixed ChunkSize.
	ChunkSize int
	// TaskDeadline is how long the coordinator waits for an issued task's
	// result before re-issuing the chunk to another worker (default 2s).
	TaskDeadline time.Duration
	// Store checkpoints merged-so-far round state (default: a fresh
	// in-memory store). Hand the same Store to a replacement coordinator to
	// resume an interrupted round.
	Store Store
	// Tracer journals round lifecycle events — distfit.round at each Fit,
	// distfit.reissue per re-executed task (default: the process-wide
	// obs.DefaultTracer). The controlplane threads its own tracer through
	// here so distributed rounds land in the same journal as the retrain
	// span that ran them.
	Tracer *obs.Tracer
}

func (c *Config) applyDefaults() {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.ChunkSize <= 0 {
		c.ChunkSize = 512
	}
	if c.TaskDeadline <= 0 {
		c.TaskDeadline = 2 * time.Second
	}
	if c.Store == nil {
		c.Store = NewMemStore()
	}
	if c.Tracer == nil {
		c.Tracer = obs.DefaultTracer()
	}
}

// Task is one map task: a chunk of the round's labelled records.
type Task struct {
	Round int64
	Chunk int
	Recs  []dataset.Record
}

// Transport is the worker's two-call view of the coordinator. The
// in-process Coordinator implements it directly; a process boundary would
// implement it over RPC.
type Transport interface {
	// RequestTask blocks until a task is available, the transport shuts
	// down, or cancel fires; ok is false in the latter two cases.
	RequestTask(workerID int, cancel <-chan struct{}) (t Task, ok bool)
	// Report delivers a completed task's partial (or the error PartialFit
	// returned). Reports for already-completed chunks are discarded
	// first-write-wins; reports from killed workers are discarded outright.
	Report(workerID int, round int64, chunk int, p model.Partial, err error)
}

// Stats is a snapshot of the coordinator's counters.
type Stats struct {
	// LiveWorkers is how many workers are currently accepting tasks.
	LiveWorkers int
	// Rounds counts completed Fit rounds (merge included).
	Rounds int
	// ReissuedTasks counts chunk re-issues after a missed TaskDeadline.
	ReissuedTasks int
	// DuplicateCompletions counts reports discarded because the chunk was
	// already completed — the first-write-wins path.
	DuplicateCompletions int
	// DroppedReports counts reports discarded because the reporting worker
	// had been killed — the crash-simulation path.
	DroppedReports int
	// ResumedChunks counts chunks restored from a checkpoint instead of
	// re-executed.
	ResumedChunks int
}

// pendingTask is one queue entry; stale entries (wrong round, chunk already
// done) are skipped at issue time.
type pendingTask struct {
	round int64
	chunk int
}

// Coordinator drives distributed rounds over one model.PartialFitter. One
// Fit call is one round: chunk, fan out, collect, merge. Fit calls
// serialise; the model is mutated only by the round-ending Merge, after
// every in-flight PartialFit has returned.
type Coordinator struct {
	cfg Config
	m   model.PartialFitter

	// fitMu serialises rounds.
	fitMu sync.Mutex

	mu        sync.Mutex
	round     int64
	fp        uint64 // current round's record fingerprint
	chunks    [][]dataset.Record
	parts     []model.Partial
	missing   int  // chunks not yet completed
	inflight  int  // PartialFit calls issued and not yet reported
	roundOpen bool // accepting completions; false once done/aborted
	abortErr  error
	issuedAt  map[int]time.Time // chunk -> last issue time
	roundDone chan struct{}     // closed when !roundOpen && inflight == 0
	workers   []*Worker
	stats     Stats

	pending   chan pendingTask
	closed    chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup

	// now stamps each issue and judges its deadline. New uses the wall
	// clock; a test moves it by hand.
	now func() time.Time
}

// New builds a coordinator over m and spawns Config.Workers workers.
// Callers own m's lifecycle: between a round's start and its completion the
// model must not be mutated by anyone else (the controlplane guarantees
// this with its retrain lock).
func New(m model.PartialFitter, cfg Config) (*Coordinator, error) {
	return newCoordinator(m, cfg, time.Now)
}

// newCoordinator is New on the clock now.
func newCoordinator(m model.PartialFitter, cfg Config, now func() time.Time) (*Coordinator, error) {
	if m == nil {
		return nil, fmt.Errorf("distfit: nil model")
	}
	cfg.applyDefaults()
	c := &Coordinator{
		cfg:      cfg,
		m:        m,
		issuedAt: make(map[int]time.Time),
		pending:  make(chan pendingTask, 1024),
		closed:   make(chan struct{}),
		now:      now,
	}
	for i := 0; i < cfg.Workers; i++ {
		c.AddWorker()
	}
	return c, nil
}

// AddWorker spawns one more worker and returns it — the fault injector's
// replacement path, and how a test scales the pool mid-run.
func (c *Coordinator) AddWorker() *Worker {
	c.mu.Lock()
	w := newWorker(len(c.workers), c, c.m)
	c.workers = append(c.workers, w)
	c.mu.Unlock()
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		w.run()
	}()
	return w
}

// KillWorker kills worker id: it stops accepting tasks, and any result it
// was still computing is discarded on arrival. Its in-flight chunk is
// recovered by the TaskDeadline re-issue.
func (c *Coordinator) KillWorker(id int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if id < 0 || id >= len(c.workers) {
		return fmt.Errorf("distfit: worker %d out of range (have %d)", id, len(c.workers))
	}
	c.workers[id].Kill()
	return nil
}

// Workers returns the worker handles, dead ones included (index == id).
func (c *Coordinator) Workers() []*Worker {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*Worker(nil), c.workers...)
}

// LiveWorkers reports how many workers are accepting tasks.
func (c *Coordinator) LiveWorkers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.liveLocked()
}

func (c *Coordinator) liveLocked() int {
	n := 0
	for _, w := range c.workers {
		if !w.Dead() {
			n++
		}
	}
	return n
}

// Stats returns a snapshot of the coordinator's counters.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	st.LiveWorkers = c.liveLocked()
	return st
}

// Fit runs one distributed round over recs: chunk by index, fan the chunks
// out to the workers, collect partials (re-issuing tasks whose results miss
// TaskDeadline), and merge them in chunk-index order. If the Store holds a
// checkpoint for this exact record pool — the signature of a coordinator
// that died mid-round — the checkpointed chunks are restored and only the
// missing ones execute. Returns ErrClosed if the coordinator is (or
// becomes) closed; the checkpoint then survives for a successor. At least
// one live worker is required to make progress — with none, Fit blocks
// until AddWorker or Close.
func (c *Coordinator) Fit(recs []dataset.Record) error {
	c.fitMu.Lock()
	defer c.fitMu.Unlock()
	select {
	case <-c.closed:
		return ErrClosed
	default:
	}
	if len(recs) == 0 {
		return fmt.Errorf("distfit: Fit needs records")
	}

	chunks := chunkRecords(recs, c.cfg.ChunkSize)
	fp := fingerprint(recs, c.cfg.ChunkSize)

	c.mu.Lock()
	c.round++
	round := c.round
	c.fp = fp
	c.chunks = chunks
	c.parts = make([]model.Partial, len(chunks))
	c.missing = len(chunks)
	c.abortErr = nil
	c.issuedAt = make(map[int]time.Time)
	if ck, ok := c.cfg.Store.Load(); ok && ck.Fingerprint == fp && len(ck.Partials) == len(chunks) {
		for i, p := range ck.Partials {
			if p != nil {
				c.parts[i] = p
				c.missing--
				c.stats.ResumedChunks++
			}
		}
	}
	var todo []int
	for i := range chunks {
		if c.parts[i] == nil {
			todo = append(todo, i)
		}
	}
	done := make(chan struct{})
	c.roundDone = done
	c.roundOpen = c.missing > 0
	resumed := len(chunks) - c.missing
	c.maybeFinishLocked() // a fully checkpointed round completes immediately
	c.mu.Unlock()

	c.cfg.Tracer.Emitf(0, "distfit.round", "round=%d chunks=%d resumed=%d", round, len(chunks), resumed)

	stop := make(chan struct{})
	go c.monitor(round, stop)
	defer close(stop)

	for _, i := range todo {
		select {
		case c.pending <- pendingTask{round, i}:
		case <-c.closed:
			return c.abort(done)
		}
	}
	select {
	case <-done:
	case <-c.closed:
		return c.abort(done)
	}

	c.mu.Lock()
	err := c.abortErr
	parts := c.parts
	c.mu.Unlock()
	if err != nil {
		return err // checkpoint retained: a successor (or retry) resumes
	}
	if err := c.m.Merge(parts); err != nil {
		return err
	}
	c.cfg.Store.Clear()
	c.mu.Lock()
	c.stats.Rounds++
	c.mu.Unlock()
	return nil
}

// abort closes the current round after Close fired mid-Fit, waiting for
// in-flight PartialFit calls to drain so the model is quiescent when Fit
// returns.
func (c *Coordinator) abort(done chan struct{}) error {
	c.mu.Lock()
	c.roundOpen = false
	if c.abortErr == nil {
		c.abortErr = ErrClosed
	}
	c.maybeFinishLocked()
	c.mu.Unlock()
	<-done
	return ErrClosed
}

// maybeFinishLocked closes the round-done channel once the round is no
// longer accepting completions and no PartialFit is in flight — the point
// where Merge (or the caller's next move) may safely touch the model.
func (c *Coordinator) maybeFinishLocked() {
	if c.roundDone == nil || c.roundOpen || c.inflight > 0 {
		return
	}
	close(c.roundDone)
	c.roundDone = nil
}

// monitor re-issues chunks whose results have missed TaskDeadline —
// the fault-tolerance half of the map phase. It runs for one round.
func (c *Coordinator) monitor(round int64, stop <-chan struct{}) {
	period := c.cfg.TaskDeadline / 4
	if period < time.Millisecond {
		period = time.Millisecond
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-c.closed:
			return
		case <-t.C:
		}
		var reissue []pendingTask
		c.mu.Lock()
		if c.round != round || !c.roundOpen {
			c.mu.Unlock()
			return
		}
		now := c.now()
		for chunk, at := range c.issuedAt {
			if c.parts[chunk] == nil && now.Sub(at) > c.cfg.TaskDeadline {
				c.issuedAt[chunk] = now // back off until the re-issue is itself overdue
				c.stats.ReissuedTasks++
				c.cfg.Tracer.Emitf(0, "distfit.reissue", "round=%d chunk=%d", round, chunk)
				reissue = append(reissue, pendingTask{round, chunk})
			}
		}
		c.mu.Unlock()
		for _, pt := range reissue {
			select {
			case c.pending <- pt:
			default: // queue full; the next overdue scan retries
			}
		}
	}
}

// RequestTask implements Transport for in-process workers: it blocks until
// a live task is available, skipping queue entries made stale by round
// turnover or first-write-wins completion.
func (c *Coordinator) RequestTask(workerID int, cancel <-chan struct{}) (Task, bool) {
	for {
		select {
		case <-c.closed:
			return Task{}, false
		case <-cancel:
			return Task{}, false
		case pt := <-c.pending:
			c.mu.Lock()
			if pt.round != c.round || !c.roundOpen || c.parts[pt.chunk] != nil {
				c.mu.Unlock()
				continue // stale entry
			}
			c.issuedAt[pt.chunk] = c.now()
			c.inflight++
			t := Task{Round: pt.round, Chunk: pt.chunk, Recs: c.chunks[pt.chunk]}
			c.mu.Unlock()
			return t, true
		}
	}
}

// Report implements Transport: first write wins per chunk, killed workers'
// results are dropped (the crash simulation), and every accepted partial is
// checkpointed so a coordinator restart resumes the round.
func (c *Coordinator) Report(workerID int, round int64, chunk int, p model.Partial, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if round != c.round {
		return // a round that no longer exists; nothing to account
	}
	c.inflight--
	dead := workerID >= 0 && workerID < len(c.workers) && c.workers[workerID].Dead()
	switch {
	case !c.roundOpen:
		// Round already finished or aborted; the report only mattered for
		// the inflight count.
	case dead:
		c.stats.DroppedReports++
	case err != nil:
		c.abortErr = err
		c.roundOpen = false
	case c.parts[chunk] != nil:
		c.stats.DuplicateCompletions++
	default:
		c.parts[chunk] = p
		c.missing--
		delete(c.issuedAt, chunk)
		c.cfg.Store.Save(Checkpoint{Fingerprint: c.fp, Partials: append([]model.Partial(nil), c.parts...)})
		if c.missing == 0 {
			c.roundOpen = false
		}
	}
	c.maybeFinishLocked()
}

// Close shuts the coordinator down: workers stop, an in-flight Fit returns
// ErrClosed with its checkpoint intact (hand the same Store to a successor
// to resume the round), and all worker goroutines are joined before Close
// returns. Closing twice is safe.
func (c *Coordinator) Close() {
	c.closeOnce.Do(func() {
		close(c.closed)
		c.mu.Lock()
		if c.roundOpen {
			c.roundOpen = false
			if c.abortErr == nil {
				c.abortErr = ErrClosed
			}
		}
		c.maybeFinishLocked()
		c.mu.Unlock()
	})
	c.wg.Wait()
}

// chunkRecords partitions recs into fixed-size chunks by index — the
// deterministic merge schedule.
func chunkRecords(recs []dataset.Record, size int) [][]dataset.Record {
	var out [][]dataset.Record
	for start := 0; start < len(recs); start += size {
		end := start + size
		if end > len(recs) {
			end = len(recs)
		}
		out = append(out, recs[start:end])
	}
	return out
}
