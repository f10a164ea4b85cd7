package controlplane

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"taurus/internal/core"
	"taurus/internal/dataset"
	"taurus/internal/distfit"
	"taurus/internal/fixed"
	"taurus/internal/graphcheck"
	mr "taurus/internal/mapreduce"
	"taurus/internal/model"
	"taurus/internal/obs"
)

// fleetOrdinal numbers fleets for default telemetry labels ({fleet=N}).
// Member detectors add {member=<name>}.
var fleetOrdinal atomic.Int64

// Fleet is one control plane driving N switches: the §3.3.1 split scaled
// out to a real deployment, where a single trainer serves many data planes,
// each seeing its own traffic mix. The fleet owns one model.Deployable;
// every registered member ("switch") gets its own drift detector over its
// own decision stream and its own labelled-telemetry source. Drift on any
// member triggers one shared retrain: labels are pooled from the drifted
// members — weighted by how much traffic each sampled since the last
// retrain, so the busiest drifted switch shapes the new model most — the
// model is Fit once, Lowered once against the pinned input domain, and the
// one lowered graph is pushed to every member.
//
// The push is atomic across the fleet: if any member rejects the graph, the
// members already updated are rolled back to the previously pushed graph,
// so the fleet never serves traffic from a mix of models. (Before the first
// successful fleet push there is no previous graph to restore; a failure
// there leaves the deployment-time weights only on the members not yet
// touched, and the error names the members that already diverged.)
//
// The loop has two driving modes. Synchronous: the traffic driver calls
// Observe after each batch and, when it returns true (drift), calls
// RetrainNow — fully deterministic, used by the drift experiment. Background:
// Start launches a worker goroutine that retrains whenever drift is observed
// on any member (and, optionally, on a fixed RetrainInterval) while the
// callers keep pushing batches — the live deployment shape, exercised under
// -race.
//
// The two modes meet at the kick channel: every drift detection fills a
// one-slot buffer the background worker drains, so signals coalesce —
// simultaneous drift on several members still triggers one retrain, which
// answers all of them. Because Observe fills the buffer in both modes, a
// completed retrain drains any kick still pending — it was answered by that
// retrain, and leaving it buffered would fire a spurious retrain the moment
// Start (or a Close → Start restart) brings a worker up.
//
// Controller (controlplane.go) is this loop with exactly one member.
type Fleet struct {
	cfg Config
	inQ fixed.Quantizer

	// mu guards the member list and the fleet-level counters. Each member's
	// detector state sits behind its own lock (fleetMember.mu), so traffic
	// drivers observing different switches never convoy on one mutex — the
	// whole point of per-member detectors. Lock ordering: mu before any
	// member.mu; most paths snapshot the member list under mu and take the
	// member locks one at a time afterwards.
	mu        sync.Mutex
	members   []*fleetMember
	retrainsC *obs.Counter // taurus.ctl.retrains — completed fleet cycles
	lastPool  int
	lastErr   error
	lastGraph *mr.Graph // most recently pushed graph, for rollback

	// Registry/tracer bindings for this fleet and its members' detectors.
	reg       *obs.Registry
	obsLabels []obs.Label
	tracer    *obs.Tracer

	// trainMu serialises retrains — and, since PR 6, membership changes:
	// Register's catch-up push and Deregister's never-pulled-again guarantee
	// both hold only if they cannot interleave with an in-flight retrain.
	trainMu sync.Mutex
	model   model.Deployable

	// Distributed fit (Config.DistFit). The coordinator's lifecycle runs
	// under trainMu; the pointer itself is additionally guarded by mu so
	// DistFit() can read it without blocking on a retrain. reissuedBase
	// carries the re-issue count across coordinator respawns.
	pf           model.PartialFitter
	dfCfg        distfit.Config
	coord        *distfit.Coordinator
	lastWorkers  int
	reissuedBase int

	// Background mode.
	runMu sync.Mutex
	kick  chan struct{}
	done  chan struct{}
	wg    sync.WaitGroup
}

// fleetMember is one registered switch: its data plane, its label feed and
// its drift detector.
type fleetMember struct {
	name   string
	pusher Pusher
	source LabelSource

	// mu guards the member's detector and retrain bookkeeping, so each
	// switch's Observe path contends only with itself.
	mu  sync.Mutex
	det detector
	// sampledAtRetrain is det.sampled at the last fleet retrain; the delta
	// since weights the member's share of the pooled retrain sample.
	sampledAtRetrain int
	// pooled is how many records the member contributed to the last retrain.
	pooled int
	// sourceTimeouts counts retrains that skipped this member because its
	// label source blocked past Config.SourceDeadline.
	sourceTimeouts int
	// sourceInFlight marks an abandoned (timed-out) source call still
	// running; while set, the member is skipped rather than invoking its
	// LabelSource concurrently with itself — sources are not required to
	// be reentrant.
	sourceInFlight bool

	// gone marks a deregistered member (guarded by Fleet.mu, like the
	// member list itself). The slot stays in the slice so member ids never
	// shift; every retrain/push/pooling path skips it.
	gone bool
}

// snapshot returns the live (not deregistered) members under the fleet
// lock; callers then take each member's own lock as needed, never nesting
// member locks. Deregistered members are invisible to every retrain, push
// and pooling path; only Stats walks the full slice.
func (f *Fleet) snapshot() []*fleetMember {
	f.mu.Lock()
	defer f.mu.Unlock()
	live := make([]*fleetMember, 0, len(f.members))
	for _, m := range f.members {
		if !m.gone {
			live = append(live, m)
		}
	}
	return live
}

// MemberStats reports one fleet member's control-plane activity.
type MemberStats struct {
	// Name is the member's registration name.
	Name string
	// Stats is the member's drift-detector view; the retrain fields
	// (Retrains, LastRetrainRecords, LastRetrainWorkers, ReissuedTasks) live
	// fleet-wide in FleetStats and stay zero here.
	Stats
	// Drifted reports whether the member has drift detected and not yet
	// answered by a fleet retrain.
	Drifted bool
	// PooledRecords is how many labelled records the member contributed to
	// the most recent fleet retrain.
	PooledRecords int
	// SourceTimeouts counts retrains that skipped this member because its
	// label source blocked past Config.SourceDeadline — the backpressure
	// guard keeping one laggy source from stalling the shared loop.
	SourceTimeouts int
	// Deregistered reports that the member has left the fleet
	// (Fleet.Deregister): it no longer receives pushes or contributes
	// labels, but its slot — and its counters up to departure — remain in
	// Stats so member ids stay stable.
	Deregistered bool
}

// FleetStats reports the fleet's aggregate and per-member activity.
type FleetStats struct {
	// Members holds per-member stats in registration order.
	Members []MemberStats
	// Drifts is the total number of drift detections across all members.
	Drifts int
	// Retrains is the number of completed fleet retrain+push cycles.
	Retrains int
	// LastPoolSize is how many labelled records were pooled into the most
	// recent retrain.
	LastPoolSize int
	// LastRetrainWorkers is how many distfit workers were live after the
	// most recent retrain (0 when Config.DistFit is unset).
	LastRetrainWorkers int
	// ReissuedTasks counts distfit task re-executions across all
	// coordinator lifetimes (0 when Config.DistFit is unset).
	ReissuedTasks int
}

// NewFleet builds a fleet controller around m — the control-plane lifecycle
// of the deployed model; the fleet takes ownership — with inQ the input
// quantiser every member's data plane was loaded with (the fleet pushes one
// graph to all members, so they must share the deployment: same model, same
// input domain). Register members with Register before driving traffic.
func NewFleet(m model.Deployable, inQ fixed.Quantizer, cfg Config) (*Fleet, error) {
	if m == nil {
		return nil, fmt.Errorf("controlplane: nil model")
	}
	if inQ.Scale <= 0 {
		return nil, fmt.Errorf("controlplane: input quantiser has scale %v; pass the quantiser the fleet's members were loaded with", inQ.Scale)
	}
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	reg := cfg.Obs
	if reg == nil {
		reg = obs.Default()
	}
	labels := cfg.ObsLabels
	if labels == nil {
		labels = []obs.Label{obs.L("fleet", strconv.FormatInt(fleetOrdinal.Add(1)-1, 10))}
	}
	tracer := cfg.Tracer
	if tracer == nil {
		tracer = obs.DefaultTracer()
	}
	f := &Fleet{
		cfg:       cfg,
		inQ:       inQ,
		model:     m,
		retrainsC: reg.Counter("taurus.ctl.retrains", labels...),
		reg:       reg,
		obsLabels: labels,
		tracer:    tracer,
		kick:      make(chan struct{}, 1),
	}
	if cfg.DistFit != nil {
		pf, ok := m.(model.PartialFitter)
		if !ok {
			return nil, fmt.Errorf("controlplane: DistFit is set but model %q does not implement model.PartialFitter", m.Name())
		}
		f.pf = pf
		f.dfCfg = *cfg.DistFit
		if f.dfCfg.Tracer == nil {
			// Distributed rounds journal beside the retrain spans that ran them.
			f.dfCfg.Tracer = tracer
		}
		if f.dfCfg.Store == nil {
			// Pin the checkpoint store so it survives coordinator respawns
			// across Close — the persistence that lets an interrupted
			// round resume.
			f.dfCfg.Store = distfit.NewMemStore()
		}
		coord, err := distfit.New(pf, f.dfCfg)
		if err != nil {
			return nil, err
		}
		f.coord = coord
	}
	return f, nil
}

// DistFit returns the live distributed-fit coordinator, or nil when
// Config.DistFit is unset or the coordinator is between lifetimes (after
// Close, before the next retrain respawns it). The handle is how a fault
// injector reaches the worker pool (KillWorker/AddWorker).
func (f *Fleet) DistFit() *distfit.Coordinator {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.coord
}

// coordinator returns the coordinator to route this retrain through (nil =
// plain in-process Fit), respawning it if Close tore it down. Runs under
// trainMu.
func (f *Fleet) coordinator() (*distfit.Coordinator, error) {
	if f.pf == nil {
		return nil, nil
	}
	f.mu.Lock()
	coord := f.coord
	f.mu.Unlock()
	if coord != nil {
		return coord, nil
	}
	coord, err := distfit.New(f.pf, f.dfCfg)
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	f.coord = coord
	f.mu.Unlock()
	return coord, nil
}

// Register adds one switch to the fleet: its data plane (anything accepting
// weight pushes — a *pipeline.Pipeline or *core.Device) and its labelled
// telemetry source. name is for reports; empty picks "member-N". Returns
// the member id for Observe. Each member gets its own drift detector over
// the fleet's shared configuration.
//
// A member joining after the fleet has already pushed a retrained graph is
// caught up immediately: the most recent pushed graph is pushed to the
// joiner before Register returns, so a late joiner never serves stale
// deployment-time weights beside retrained siblings. Register serialises
// with retrains, so the catch-up push cannot interleave with a fleet-wide
// push mid-flight. The joiner's tape is audited after the catch-up push like
// every member's after a fan-out push (TapeRechecker). If the push fails or
// the audit does, the member is left deregistered (its id is still returned,
// tombstoned) and the error says why — a switch that rejects the fleet's
// current model, or cannot serve it faithfully, cannot join it.
func (f *Fleet) Register(name string, p Pusher, src LabelSource) (int, error) {
	if p == nil {
		return 0, fmt.Errorf("controlplane: nil pusher")
	}
	if src == nil {
		return 0, fmt.Errorf("controlplane: nil label source")
	}
	f.trainMu.Lock()
	defer f.trainMu.Unlock()
	f.mu.Lock()
	if name == "" {
		name = fmt.Sprintf("member-%d", len(f.members))
	}
	m := &fleetMember{name: name, pusher: p, source: src}
	m.det.cfg = &f.cfg
	// Bind before the member can see traffic: detector counters are registry
	// instruments and must exist before the first observe. The full-slice
	// expression keeps the append from scribbling on the fleet's own labels.
	m.det.bind(f.reg, append(f.obsLabels[:len(f.obsLabels):len(f.obsLabels)], obs.L("member", name)))
	f.members = append(f.members, m)
	id := len(f.members) - 1
	g := f.lastGraph
	f.mu.Unlock()
	if g == nil {
		return id, nil
	}
	refuse := func(what string, err error) (int, error) {
		f.mu.Lock()
		m.gone = true
		f.mu.Unlock()
		return id, fmt.Errorf("controlplane: %s new fleet member %q: %w", what, name, err)
	}
	if err := p.UpdateWeights(g); err != nil {
		return refuse("catch-up push to", err)
	}
	if err := f.recheck(0, m); err != nil {
		return refuse("post-push tape recheck on", err)
	}
	return id, nil
}

// Deregister removes a member from the fleet: its label source is never
// pulled again, it receives no further pushes, and its traffic no longer
// feeds drift detection (Observe on it returns false). Member ids are
// stable — the slot is tombstoned, not removed — so other members' ids do
// not shift, and the member's counters up to departure stay visible in
// Stats with Deregistered set. Deregister serialises with retrains: it
// blocks until any in-flight retrain finishes, and returns with the
// guarantee that no future retrain touches the member. Deregistering twice,
// or an out-of-range id, is a no-op.
func (f *Fleet) Deregister(member int) {
	f.trainMu.Lock()
	defer f.trainMu.Unlock()
	f.mu.Lock()
	defer f.mu.Unlock()
	if member < 0 || member >= len(f.members) {
		return
	}
	f.members[member].gone = true
}

// Observe feeds a batch of member's data-plane decisions into that member's
// drift detector. It returns true when this call completed a window that
// newly crossed a drift threshold on that member; in background mode that
// also kicks the shared retrain worker. Safe for concurrent use across
// members. Panics on an unregistered member id — ids come from Register,
// so a bad one is a programming error, not traffic.
func (f *Fleet) Observe(member int, decs []core.Decision) bool {
	f.mu.Lock()
	if member < 0 || member >= len(f.members) {
		n := len(f.members)
		f.mu.Unlock()
		panic(fmt.Sprintf("controlplane: fleet member %d out of range (have %d)", member, n))
	}
	m := f.members[member]
	gone := m.gone
	f.mu.Unlock()
	if gone {
		// A deregistered member's traffic no longer feeds drift detection;
		// the id stays valid (ids are stable) but is inert.
		return false
	}
	m.mu.Lock()
	newDrift := m.det.observe(decs)
	flagRate, meanScore := m.det.lastFlagRate, m.det.lastMeanScore
	m.mu.Unlock()
	if newDrift {
		f.tracer.Emitf(0, "drift.detected", "member=%q flag_rate=%.3f mean_score=%.1f", m.name, flagRate, meanScore)
		select {
		case f.kick <- struct{}{}:
		default: // a retrain is already pending; coalesce
		}
	}
	return newDrift
}

// RetrainNow synchronously runs one fleet control cycle: pool labelled
// records from the drifted members — weighted by the traffic each sampled
// since the last retrain — Fit the shared model, Lower once against the
// pinned input domain, and push the one lowered graph to every member
// atomically. When no member is drifted (a periodic or operator-initiated
// retrain), every member contributes to the pool. On success every member's
// detector is re-armed — the push changed every member's score distribution,
// drifted or not — and any pending drift kick is drained. Concurrent calls
// serialise.
func (f *Fleet) RetrainNow() error {
	f.trainMu.Lock()
	defer f.trainMu.Unlock()

	span := f.tracer.Begin()
	f.tracer.Emitf(span, "retrain.start", "model=%q", f.model.Name())
	pool, pull, contrib, err := f.pooledSource()
	if err != nil {
		return f.fail(span, err)
	}
	coord, err := f.coordinator()
	if err != nil {
		return f.fail(span, err)
	}
	n, err := fitOnFresh(f.model, pull, &f.cfg, coord)
	if err != nil {
		return f.fail(span, err)
	}
	// Pooling is lazy — the pull closure draws from members as Fit consumes —
	// so the pool's final shape is only known once the fit returns.
	f.tracer.Emitf(span, "labels.pooled", "records=%d members=%d", n, len(pool))
	f.tracer.Emitf(span, "retrain.fit", "records=%d", n)
	g, err := f.model.Lower(f.inQ)
	if err != nil {
		return f.fail(span, err)
	}
	// Static gate before any member sees the graph: verify the lowering and
	// prove it structurally compatible with the previous fleet-wide push, so
	// the atomic fan-out (and its rollback path) is only ever exercised with
	// a provably pushable graph.
	if err := graphcheck.Check(g); err != nil {
		f.tracer.Emitf(span, "graphcheck.fail", "err=%q", err.Error())
		return f.fail(span, err)
	}
	f.mu.Lock()
	prev := f.lastGraph
	f.mu.Unlock()
	if prev != nil {
		if err := graphcheck.Compatible(prev, g); err != nil {
			f.tracer.Emitf(span, "graphcheck.fail", "err=%q", err.Error())
			return f.fail(span, err)
		}
	}
	f.tracer.Emitf(span, "graphcheck.pass", "graph=%q", g.Name)
	if err := f.push(span, g); err != nil {
		return f.fail(span, err)
	}
	if f.cfg.OnPush != nil {
		f.cfg.OnPush()
	}

	members := f.snapshot()
	pooled := make(map[*fleetMember]int, len(pool))
	for i, m := range pool {
		pooled[m] = contrib[i]
	}
	for _, m := range members {
		m.mu.Lock()
		m.det.rearm()
		m.sampledAtRetrain = int(m.det.sampled.Value())
		m.pooled = pooled[m]
		m.mu.Unlock()
	}
	f.tracer.Emitf(span, "push.done", "records=%d members=%d", n, len(members))
	f.retrainsC.Inc()
	f.mu.Lock()
	f.lastPool = n
	f.lastGraph = g
	f.lastErr = nil
	if coord != nil {
		f.lastWorkers = coord.Stats().LiveWorkers
	}
	f.mu.Unlock()
	// Drain the stale kick: Observe fills the buffered channel even in
	// synchronous mode, so without the drain a later Start() would
	// immediately re-answer drift this push already resolved. New drift
	// cannot be declared before the re-armed references complete, so a
	// genuine kick cannot race into this window.
	select {
	case <-f.kick:
	default:
	}
	return nil
}

// pooledSource snapshots the drifted members (all members when none are
// drifted) and returns them with a label source that splits each request
// across them in proportion to the traffic each sampled since the last
// retrain, and the per-pool-member contribution counts the source fills in
// as it is drawn from.
func (f *Fleet) pooledSource() ([]*fleetMember, LabelSource, []int, error) {
	members := f.snapshot()
	if len(members) == 0 {
		return nil, nil, nil, fmt.Errorf("controlplane: fleet has no members")
	}
	// Every member is weighed — a member with no sampled traffic still counts
	// for 1 — and the drifted ones form the pool; with no drift at all (a
	// periodic or operator retrain) every member contributes.
	all := make([]float64, len(members))
	drifted := make([]bool, len(members))
	anyDrift := false
	for i, m := range members {
		m.mu.Lock()
		drifted[i] = m.det.drifted
		all[i] = float64(m.det.sampled.Value()) - float64(m.sampledAtRetrain)
		m.mu.Unlock()
		if all[i] <= 0 {
			all[i] = 1
		}
		anyDrift = anyDrift || drifted[i]
	}
	var pool []*fleetMember
	var weights []float64
	var total float64
	for i, m := range members {
		if drifted[i] || !anyDrift {
			pool = append(pool, m)
			weights = append(weights, all[i])
			total += all[i]
		}
	}
	for i := range weights {
		weights[i] /= total
	}

	contrib := make([]int, len(pool))
	// skipped latches per retrain: a member whose source blocked past the
	// deadline once is not asked again for this retrain's later chunks.
	skipped := make([]bool, len(pool))
	draw := func(i int, m *fleetMember, want int, recs []dataset.Record, remaining *int) []dataset.Record {
		got, ok := f.pullFrom(m, want)
		if !ok {
			// The backpressure guard: a source that blocks past the
			// deadline is skipped for this whole retrain; its share falls
			// to the members that answered.
			skipped[i] = true
			m.mu.Lock()
			m.sourceTimeouts++
			m.mu.Unlock()
			return recs
		}
		contrib[i] += len(got)
		// Deduct what actually arrived: a member whose label source
		// under-delivers leaves its shortfall for its siblings, so one dry
		// source cannot silently shrink the shared pool.
		*remaining -= len(got)
		return append(recs, got...)
	}
	pull := func(n int) []dataset.Record {
		recs := make([]dataset.Record, 0, n)
		remaining := n
		for i, m := range pool {
			if skipped[i] || remaining <= 0 {
				continue
			}
			want := remaining
			if i < len(pool)-1 {
				want = int(weights[i]*float64(n) + 0.5)
				if want > remaining {
					want = remaining
				}
			}
			if want <= 0 {
				continue
			}
			recs = draw(i, m, want, recs, &remaining)
		}
		// Top-up pass: whatever share was lost to timed-out (or dry)
		// members is re-requested from the members that answered, so the
		// pool only comes up short when every remaining source does.
		for i, m := range pool {
			if remaining <= 0 {
				break
			}
			if skipped[i] {
				continue
			}
			recs = draw(i, m, remaining, recs, &remaining)
		}
		return recs
	}
	return pool, pull, contrib, nil
}

// pullFrom draws want records from m's label source, giving up after
// Config.SourceDeadline (false). With no deadline it blocks, exactly as
// before. An abandoned call keeps running in its goroutine; whatever it
// eventually returns is discarded — stale labels from a stalled source are
// worth less than an on-time retrain for the members that answered — and
// while it is still running the member reports not-ok immediately, so a
// LabelSource is never invoked concurrently with itself.
func (f *Fleet) pullFrom(m *fleetMember, want int) ([]dataset.Record, bool) {
	if f.cfg.SourceDeadline <= 0 {
		return m.source(want), true
	}
	m.mu.Lock()
	if m.sourceInFlight {
		m.mu.Unlock()
		return nil, false
	}
	m.sourceInFlight = true
	m.mu.Unlock()
	ch := make(chan []dataset.Record, 1)
	go func() {
		recs := m.source(want)
		m.mu.Lock()
		m.sourceInFlight = false
		m.mu.Unlock()
		ch <- recs
	}()
	t := time.NewTimer(f.cfg.SourceDeadline)
	defer t.Stop()
	select {
	case recs := <-ch:
		return recs, true
	case <-t.C:
		return nil, false
	}
}

// push applies g to every member, then has every member that can (a device
// or pipeline: TapeRechecker) re-verify the tape it serves against the new
// weights. On a member's failure — a refused push or a failed audit — the
// members already updated are rolled back to the previously pushed graph, so
// the fleet never serves a mix of models and what the members serve agrees
// with lastGraph. Before the first successful push there is nothing to roll
// back to — the error then names the members left serving the new graph so the
// operator knows the fleet diverged.
func (f *Fleet) push(span int64, g *mr.Graph) error {
	members := f.snapshot()
	f.mu.Lock()
	prev := f.lastGraph
	f.mu.Unlock()
	// rollback undoes the push on the first n members after what failed on m.
	rollback := func(n int, what string, m *fleetMember, err error) error {
		f.tracer.Emitf(span, "push.rollback", "member=%q rolled_back=%d err=%q", m.name, n, err.Error())
		if prev == nil && n > 0 {
			names := make([]string, n)
			for j, r := range members[:n] {
				names[j] = r.name
			}
			return fmt.Errorf("controlplane: %s %q failed with no prior fleet push to roll back to; members %v already serve the new model: %w",
				what, m.name, names, err)
		}
		if prev != nil {
			for _, r := range members[:n] {
				// prev installed on r once already; structural rejection
				// cannot recur, and a deeper device failure would leave
				// the original error the one worth surfacing.
				_ = r.pusher.UpdateWeights(prev)
			}
		}
		return fmt.Errorf("controlplane: %s %q: %w", what, m.name, err)
	}
	for i, m := range members {
		if err := m.pusher.UpdateWeights(g); err != nil {
			return rollback(i, "push to fleet member", m, err)
		}
	}
	for _, m := range members {
		if err := f.recheck(span, m); err != nil {
			return rollback(len(members), "post-push tape recheck on fleet member", m, err)
		}
	}
	return nil
}

// recheck has m re-verify the tape it serves against the weights just pushed
// to it, when it can (a device or pipeline: TapeRechecker), and journals the
// verdict on span.
func (f *Fleet) recheck(span int64, m *fleetMember) error {
	rc, ok := m.pusher.(TapeRechecker)
	if !ok {
		return nil
	}
	if err := rc.RecheckTape(); err != nil {
		f.tracer.Emitf(span, "tapecheck.fail", "member=%q post-push recheck: err=%q", m.name, err.Error())
		return err
	}
	f.tracer.Emitf(span, "tapecheck.pass", "member=%q post-push recheck", m.name)
	return nil
}

func (f *Fleet) fail(span int64, err error) error {
	f.tracer.Emitf(span, "retrain.fail", "err=%q", err.Error())
	members := f.snapshot()
	// Re-arm every drift latch so the still-shifted members re-trigger —
	// one failed retrain must not end the fleet's control loop.
	for _, m := range members {
		m.mu.Lock()
		m.det.clearLatch()
		m.mu.Unlock()
	}
	f.mu.Lock()
	f.lastErr = err
	f.mu.Unlock()
	return err
}

// Start launches the background retrain worker: it retrains whenever any
// member's Observe detects drift, and on every RetrainInterval when one is
// configured. Calling Start twice is a no-op.
func (f *Fleet) Start() {
	f.runMu.Lock()
	defer f.runMu.Unlock()
	if f.done != nil {
		return
	}
	f.done = make(chan struct{})
	f.wg.Add(1)
	go f.run(f.done)
}

func (f *Fleet) run(done <-chan struct{}) {
	defer f.wg.Done()
	var tick <-chan time.Time
	if f.cfg.RetrainInterval > 0 {
		t := time.NewTicker(f.cfg.RetrainInterval)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-done:
			return
		case <-f.kick:
		case <-tick:
		}
		// Errors are retained in Err(); the loop keeps serving future drift
		// signals — one failed push must not end the control plane.
		_ = f.RetrainNow()
	}
}

// Close stops the background worker (if started), waits for any retrain in
// flight to finish, and releases the distfit worker pool when
// Config.DistFit is set. The fleet remains usable synchronously, and Start
// may be called again; the next retrain respawns the coordinator, and its
// checkpoint store carries across, so an interrupted distributed round
// resumes rather than restarts.
func (f *Fleet) Close() {
	// Signal the background worker first, then abort any in-flight
	// distributed Fit (its ErrClosed unblocks a retrain stuck waiting on
	// workers), then join the worker — this order cannot deadlock on a
	// wedged round.
	f.runMu.Lock()
	done := f.done
	f.done = nil
	f.runMu.Unlock()
	if done != nil {
		close(done)
	}
	f.mu.Lock()
	coord := f.coord
	f.mu.Unlock()
	if coord != nil {
		coord.Close()
	}
	if done != nil {
		f.wg.Wait()
	}
	// Quiesce the retrain path and retire the coordinator — including one a
	// racing synchronous retrain respawned after the abort above.
	f.trainMu.Lock()
	defer f.trainMu.Unlock()
	f.mu.Lock()
	cur := f.coord
	f.coord = nil
	f.mu.Unlock()
	base := 0
	if cur != nil {
		cur.Close()
		base += cur.Stats().ReissuedTasks
	}
	if coord != nil && coord != cur {
		base += coord.Stats().ReissuedTasks
	}
	f.mu.Lock()
	f.reissuedBase += base
	f.mu.Unlock()
}

// Stats returns a snapshot of the fleet's aggregate and per-member
// counters. Unlike the retrain paths, Stats reports every slot ever
// registered — deregistered members appear with Deregistered set and their
// counters frozen at departure — so indices in Members line up with member
// ids.
func (f *Fleet) Stats() FleetStats {
	f.mu.Lock()
	members := append([]*fleetMember(nil), f.members...)
	gone := make([]bool, len(members))
	for i, m := range members {
		gone[i] = m.gone
	}
	st := FleetStats{
		Retrains:           int(f.retrainsC.Value()),
		LastPoolSize:       f.lastPool,
		LastRetrainWorkers: f.lastWorkers,
		ReissuedTasks:      f.reissuedBase,
	}
	coord := f.coord
	f.mu.Unlock()
	if coord != nil {
		st.ReissuedTasks += coord.Stats().ReissuedTasks
	}
	for i, m := range members {
		m.mu.Lock()
		ms := MemberStats{
			Name:           m.name,
			Stats:          m.det.stats(),
			Drifted:        m.det.drifted,
			PooledRecords:  m.pooled,
			SourceTimeouts: m.sourceTimeouts,
			Deregistered:   gone[i],
		}
		m.mu.Unlock()
		st.Drifts += ms.Stats.Drifts
		st.Members = append(st.Members, ms)
	}
	return st
}

// Err returns the error of the most recent failed retrain, or nil if the
// last retrain succeeded (or none ran).
func (f *Fleet) Err() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.lastErr
}

// Drifted reports whether any member has drift detected and not yet
// answered by a retrain.
func (f *Fleet) Drifted() bool {
	for _, m := range f.snapshot() {
		m.mu.Lock()
		drifted := m.det.drifted
		m.mu.Unlock()
		if drifted {
			return true
		}
	}
	return false
}
