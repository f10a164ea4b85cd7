package controlplane

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"taurus/internal/core"
	"taurus/internal/dataset"
	"taurus/internal/distfit"
	"taurus/internal/fixed"
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
// Each member's data plane gates the push before it serves it, on the grid
// its model was installed on; the fleet adds no check of its own, so a graph
// the first member refuses is published nowhere. The push is atomic across
// the fleet: if any member rejects the graph, the members already updated
// roll back to the weights they served before it, so the fleet never serves
// traffic from a mix of models.
//
// The traffic driver calls Observe after each batch and, when it returns
// true (drift), calls RetrainNow; an operator may call RetrainNow at any
// time. One retrain answers every drifted member: it pools their labels and
// re-arms every member's detector.
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
	lastGraph *mr.Graph // most recently pushed graph, a joiner's catch-up

	// Registry/tracer bindings for this fleet and its members' detectors.
	reg       *obs.Registry
	obsLabels []obs.Label
	tracer    *obs.Tracer

	// trainMu serialises retrains and Register: the catch-up push holds
	// only if it cannot interleave with an in-flight retrain.
	trainMu sync.Mutex
	model   model.Deployable
	// closed is set when Close begins; a retrain that sees it draws nothing.
	closed atomic.Bool

	// coord is the distributed-fit coordinator (Config.DistFit; nil
	// otherwise), built with the fleet and closed by Close.
	coord       *distfit.Coordinator
	lastWorkers int
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
}

// snapshot copies the member list under the fleet lock; callers then take
// each member's own lock as needed, never nesting member locks.
func (f *Fleet) snapshot() []*fleetMember {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]*fleetMember(nil), f.members...)
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
	// ReissuedTasks counts distfit task re-executions (0 when
	// Config.DistFit is unset).
	ReissuedTasks int
}

// NewFleet builds a fleet controller around m — the control-plane lifecycle
// of the deployed model; the fleet takes ownership — with inQ the input
// quantiser every member's data plane was loaded with (the fleet pushes one
// graph to all members, so they must share the deployment: same model, same
// input domain). Register members with Register before driving traffic.
func NewFleet(m model.Deployable, inQ fixed.Quantizer, cfg Config) (*Fleet, error) {
	return newFleet(m, inQ, cfg, nil)
}

// newFleet is NewFleet with the labels that identify the fleet's instruments;
// nil takes a process-unique {fleet=N}.
func newFleet(m model.Deployable, inQ fixed.Quantizer, cfg Config, labels []obs.Label) (*Fleet, error) {
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
	}
	if cfg.DistFit != nil {
		pf, ok := m.(model.PartialFitter)
		if !ok {
			return nil, fmt.Errorf("controlplane: DistFit is set but model %q does not implement model.PartialFitter", m.Name())
		}
		dfCfg := *cfg.DistFit
		if dfCfg.Tracer == nil {
			// Distributed rounds journal beside the retrain spans that ran them.
			dfCfg.Tracer = tracer
		}
		coord, err := distfit.New(pf, dfCfg)
		if err != nil {
			return nil, err
		}
		f.coord = coord
	}
	return f, nil
}

// DistFit returns the distributed-fit coordinator, or nil when
// Config.DistFit is unset. The handle is how a fault injector reaches the
// worker pool (Workers/AddWorker).
func (f *Fleet) DistFit() *distfit.Coordinator { return f.coord }

// Register adds one switch to the fleet: its data plane (anything accepting
// weight pushes — a *pipeline.Pipeline or *core.Device) and its labelled
// telemetry source. name is for reports; empty picks "member-N", where N is
// the new member's id. Returns the member id for Observe. Each member gets its
// own drift detector over the fleet's shared configuration, whose counters
// are registry instruments labelled {member=<name>}; a name already
// registered is refused, since two members under one name would share those
// counters.
//
// A member joining after the fleet has already pushed a retrained graph is
// caught up before it joins: the most recent pushed graph is pushed to it
// first, so a late joiner never serves stale deployment-time weights beside
// retrained siblings. Register serialises with retrains, so the catch-up
// push cannot interleave with a fleet-wide push mid-flight. The catch-up
// push passes the joiner's own push gate like every member's fan-out push.
// Every refusal returns -1 and the error says why, with nothing bound and no
// name claimed — a switch that rejects the fleet's current model cannot
// join it.
func (f *Fleet) Register(name string, p Pusher, src LabelSource) (int, error) {
	if p == nil {
		return -1, fmt.Errorf("controlplane: nil pusher")
	}
	if src == nil {
		return -1, fmt.Errorf("controlplane: nil label source")
	}
	f.trainMu.Lock()
	defer f.trainMu.Unlock()
	// Under trainMu nothing else registers or pushes, so the member list and
	// lastGraph read here still hold when the member is appended below.
	f.mu.Lock()
	id := len(f.members)
	if name == "" {
		name = fmt.Sprintf("member-%d", id)
	}
	for _, o := range f.members {
		if o.name == name {
			f.mu.Unlock()
			return -1, fmt.Errorf("controlplane: fleet member name %q is already registered", name)
		}
	}
	g := f.lastGraph
	f.mu.Unlock()
	if g != nil {
		if err := p.UpdateWeights(g); err != nil {
			return -1, fmt.Errorf("controlplane: catch-up push to new fleet member %q: %w", name, err)
		}
	}
	m := &fleetMember{name: name, pusher: p, source: src}
	m.det.cfg = &f.cfg
	// Bind before the member can see traffic: detector counters are registry
	// instruments and must exist before the first observe. The full-slice
	// expression keeps the append from scribbling on the fleet's own labels.
	m.det.bind(f.reg, append(f.obsLabels[:len(f.obsLabels):len(f.obsLabels)], obs.L("member", name)))
	f.mu.Lock()
	f.members = append(f.members, m)
	f.mu.Unlock()
	return id, nil
}

// Observe feeds a batch of member's data-plane decisions into that member's
// drift detector. It returns true when this call completed a window that
// newly crossed a drift threshold on that member; the caller answers it with
// RetrainNow. Safe for concurrent use across members. Panics on an
// unregistered member id — ids come from Register, so a bad one is a
// programming error, not traffic.
func (f *Fleet) Observe(member int, decs []core.Decision) bool {
	f.mu.Lock()
	if member < 0 || member >= len(f.members) {
		n := len(f.members)
		f.mu.Unlock()
		panic(fmt.Sprintf("controlplane: fleet member %d out of range (have %d)", member, n))
	}
	m := f.members[member]
	f.mu.Unlock()
	m.mu.Lock()
	newDrift := m.det.observe(decs)
	flagRate, meanScore := m.det.lastFlagRate, m.det.lastMeanScore
	m.mu.Unlock()
	if newDrift {
		f.tracer.Emitf(0, "drift.detected", "member=%q flag_rate=%.3f mean_score=%.1f", m.name, flagRate, meanScore)
	}
	return newDrift
}

// RetrainNow synchronously runs one fleet control cycle: draw
// RetrainRecords labelled records once, pooled from the drifted members and
// weighted by the traffic each sampled since the last retrain, Fit the
// shared model on them (through the distfit coordinator when Config.DistFit
// is set), Lower once against the pinned input domain, and push the one
// lowered graph to every member atomically. When no member is drifted (an
// operator-initiated retrain), every member contributes to the pool. On
// success every member's detector is re-armed — the push changed every
// member's score distribution, drifted or not. Concurrent calls serialise.
// Once Close has begun, every retrain fails with distfit.ErrClosed before it
// draws a label.
func (f *Fleet) RetrainNow() error {
	f.trainMu.Lock()
	defer f.trainMu.Unlock()

	span := f.tracer.Begin()
	f.tracer.Emitf(span, "retrain.start", "model=%q", f.model.Name())
	if f.closed.Load() {
		return f.fail(span, fmt.Errorf("controlplane: retrain after Close: %w", distfit.ErrClosed))
	}
	pool, recs, contrib, err := f.pooledDraw(f.cfg.RetrainRecords)
	if err != nil {
		return f.fail(span, err)
	}
	n := len(recs)
	f.tracer.Emitf(span, "labels.pooled", "records=%d members=%d", n, len(pool))
	if n == 0 {
		return f.fail(span, fmt.Errorf("controlplane: label source returned no records"))
	}
	fit := f.model.Fit
	if f.coord != nil {
		fit = f.coord.Fit
	}
	if err := fit(recs); err != nil {
		return f.fail(span, err)
	}
	f.tracer.Emitf(span, "retrain.fit", "records=%d", n)
	g, err := f.model.Lower(f.inQ)
	if err != nil {
		return f.fail(span, err)
	}
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
	if f.coord != nil {
		f.lastWorkers = f.coord.Stats().LiveWorkers
	}
	f.mu.Unlock()
	return nil
}

// pooledDraw snapshots the drifted members (all members when none are
// drifted) and draws n labelled records from them in one pass, splitting
// the request in proportion to the traffic each sampled since the last
// retrain. It returns the pool, the records and each pool member's
// contribution.
func (f *Fleet) pooledDraw(n int) ([]*fleetMember, []dataset.Record, []int, error) {
	members := f.snapshot()
	if len(members) == 0 {
		return nil, nil, nil, fmt.Errorf("controlplane: fleet has no members")
	}
	// Every member is weighed — a member with no sampled traffic still counts
	// for 1 — and the drifted ones form the pool; with no drift at all (an
	// operator retrain) every member contributes.
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

	contrib := make([]int, len(pool))
	recs := make([]dataset.Record, 0, n)
	remaining := n
	draw := func(i, want int) {
		got := pool[i].source(want)
		contrib[i] += len(got)
		// Deduct what actually arrived: a member whose label source
		// under-delivers leaves its shortfall for its siblings, so one dry
		// source cannot silently shrink the shared pool.
		remaining -= len(got)
		recs = append(recs, got...)
	}
	for i := range pool {
		if remaining <= 0 {
			break
		}
		want := remaining
		if i < len(pool)-1 {
			want = int(weights[i]/total*float64(n) + 0.5)
			if want > remaining {
				want = remaining
			}
		}
		if want > 0 {
			draw(i, want)
		}
	}
	// Top-up pass: whatever share a dry member left short is re-requested
	// from every member in turn, so the pool only comes up short when every
	// source does.
	for i := range pool {
		if remaining <= 0 {
			break
		}
		draw(i, remaining)
	}
	return pool, recs, contrib, nil
}

// push applies g to every member. A member's UpdateWeights gates the push
// before it publishes, so a member that refuses it still serves its previous
// model, and a graph the first member refuses is published nowhere. On a
// later member's refusal the members already updated roll back
// (Pusher.RollbackWeights), journalled as push.rollback, to what they served
// before — their install, on the fleet's first push. The returned error names
// the refusing member, and RetrainNow journals it as the span's retrain.fail.
func (f *Fleet) push(span int64, g *mr.Graph) error {
	members := f.snapshot()
	for i, m := range members {
		if err := m.pusher.UpdateWeights(g); err != nil {
			if i > 0 {
				f.tracer.Emitf(span, "push.rollback", "member=%q rolled_back=%d err=%q", m.name, i, err.Error())
			}
			for _, r := range members[:i] {
				r.pusher.RollbackWeights()
			}
			return fmt.Errorf("controlplane: push to fleet member %q: %w", m.name, err)
		}
	}
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

// Close ends the fleet's control loop: every retrain that has not begun
// drawing labels fails with distfit.ErrClosed, with or without
// Config.DistFit, and Close returns once the retrain in flight has returned.
// It closes the distfit coordinator (when Config.DistFit is set) before it
// waits, so a distributed Fit wedged on lost workers aborts with
// distfit.ErrClosed instead of holding Close up. Closing twice is safe.
func (f *Fleet) Close() {
	f.closed.Store(true)
	if f.coord != nil {
		f.coord.Close()
	}
	// The retrain in flight holds trainMu until it returns.
	f.trainMu.Lock()
	f.trainMu.Unlock()
}

// Stats returns a snapshot of the fleet's aggregate and per-member
// counters; indices in Members are member ids.
func (f *Fleet) Stats() FleetStats {
	f.mu.Lock()
	members := append([]*fleetMember(nil), f.members...)
	st := FleetStats{
		Retrains:           int(f.retrainsC.Value()),
		LastPoolSize:       f.lastPool,
		LastRetrainWorkers: f.lastWorkers,
	}
	f.mu.Unlock()
	if f.coord != nil {
		st.ReissuedTasks = f.coord.Stats().ReissuedTasks
	}
	for _, m := range members {
		m.mu.Lock()
		ms := MemberStats{
			Name:          m.name,
			Stats:         m.det.stats(),
			Drifted:       m.det.drifted,
			PooledRecords: m.pooled,
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
