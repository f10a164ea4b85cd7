// Package netqueue is the continuous-time queueing simulator that lets the
// throughput and drift stories compose: where the traffic plane's
// BatchStats.ModelNs answers "how fast does a batch drain", netqueue
// answers "what latency and loss do packets see" when arrivals are a
// process in time rather than a pre-formed batch.
//
// It is a discrete-event simulation: packets arrive from a pluggable
// ArrivalProcess (Poisson, bursty on/off MMPP, or a replay of trafficgen
// streams with their labels intact), are flow-hashed to per-shard FIFO
// queues with finite capacity — the same flow→shard mapping ProcessBatch
// uses — and are serviced with times from the pipeline's measured occupancy
// model (pipeline.ServiceModel: II ns per ML packet, one cycle per bypass,
// plus the block's fill latency on the way out). The II in that model is
// the list schedule's measured initiation interval (internal/sched, via
// core.Device.ScheduledII), so simulated latency and loss are derived from
// the schedule the device actually executes. Control-plane weight
// pushes become simulated events too: Push stalls every shard's service for
// PushStallNs — the out-of-band weight-write window — so the drift
// collapse-and-recover story can be asked with queueing: does a retrain
// push under 80% load cause a latency spike, or drops?
//
// The event loop allocates nothing in the steady state: the event queue is
// a slice-backed binary heap whose size is bounded by shards+1 (one pending
// arrival plus one in-flight service completion per shard), per-shard FIFO
// rings are preallocated at queue capacity, and latency percentiles come
// from a fixed-size log-linear histogram.
package netqueue

import (
	"fmt"

	"taurus/internal/obs"
	"taurus/internal/pipeline"
)

// Packet is one simulated arrival.
type Packet struct {
	// Flow is the packet's five-tuple hash (core.ShardHash); the owning
	// shard is Flow mod the shard count, exactly as the pipeline partitions
	// batches.
	Flow uint32
	// Bypass marks a non-ML packet: it occupies its shard for the bypass
	// service time (one cycle) instead of the model's II.
	Bypass bool
	// Anomalous is the ground-truth label carried by replayed trafficgen
	// streams, so loss can be attributed by class (zero-valued for
	// synthetic processes).
	Anomalous bool
	// Class is the ground-truth category for multi-class replays.
	Class int
}

// ArrivalProcess generates the simulator's packet arrivals.
type ArrivalProcess interface {
	// Next returns the gap to the next arrival in nanoseconds (>= 0) and
	// the arriving packet. Implementations must not allocate in the steady
	// state (Replay may allocate at its batch-refill boundary).
	Next() (gapNs float64, pkt Packet)
	// Rate returns the process's long-run average arrival rate in
	// packets/sec, for load accounting.
	Rate() float64
}

// Config parameterises a Simulator.
type Config struct {
	// Service is the per-shard service-time model, usually
	// Pipeline.ServiceModel() of the deployed design.
	Service pipeline.ServiceModel
	// QueueCap is each shard's waiting-room capacity in packets (default
	// 512). An arrival that finds its shard's queue full is dropped — the
	// finite ingress buffer in front of each MapReduce block.
	QueueCap int
	// PushStallNs is how long a weight push pauses each shard's service:
	// the out-of-band weight-write window during which the shard finishes
	// its in-flight packet but starts no new one. Arrivals keep queueing
	// (and dropping) meanwhile. 0 makes pushes free — an explicit choice,
	// not a default; callers modelling a real push set DefaultPushStallNs
	// or their own measurement (the facade seeds the default).
	PushStallNs float64
}

// DefaultQueueCap is the per-shard queue capacity when Config.QueueCap is 0.
const DefaultQueueCap = 512

// DefaultPushStallNs is the conventional per-shard service pause of a
// weight push (10µs).
const DefaultPushStallNs = 10_000

type eventKind uint8

const (
	evArrival eventKind = iota
	evDeparture
)

type event struct {
	at    float64
	seq   uint64 // tie-break so equal-time events pop deterministically
	kind  eventKind
	shard int32
	pkt   Packet
}

// eventHeap is a slice-backed binary min-heap ordered by (at, seq). Its
// size is bounded by one pending arrival plus one in-flight departure per
// shard, so pushes never grow the preallocated backing array in steady
// state.
type eventHeap struct {
	ev []event
}

func (h *eventHeap) less(i, j int) bool {
	if h.ev[i].at != h.ev[j].at {
		return h.ev[i].at < h.ev[j].at
	}
	return h.ev[i].seq < h.ev[j].seq
}

func (h *eventHeap) push(e event) {
	h.ev = append(h.ev, e)
	i := len(h.ev) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.ev[i], h.ev[parent] = h.ev[parent], h.ev[i]
		i = parent
	}
}

func (h *eventHeap) pop() event {
	top := h.ev[0]
	last := len(h.ev) - 1
	h.ev[0] = h.ev[last]
	h.ev = h.ev[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < last && h.less(l, smallest) {
			smallest = l
		}
		if r < last && h.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		h.ev[i], h.ev[smallest] = h.ev[smallest], h.ev[i]
		i = smallest
	}
	return top
}

func (h *eventHeap) empty() bool { return len(h.ev) == 0 }

// qpkt is one queued (or in-service) packet's bookkeeping.
type qpkt struct {
	arrival   float64
	svc       float64
	anomalous bool
}

// shardQ is one shard's FIFO waiting room plus its server state.
type shardQ struct {
	// buf is a preallocated ring of waiting packets (the in-service packet
	// lives in cur, not the ring).
	buf  []qpkt
	head int
	n    int

	busy       bool
	cur        qpkt
	pauseUntil float64 // service may not start before this (weight push)

	// Interval metrics (reset by ResetStats).
	maxDepth int
	depthInt float64 // integral of waiting depth over time
	lastT    float64
}

func (q *shardQ) enqueue(p qpkt) {
	q.buf[(q.head+q.n)%len(q.buf)] = p
	q.n++
}

func (q *shardQ) dequeue() qpkt {
	p := q.buf[q.head]
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	return p
}

// tick integrates the waiting depth up to now.
func (q *shardQ) tick(now float64) {
	q.depthInt += float64(q.n) * (now - q.lastT)
	q.lastT = now
}

// Simulator is the discrete-event, continuous-time queueing model of one
// sharded traffic plane. Drive it with RunPackets (and Drain), inject
// weight pushes with Push, read interval metrics with Stats/ResetStats. A
// Simulator is not safe for concurrent use.
type Simulator struct {
	cfg Config
	arr ArrivalProcess

	now      float64
	arrClock float64 // the arrival process's own timeline
	seq      uint64
	heap     eventHeap
	shards   []shardQ

	arrivalPending bool

	// Interval metrics (reset by ResetStats).
	hist       obs.Histogram
	statsStart float64
	arrived    int
	served     int
	drops      int
	dropsAnom  int
	pushes     int
	maxNs      float64
	sumNs      float64
}

// New builds a simulator over svc's service-time model fed by arr.
func New(cfg Config, arr ArrivalProcess) (*Simulator, error) {
	if arr == nil {
		return nil, fmt.Errorf("netqueue: nil arrival process")
	}
	if cfg.Service.Shards <= 0 {
		return nil, fmt.Errorf("netqueue: service model needs a positive shard count, got %d", cfg.Service.Shards)
	}
	if cfg.Service.MLServiceNs <= 0 {
		return nil, fmt.Errorf("netqueue: service model has ML service time %v ns; deploy a model (LoadModel) before simulating", cfg.Service.MLServiceNs)
	}
	if cfg.Service.BypassServiceNs <= 0 {
		cfg.Service.BypassServiceNs = 1
	}
	if cfg.Service.LatencyNs < 0 {
		return nil, fmt.Errorf("netqueue: negative pipeline latency %v", cfg.Service.LatencyNs)
	}
	if cfg.QueueCap == 0 {
		cfg.QueueCap = DefaultQueueCap
	}
	if cfg.QueueCap < 0 {
		return nil, fmt.Errorf("netqueue: queue capacity must be positive, got %d", cfg.QueueCap)
	}
	if cfg.PushStallNs < 0 {
		return nil, fmt.Errorf("netqueue: negative push stall %v", cfg.PushStallNs)
	}
	s := &Simulator{
		cfg:    cfg,
		arr:    arr,
		shards: make([]shardQ, cfg.Service.Shards),
	}
	for i := range s.shards {
		s.shards[i].buf = make([]qpkt, cfg.QueueCap)
	}
	s.heap.ev = make([]event, 0, cfg.Service.Shards+2)
	return s, nil
}

// NowNs returns the current simulated time.
func (s *Simulator) NowNs() float64 { return s.now }

// Push injects a control-plane weight push at the current simulated time:
// every shard finishes its in-flight packet (a service already committed is
// not recalled) and then starts no new one for PushStallNs, the way a real
// shard applies an UpdateWeights between batches. Arrivals keep queueing
// during the stall, overflowing into drops once the queue fills.
func (s *Simulator) Push() {
	end := s.now + s.cfg.PushStallNs
	for i := range s.shards {
		if end > s.shards[i].pauseUntil {
			s.shards[i].pauseUntil = end
		}
	}
	s.pushes++
}

// RunPackets feeds the next n arrivals through the event loop, interleaving
// service completions in time order. Queue state carries over between
// calls, so consecutive runs form one continuous timeline.
func (s *Simulator) RunPackets(n int) {
	for i := 0; i < n; i++ {
		if !s.arrivalPending {
			gap, pkt := s.arr.Next()
			if gap < 0 {
				gap = 0
			}
			s.arrClock += gap
			s.seq++
			s.heap.push(event{at: s.arrClock, seq: s.seq, kind: evArrival, pkt: pkt})
			s.arrivalPending = true
		}
		for s.arrivalPending {
			s.step()
		}
	}
}

// Drain processes every remaining service completion without admitting new
// arrivals — the end-of-run flush so queued packets' latencies are
// recorded.
func (s *Simulator) Drain() {
	for !s.heap.empty() {
		s.step()
	}
}

func (s *Simulator) step() {
	e := s.heap.pop()
	s.now = e.at
	switch e.kind {
	case evArrival:
		s.arrivalPending = false
		s.onArrival(e.pkt)
	case evDeparture:
		s.onDeparture(int(e.shard))
	}
}

func (s *Simulator) onArrival(pkt Packet) {
	s.arrived++
	shard := int(pkt.Flow) % len(s.shards)
	sh := &s.shards[shard]
	svc := s.cfg.Service.MLServiceNs
	if pkt.Bypass {
		svc = s.cfg.Service.BypassServiceNs
	}
	p := qpkt{arrival: s.now, svc: svc, anomalous: pkt.Anomalous}
	if !sh.busy {
		sh.busy = true
		sh.cur = p
		s.scheduleDeparture(shard, p)
		return
	}
	if sh.n >= len(sh.buf) {
		s.drops++
		if pkt.Anomalous {
			s.dropsAnom++
		}
		return
	}
	sh.tick(s.now)
	sh.enqueue(p)
	if sh.n > sh.maxDepth {
		sh.maxDepth = sh.n
	}
}

func (s *Simulator) onDeparture(shard int) {
	sh := &s.shards[shard]
	lat := s.now - sh.cur.arrival + s.cfg.Service.LatencyNs
	s.hist.Record(lat)
	s.served++
	s.sumNs += lat
	if lat > s.maxNs {
		s.maxNs = lat
	}
	if sh.n > 0 {
		sh.tick(s.now)
		p := sh.dequeue()
		sh.cur = p
		s.scheduleDeparture(shard, p)
		return
	}
	sh.busy = false
}

// scheduleDeparture commits the next service on shard: it begins at the
// later of now and the shard's push-pause end, and completes one service
// time later.
func (s *Simulator) scheduleDeparture(shard int, p qpkt) {
	begin := s.now
	if pu := s.shards[shard].pauseUntil; pu > begin {
		begin = pu
	}
	s.seq++
	s.heap.push(event{
		at:    begin + p.svc,
		seq:   s.seq,
		kind:  evDeparture,
		shard: int32(shard),
	})
}

// Result is one measurement interval's metrics (since the last ResetStats,
// or since construction).
type Result struct {
	// Packets is the number of arrivals offered in the interval.
	Packets int
	// Served is the number of packets that completed service.
	Served int
	// Drops counts arrivals that found their shard's queue full;
	// DroppedAnomalous is the subset carrying an anomalous ground-truth
	// label (replayed streams only).
	Drops            int
	DroppedAnomalous int
	// DropFrac is Drops/Packets (0 when no packets arrived).
	DropFrac float64
	// P50Ns, P99Ns and P999Ns are transit-latency percentiles over the
	// served packets (queueing wait + service + pipeline fill latency),
	// from a log-linear histogram with ~3% bucket resolution. MeanNs and
	// MaxNs are exact.
	P50Ns, P99Ns, P999Ns float64
	MeanNs, MaxNs        float64
	// MaxDepth is the deepest waiting queue any shard reached; MeanDepth is
	// the time-averaged waiting depth per shard.
	MaxDepth  int
	MeanDepth float64
	// Pushes is how many weight pushes were injected.
	Pushes int
	// DurationNs is the simulated time covered by the interval.
	DurationNs float64
	// OfferedPPS is the arrival process's nominal rate; ObservedPPS is the
	// measured arrival rate over the interval.
	OfferedPPS  float64
	ObservedPPS float64
}

// Stats folds the current interval's metrics into a Result. Queue state is
// untouched; pair with ResetStats for windowed measurements.
func (s *Simulator) Stats() Result {
	r := Result{
		Packets:          s.arrived,
		Served:           s.served,
		Drops:            s.drops,
		DroppedAnomalous: s.dropsAnom,
		P50Ns:            s.hist.Quantile(0.50),
		P99Ns:            s.hist.Quantile(0.99),
		P999Ns:           s.hist.Quantile(0.999),
		MaxNs:            s.maxNs,
		Pushes:           s.pushes,
		DurationNs:       s.now - s.statsStart,
		OfferedPPS:       s.arr.Rate(),
	}
	if s.arrived > 0 {
		r.DropFrac = float64(s.drops) / float64(s.arrived)
	}
	if s.served > 0 {
		r.MeanNs = s.sumNs / float64(s.served)
	}
	var depthInt float64
	for i := range s.shards {
		sh := &s.shards[i]
		depthInt += sh.depthInt + float64(sh.n)*(s.now-sh.lastT)
		if sh.maxDepth > r.MaxDepth {
			r.MaxDepth = sh.maxDepth
		}
	}
	if r.DurationNs > 0 {
		r.MeanDepth = depthInt / (r.DurationNs * float64(len(s.shards)))
		r.ObservedPPS = float64(s.arrived) / r.DurationNs * 1e9
	}
	return r
}

// ResetStats zeroes the interval metrics (histogram, counters, depth
// integrals) while queue and server state carry on — the boundary between
// windowed measurements on one continuous timeline.
func (s *Simulator) ResetStats() {
	s.hist.Reset()
	s.statsStart = s.now
	s.arrived, s.served, s.drops, s.dropsAnom, s.pushes = 0, 0, 0, 0, 0
	s.maxNs, s.sumNs = 0, 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.depthInt = 0
		sh.lastT = s.now
		sh.maxDepth = sh.n
	}
}

// MaxSustainablePPS binary-searches the highest offered rate whose drop
// fraction stays at or below maxDropFrac over a packets-long run — the
// sustainable-load point of a shard count under a given arrival shape. mk
// builds a fresh arrival process for each probed rate.
func MaxSustainablePPS(cfg Config, mk func(pps float64) (ArrivalProcess, error), packets int, maxDropFrac float64) (float64, error) {
	if packets <= 0 {
		return 0, fmt.Errorf("netqueue: need a positive packet budget, got %d", packets)
	}
	nominal := cfg.Service.NominalPPS()
	if nominal <= 0 {
		return 0, fmt.Errorf("netqueue: service model has no capacity (ML service %v ns over %d shards)",
			cfg.Service.MLServiceNs, cfg.Service.Shards)
	}
	lo, hi := 0.0, 1.25*nominal
	for i := 0; i < 14; i++ {
		mid := (lo + hi) / 2
		arr, err := mk(mid)
		if err != nil {
			return 0, err
		}
		sim, err := New(cfg, arr)
		if err != nil {
			return 0, err
		}
		sim.RunPackets(packets)
		sim.Drain()
		if sim.Stats().DropFrac <= maxDropFrac {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, nil
}
