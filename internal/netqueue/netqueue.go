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
// Events are ordered by (time, sequence number), one counter numbering
// arrivals and departures alike. The event queue is one pending arrival
// plus a binary heap of departures: a shard has at most one service in
// flight, so the heap holds at most one entry per shard, and the arrival is
// served as soon as no departure precedes it. The shard is the flow hash
// reduced with pisa.FastMod, as in the pipeline; per-shard FIFO rings are
// preallocated at queue capacity and wrap by compare-and-subtract; latencies
// go into the obs histogram's buckets kept as a plain single-writer array,
// so percentiles are the obs.Histogram's without its atomics. The event
// loop allocates nothing in the steady state.
package netqueue

import (
	"fmt"
	"math"

	"taurus/internal/obs"
	"taurus/internal/pipeline"
	"taurus/internal/pisa"
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

// param is one named float parameter, so a validation error can say which
// field was wrong.
type param struct {
	name string
	v    float64
}

// checkFinite returns an error naming the first parameter that is NaN or
// ±Inf. NaN fails every ordered comparison, so a range check such as
// `pps <= 0` alone lets it through.
func checkFinite(params ...param) error {
	for _, p := range params {
		if math.IsNaN(p.v) || math.IsInf(p.v, 0) {
			return fmt.Errorf("netqueue: %s must be finite, got %v", p.name, p.v)
		}
	}
	return nil
}

// stamp is an event's place in the one event order: time, then sequence
// number.
type stamp struct {
	at  float64
	seq uint64 // tie-break so equal-time events are served deterministically
}

func (a stamp) before(b stamp) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// departure is one in-flight service completion.
type departure struct {
	stamp
	shard int
}

// departureHeap is a binary min-heap of departures ordered by stamp. Its
// backing array has one slot per shard — a shard has at most one service in
// flight — so it never grows.
type departureHeap struct {
	ev []departure
	n  int
}

// push adds d.
//
// hotpath: zero-alloc
func (h *departureHeap) push(d departure) {
	i := h.n
	h.n++
	for i > 0 {
		parent := (i - 1) / 2
		if !d.before(h.ev[parent].stamp) {
			break
		}
		h.ev[i] = h.ev[parent]
		i = parent
	}
	h.ev[i] = d
}

// pop removes the earliest departure.
//
// hotpath: zero-alloc
func (h *departureHeap) pop() {
	h.n--
	if h.n > 0 {
		h.replaceTop(h.ev[h.n])
	}
}

// replaceTop removes the earliest departure and adds d in one sift from the
// root.
//
// hotpath: zero-alloc
func (h *departureHeap) replaceTop(d departure) {
	ev := h.ev[:h.n]
	i := 0
	for {
		c := 2*i + 1
		if c >= len(ev) {
			break
		}
		if r := c + 1; r < len(ev) && ev[r].before(ev[c].stamp) {
			c = r
		}
		if !ev[c].before(d.stamp) {
			break
		}
		ev[i] = ev[c]
		i = c
	}
	ev[i] = d
}

// qpkt is one queued (or in-service) packet's bookkeeping.
type qpkt struct {
	arrival float64
	svc     float64
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

// enqueue appends p; the caller has checked the ring is not full.
func (q *shardQ) enqueue(p qpkt) {
	i := q.head + q.n
	if i >= len(q.buf) {
		i -= len(q.buf)
	}
	q.buf[i] = p
	q.n++
}

func (q *shardQ) dequeue() qpkt {
	p := q.buf[q.head]
	q.head++
	if q.head == len(q.buf) {
		q.head = 0
	}
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
	seq      uint64  // numbers arrivals and departures in one sequence
	deps     departureHeap
	shards   []shardQ
	shardOf  pisa.FastMod

	// Interval metrics (reset by ResetStats). hist holds the transit-time
	// counts in obs.Histogram's buckets; they sum to served.
	hist       [obs.NumHistBuckets]int64
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
	if err := checkFinite(
		param{"Service.MLServiceNs", cfg.Service.MLServiceNs},
		param{"Service.BypassServiceNs", cfg.Service.BypassServiceNs},
		param{"Service.LatencyNs", cfg.Service.LatencyNs},
		param{"PushStallNs", cfg.PushStallNs},
	); err != nil {
		return nil, err
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
		cfg:     cfg,
		arr:     arr,
		shards:  make([]shardQ, cfg.Service.Shards),
		shardOf: pisa.NewFastMod(uint32(cfg.Service.Shards)),
	}
	for i := range s.shards {
		s.shards[i].buf = make([]qpkt, cfg.QueueCap)
	}
	s.deps.ev = make([]departure, cfg.Service.Shards)
	return s, nil
}

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
//
// hotpath: zero-alloc
func (s *Simulator) RunPackets(n int) {
	for i := 0; i < n; i++ {
		gap, pkt := s.arr.Next()
		if gap < 0 {
			gap = 0
		}
		s.arrClock += gap
		s.seq++
		s.step(stamp{at: s.arrClock, seq: s.seq}, pkt)
	}
}

// Drain processes every remaining service completion without admitting new
// arrivals — the end-of-run flush so queued packets' latencies are
// recorded.
//
// hotpath: zero-alloc
func (s *Simulator) Drain() {
	for s.deps.n > 0 {
		s.onDeparture()
	}
}

// step runs the timeline through the pending arrival at: first every
// departure that precedes it — including those the departures themselves
// schedule — then the arrival.
//
// hotpath: zero-alloc
func (s *Simulator) step(at stamp, pkt Packet) {
	for s.deps.n > 0 && s.deps.ev[0].before(at) {
		s.onDeparture()
	}
	s.now = at.at
	s.onArrival(pkt)
}

// hotpath: zero-alloc
func (s *Simulator) onArrival(pkt Packet) {
	s.arrived++
	shard := int(s.shardOf.Mod(pkt.Flow))
	sh := &s.shards[shard]
	svc := s.cfg.Service.MLServiceNs
	if pkt.Bypass {
		svc = s.cfg.Service.BypassServiceNs
	}
	p := qpkt{arrival: s.now, svc: svc}
	if !sh.busy {
		sh.busy = true
		sh.cur = p
		s.deps.push(s.scheduleDeparture(shard, p))
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

// onDeparture completes the earliest in-flight service, the heap's top. The
// shard's next waiting packet, if any, takes the top's place.
//
// hotpath: zero-alloc
func (s *Simulator) onDeparture() {
	d := s.deps.ev[0]
	s.now = d.at
	sh := &s.shards[d.shard]
	lat := s.now - sh.cur.arrival + s.cfg.Service.LatencyNs
	s.hist[obs.BucketOf(lat)]++
	s.served++
	s.sumNs += lat
	if lat > s.maxNs {
		s.maxNs = lat
	}
	if sh.n > 0 {
		sh.tick(s.now)
		p := sh.dequeue()
		sh.cur = p
		s.deps.replaceTop(s.scheduleDeparture(d.shard, p))
		return
	}
	sh.busy = false
	s.deps.pop()
}

// scheduleDeparture commits the next service on shard: it begins at the
// later of now and the shard's push-pause end, and completes one service
// time later. It returns the completion for the caller to queue.
//
// hotpath: zero-alloc
func (s *Simulator) scheduleDeparture(shard int, p qpkt) departure {
	begin := s.now
	if pu := s.shards[shard].pauseUntil; pu > begin {
		begin = pu
	}
	s.seq++
	return departure{stamp: stamp{at: begin + p.svc, seq: s.seq}, shard: shard}
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
		P50Ns:            s.quantile(0.50),
		P99Ns:            s.quantile(0.99),
		P999Ns:           s.quantile(0.999),
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

// quantile is obs.Histogram.Quantile over the interval's bucket counts: the
// midpoint of the bucket holding the target rank (0 with nothing served).
func (s *Simulator) quantile(q float64) float64 {
	count := int64(s.served)
	if count == 0 {
		return 0
	}
	target := int64(q*float64(count) + 0.5)
	if target < 1 {
		target = 1
	}
	if target > count {
		target = count
	}
	var seen int64
	for i, n := range s.hist[:] {
		seen += n
		if seen >= target {
			return obs.BucketMid(i)
		}
	}
	return obs.BucketMid(obs.NumHistBuckets - 1)
}

// ResetStats zeroes the interval metrics (histogram, counters, depth
// integrals) while queue and server state carry on — the boundary between
// windowed measurements on one continuous timeline.
func (s *Simulator) ResetStats() {
	clear(s.hist[:])
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
	if !(maxDropFrac >= 0 && maxDropFrac <= 1) {
		return 0, fmt.Errorf("netqueue: maxDropFrac must be a fraction in [0, 1], got %v", maxDropFrac)
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
