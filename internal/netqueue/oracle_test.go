package netqueue

import (
	"fmt"
	"reflect"
	"testing"

	"taurus/internal/dataset"
	"taurus/internal/obs"
	"taurus/internal/pipeline"
	"taurus/internal/trafficgen"
)

// The oracle is the simulator's original event loop, kept verbatim as a
// test reference (only its type names changed): every arrival and departure
// an event in one binary heap that swaps whole events, the shard and the
// ring reduced with %, and latency recorded through an obs.Histogram. The
// production loop must reach exactly the same Result at every observation
// point (TestSimulatorMatchesOracle, FuzzSimulatorOracle).

type oracleEventKind uint8

const (
	oracleArrival oracleEventKind = iota
	oracleDeparture
)

type oracleEvent struct {
	at    float64
	seq   uint64 // tie-break so equal-time events pop deterministically
	kind  oracleEventKind
	shard int32
	pkt   Packet
}

// oracleHeap is a slice-backed binary min-heap ordered by (at, seq).
type oracleHeap struct {
	ev []oracleEvent
}

func (h *oracleHeap) less(i, j int) bool {
	if h.ev[i].at != h.ev[j].at {
		return h.ev[i].at < h.ev[j].at
	}
	return h.ev[i].seq < h.ev[j].seq
}

func (h *oracleHeap) push(e oracleEvent) {
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

func (h *oracleHeap) pop() oracleEvent {
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

func (h *oracleHeap) empty() bool { return len(h.ev) == 0 }

type oracleQpkt struct {
	arrival   float64
	svc       float64
	anomalous bool
}

type oracleShardQ struct {
	buf  []oracleQpkt
	head int
	n    int

	busy       bool
	cur        oracleQpkt
	pauseUntil float64

	maxDepth int
	depthInt float64
	lastT    float64
}

func (q *oracleShardQ) enqueue(p oracleQpkt) {
	q.buf[(q.head+q.n)%len(q.buf)] = p
	q.n++
}

func (q *oracleShardQ) dequeue() oracleQpkt {
	p := q.buf[q.head]
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	return p
}

func (q *oracleShardQ) tick(now float64) {
	q.depthInt += float64(q.n) * (now - q.lastT)
	q.lastT = now
}

type oracleSim struct {
	cfg Config
	arr ArrivalProcess

	now      float64
	arrClock float64
	seq      uint64
	heap     oracleHeap
	shards   []oracleShardQ

	arrivalPending bool

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

// newOracle applies New's defaults; callers validate cfg through New first.
func newOracle(cfg Config, arr ArrivalProcess) *oracleSim {
	if cfg.Service.BypassServiceNs <= 0 {
		cfg.Service.BypassServiceNs = 1
	}
	if cfg.QueueCap == 0 {
		cfg.QueueCap = DefaultQueueCap
	}
	s := &oracleSim{
		cfg:    cfg,
		arr:    arr,
		shards: make([]oracleShardQ, cfg.Service.Shards),
	}
	for i := range s.shards {
		s.shards[i].buf = make([]oracleQpkt, cfg.QueueCap)
	}
	s.heap.ev = make([]oracleEvent, 0, cfg.Service.Shards+2)
	return s
}

func (s *oracleSim) Push() {
	end := s.now + s.cfg.PushStallNs
	for i := range s.shards {
		if end > s.shards[i].pauseUntil {
			s.shards[i].pauseUntil = end
		}
	}
	s.pushes++
}

func (s *oracleSim) RunPackets(n int) {
	for i := 0; i < n; i++ {
		if !s.arrivalPending {
			gap, pkt := s.arr.Next()
			if gap < 0 {
				gap = 0
			}
			s.arrClock += gap
			s.seq++
			s.heap.push(oracleEvent{at: s.arrClock, seq: s.seq, kind: oracleArrival, pkt: pkt})
			s.arrivalPending = true
		}
		for s.arrivalPending {
			s.step()
		}
	}
}

func (s *oracleSim) Drain() {
	for !s.heap.empty() {
		s.step()
	}
}

func (s *oracleSim) step() {
	e := s.heap.pop()
	s.now = e.at
	switch e.kind {
	case oracleArrival:
		s.arrivalPending = false
		s.onArrival(e.pkt)
	case oracleDeparture:
		s.onDeparture(int(e.shard))
	}
}

func (s *oracleSim) onArrival(pkt Packet) {
	s.arrived++
	shard := int(pkt.Flow) % len(s.shards)
	sh := &s.shards[shard]
	svc := s.cfg.Service.MLServiceNs
	if pkt.Bypass {
		svc = s.cfg.Service.BypassServiceNs
	}
	p := oracleQpkt{arrival: s.now, svc: svc, anomalous: pkt.Anomalous}
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

func (s *oracleSim) onDeparture(shard int) {
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

func (s *oracleSim) scheduleDeparture(shard int, p oracleQpkt) {
	begin := s.now
	if pu := s.shards[shard].pauseUntil; pu > begin {
		begin = pu
	}
	s.seq++
	s.heap.push(oracleEvent{
		at:    begin + p.svc,
		seq:   s.seq,
		kind:  oracleDeparture,
		shard: int32(shard),
	})
}

func (s *oracleSim) Stats() Result {
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

func (s *oracleSim) ResetStats() {
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

// script is an ArrivalProcess that plays a fixed list of arrivals, cycling
// when it runs out. Two copies over one list give a simulator and the oracle
// the same arrivals.
type script struct {
	gaps []float64
	pkts []Packet
	rate float64
	pos  int
}

func (a *script) Next() (float64, Packet) {
	i := a.pos
	a.pos++
	if a.pos == len(a.gaps) {
		a.pos = 0
	}
	return a.gaps[i], a.pkts[i]
}

func (a *script) Rate() float64 { return a.rate }

// record draws n arrivals from arr into a script.
func record(arr ArrivalProcess, n int) *script {
	sc := &script{gaps: make([]float64, n), pkts: make([]Packet, n), rate: arr.Rate()}
	for i := range sc.gaps {
		sc.gaps[i], sc.pkts[i] = arr.Next()
	}
	return sc
}

// replay returns a fresh cursor over sc's arrivals.
func (a *script) replay() *script {
	return &script{gaps: a.gaps, pkts: a.pkts, rate: a.rate}
}

// oracleRun is a simulator and the oracle driven in lockstep.
type oracleRun struct {
	t   *testing.T
	sim *Simulator
	ref *oracleSim
}

func newOracleRun(t *testing.T, cfg Config, sc *script) *oracleRun {
	t.Helper()
	sim, err := New(cfg, sc.replay())
	if err != nil {
		t.Fatal(err)
	}
	return &oracleRun{t: t, sim: sim, ref: newOracle(cfg, sc.replay())}
}

// check requires the two Results to be identical after op.
func (o *oracleRun) check(op string) bool {
	o.t.Helper()
	got, want := o.sim.Stats(), o.ref.Stats()
	if !reflect.DeepEqual(got, want) {
		o.t.Errorf("after %s:\n got %+v\nwant %+v", op, got, want)
		return false
	}
	return true
}

func (o *oracleRun) run(n int) bool {
	o.sim.RunPackets(n)
	o.ref.RunPackets(n)
	return o.check(fmt.Sprintf("RunPackets(%d)", n))
}

func (o *oracleRun) push() bool {
	o.sim.Push()
	o.ref.Push()
	return o.check("Push")
}

func (o *oracleRun) reset() bool {
	o.sim.ResetStats()
	o.ref.ResetStats()
	return o.check("ResetStats")
}

func (o *oracleRun) drain() bool {
	o.sim.Drain()
	o.ref.Drain()
	return o.check("Drain")
}

// TestSimulatorMatchesOracle requires the event loop to reach exactly the
// oracle's Result after every run slice, push, reset and the final drain,
// across shard counts, loads below and above saturation, queue capacities
// from one slot to the default, free and stalling pushes, and all three
// arrival processes (Replay carries labels, so DroppedAnomalous is compared
// too).
func TestSimulatorMatchesOracle(t *testing.T) {
	const (
		svcNs   = 7
		packets = 6000
	)
	stream, err := trafficgen.NewDriftingStream(dataset.DefaultDriftConfig(), 5, 64)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2, 3, 4, 7, 8, 16} {
		svc := pipeline.ServiceModel{Shards: shards, MLServiceNs: svcNs, BypassServiceNs: 1, LatencyNs: 34}
		for _, load := range []float64{0.3, 0.8, 0.99, 1.3} {
			pps := load * svc.NominalPPS()
			seed := int64(shards*100) + int64(load*100)
			sources := map[string]func() (ArrivalProcess, error){
				"poisson": func() (ArrivalProcess, error) { return NewPoisson(pps, 512, seed) },
				"onoff": func() (ArrivalProcess, error) {
					const peakX = 4.0
					return NewOnOff(OnOffConfig{
						PeakPPS:   peakX * svc.NominalPPS(),
						MeanOnNs:  50 * svcNs,
						MeanOffNs: 50 * svcNs * (peakX/load - 1),
						Flows:     512,
						Seed:      seed,
					})
				},
				"replay": func() (ArrivalProcess, error) { return NewReplay(stream, pps, 512, seed) },
			}
			for _, name := range []string{"poisson", "onoff", "replay"} {
				arr, err := sources[name]()
				if err != nil {
					t.Fatal(err)
				}
				sc := record(arr, packets)
				for _, qcap := range []int{1, 5, 100, 0} {
					for _, stall := range []float64{0, 300} {
						cfg := Config{Service: svc, QueueCap: qcap, PushStallNs: stall}
						t.Run(fmt.Sprintf("%s/shards=%d/load=%v/cap=%d/stall=%v", name, shards, load, qcap, stall), func(t *testing.T) {
							o := newOracleRun(t, cfg, sc)
							_ = o.run(1500) && o.push() && o.run(1500) && o.reset() &&
								o.run(1000) && o.push() && o.push() && o.run(1000) &&
								o.drain() && o.run(1000) && o.reset() && o.drain()
						})
					}
				}
			}
		}
	}
}

// FuzzSimulatorOracle drives the simulator and the oracle with a scripted
// arrival list and an op list decoded from the fuzz input. Gaps and service
// times are small integers, so arrivals and departures often fall at the
// same instant and the sequence-number tie-break decides the order.
//
// cfg packs the shard count, queue capacity, service times and push stall;
// each arrival takes two bytes (gap 0–3 ns plus the bypass and anomalous
// bits, then the flow); each op byte is a run of 1–32 packets, a push, a
// reset or a drain.
func FuzzSimulatorOracle(f *testing.F) {
	f.Add(uint32(0x0000), []byte{0, 0}, []byte{8, 5, 16, 6, 7})
	f.Add(uint32(0x1234), []byte{1, 3, 0, 7, 0x82, 9, 0x41, 200, 2, 4}, []byte{248, 5, 0, 7, 6, 120, 5, 5, 248})
	f.Add(uint32(0xfeed), []byte{0, 1, 0, 2, 0, 3, 3, 4, 0xc0, 5, 0, 6}, []byte{255, 6, 255, 5, 255, 7, 255})
	f.Add(uint32(0x3f7), []byte{2, 0, 2, 1, 2, 2, 2, 3, 0x80, 0, 0x80, 1}, []byte{40, 5, 40, 6, 40, 7, 40, 5, 5, 40})
	f.Fuzz(func(t *testing.T, cfgBits uint32, arrivals, ops []byte) {
		if len(arrivals) < 2 || len(ops) > 64 {
			return
		}
		b := func(shift, mod uint32) uint32 { return (cfgBits >> shift) % mod }
		cfg := Config{
			Service: pipeline.ServiceModel{
				Shards:          int(1 + b(0, 16)),
				MLServiceNs:     float64(1 + b(4, 8)),
				BypassServiceNs: float64(b(7, 4)), // 0 takes New's default
				LatencyNs:       float64(b(9, 4) * 10),
			},
			QueueCap:    int(b(11, 9)), // 0 takes the default
			PushStallNs: float64(b(15, 8) * 5),
		}
		sc := &script{rate: 1e8}
		for i := 0; i+1 < len(arrivals); i += 2 {
			g := arrivals[i]
			sc.gaps = append(sc.gaps, float64(g&3))
			sc.pkts = append(sc.pkts, Packet{
				Flow:      uint32(arrivals[i+1]) * 0x9e3779b1,
				Bypass:    g&0x80 != 0,
				Anomalous: g&0x40 != 0,
			})
		}
		o := newOracleRun(t, cfg, sc)
		for _, op := range ops {
			ok := true
			switch op & 7 {
			case 5:
				ok = o.push()
			case 6:
				ok = o.reset()
			case 7:
				ok = o.drain()
			default:
				ok = o.run(1 + int(op>>3))
			}
			if !ok {
				return
			}
		}
		o.drain()
	})
}
