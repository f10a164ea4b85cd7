package netqueue

import (
	"fmt"
	"math/rand"

	"taurus/internal/core"
	"taurus/internal/dataset"
	"taurus/internal/pisa"
	"taurus/internal/trafficgen"
)

// flowHashes precomputes the five-tuple hashes of nflows synthetic TCP
// flows — the same packets trafficgen builds — so synthetic arrival
// processes land on shards with exactly the flow-hash balance the real
// partitioner produces.
func flowHashes(nflows int) []uint32 {
	hashes := make([]uint32, nflows)
	for f := range hashes {
		pkt := pisa.BuildTCPPacket(0x0a000000+uint32(f), 0x0a800001,
			uint16(1024+f), 443, 0x10, 64)
		hashes[f] = core.ShardHash(pkt)
	}
	return hashes
}

// Poisson generates memoryless arrivals at a fixed rate over a working set
// of flows — the M in M/D/N, the baseline offered-load shape.
type Poisson struct {
	rng     *rand.Rand
	meanGap float64
	pps     float64
	flows   []uint32
}

// NewPoisson builds a Poisson arrival process at pps packets/sec over
// nflows flows.
func NewPoisson(pps float64, nflows int, seed int64) (*Poisson, error) {
	if err := checkFinite(param{"Poisson rate", pps}); err != nil {
		return nil, err
	}
	if pps <= 0 {
		return nil, fmt.Errorf("netqueue: Poisson rate must be positive, got %v pps", pps)
	}
	if nflows <= 0 {
		return nil, fmt.Errorf("netqueue: need a positive flow count, got %d", nflows)
	}
	return &Poisson{
		rng:     rand.New(rand.NewSource(seed)),
		meanGap: 1e9 / pps,
		pps:     pps,
		flows:   flowHashes(nflows),
	}, nil
}

// Next returns an exponential gap and a packet from a uniformly random flow.
func (p *Poisson) Next() (float64, Packet) {
	return p.rng.ExpFloat64() * p.meanGap, Packet{Flow: p.flows[p.rng.Intn(len(p.flows))]}
}

// Rate returns the configured arrival rate.
func (p *Poisson) Rate() float64 { return p.pps }

// OnOffConfig parameterises a bursty on/off arrival process.
type OnOffConfig struct {
	// PeakPPS is the arrival rate while the source is ON (the burst rate);
	// BasePPS while it is OFF (may be 0 for a fully silent gap).
	PeakPPS float64
	BasePPS float64
	// MeanOnNs and MeanOffNs are the mean dwell times of the two states
	// (exponentially distributed, so the process is a two-state MMPP).
	MeanOnNs  float64
	MeanOffNs float64
	// Flows is the working-set size (default 256).
	Flows int
	Seed  int64
}

// OnOff is a two-state Markov-modulated Poisson process: bursts at PeakPPS
// for exponentially distributed ON dwells, separated by OFF dwells at
// BasePPS. With PeakPPS above a shard's service rate, bursts probe the
// queue's burst tolerance even when the long-run average load is moderate.
type OnOff struct {
	cfg       OnOffConfig
	rng       *rand.Rand
	on        bool
	dwellLeft float64
	flows     []uint32
}

// NewOnOff builds the bursty process. The long-run average rate is
// Rate() = (MeanOn·Peak + MeanOff·Base) / (MeanOn + MeanOff).
func NewOnOff(cfg OnOffConfig) (*OnOff, error) {
	if err := checkFinite(
		param{"OnOffConfig.PeakPPS", cfg.PeakPPS},
		param{"OnOffConfig.BasePPS", cfg.BasePPS},
		param{"OnOffConfig.MeanOnNs", cfg.MeanOnNs},
		param{"OnOffConfig.MeanOffNs", cfg.MeanOffNs},
	); err != nil {
		return nil, err
	}
	if cfg.PeakPPS <= 0 {
		return nil, fmt.Errorf("netqueue: on/off peak rate must be positive, got %v pps", cfg.PeakPPS)
	}
	if cfg.BasePPS < 0 {
		return nil, fmt.Errorf("netqueue: negative on/off base rate %v", cfg.BasePPS)
	}
	if cfg.MeanOnNs <= 0 || cfg.MeanOffNs <= 0 {
		return nil, fmt.Errorf("netqueue: on/off dwell means must be positive, got on %v off %v", cfg.MeanOnNs, cfg.MeanOffNs)
	}
	if cfg.Flows == 0 {
		cfg.Flows = 256
	}
	if cfg.Flows < 0 {
		return nil, fmt.Errorf("netqueue: need a positive flow count, got %d", cfg.Flows)
	}
	s := &OnOff{
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		on:    true,
		flows: flowHashes(cfg.Flows),
	}
	s.dwellLeft = s.rng.ExpFloat64() * cfg.MeanOnNs
	return s, nil
}

func (s *OnOff) flip() {
	s.on = !s.on
	mean := s.cfg.MeanOffNs
	if s.on {
		mean = s.cfg.MeanOnNs
	}
	s.dwellLeft = s.rng.ExpFloat64() * mean
}

// Next walks the state machine to the next arrival: candidate exponential
// gaps at the current state's rate, re-drawn across state flips (valid by
// memorylessness of the exponential).
func (s *OnOff) Next() (float64, Packet) {
	var total float64
	for {
		rate := s.cfg.BasePPS
		if s.on {
			rate = s.cfg.PeakPPS
		}
		if rate <= 0 {
			// Silent state: jump straight to the flip.
			total += s.dwellLeft
			s.flip()
			continue
		}
		gap := s.rng.ExpFloat64() * (1e9 / rate)
		if gap < s.dwellLeft {
			s.dwellLeft -= gap
			return total + gap, Packet{Flow: s.flows[s.rng.Intn(len(s.flows))]}
		}
		total += s.dwellLeft
		s.flip()
	}
}

// Rate returns the long-run average arrival rate.
func (s *OnOff) Rate() float64 {
	on, off := s.cfg.MeanOnNs, s.cfg.MeanOffNs
	return (on*s.cfg.PeakPPS + off*s.cfg.BasePPS) / (on + off)
}

// Replay replays a trafficgen.DriftingStream as a timed arrival process:
// the stream supplies packet identity (flow five-tuples) and ground-truth
// labels, Replay overlays Poisson timing at a configured rate. The caller
// keeps driving the stream's drift phase (SetPhase); each batch refill
// redraws the flow records at the current phase, so the traffic mix the
// simulator sees follows the drift schedule the data plane serves.
//
// Unlike the synthetic processes, Replay allocates when it refills its
// batch — that boundary is control-plane cadence, not the event loop's
// steady state.
type Replay struct {
	stream  *trafficgen.DriftingStream
	rng     *rand.Rand
	meanGap float64
	pps     float64
	batch   int

	ins []core.PacketIn
	cls []dataset.Class
	pos int
}

// NewReplay replays stream at pps packets/sec, refilling batch packets at a
// time (default 4096).
func NewReplay(stream *trafficgen.DriftingStream, pps float64, batch int, seed int64) (*Replay, error) {
	if stream == nil {
		return nil, fmt.Errorf("netqueue: nil stream")
	}
	if err := checkFinite(param{"replay rate", pps}); err != nil {
		return nil, err
	}
	if pps <= 0 {
		return nil, fmt.Errorf("netqueue: replay rate must be positive, got %v pps", pps)
	}
	if batch == 0 {
		batch = 4096
	}
	if batch < 0 {
		return nil, fmt.Errorf("netqueue: need a positive replay batch, got %d", batch)
	}
	return &Replay{
		stream:  stream,
		rng:     rand.New(rand.NewSource(seed)),
		meanGap: 1e9 / pps,
		pps:     pps,
		batch:   batch,
	}, nil
}

// Next returns the next replayed packet with its label intact.
func (r *Replay) Next() (float64, Packet) {
	if r.pos >= len(r.ins) {
		r.ins, _, r.cls = r.stream.NextBatchClasses(r.batch)
		r.pos = 0
	}
	i := r.pos
	r.pos++
	return r.rng.ExpFloat64() * r.meanGap, Packet{
		Flow:      core.ShardHash(r.ins[i].Data),
		Anomalous: r.cls[i].Anomalous(),
		Class:     int(r.cls[i]),
	}
}

// Rate returns the configured replay rate.
func (r *Replay) Rate() float64 { return r.pps }
