// Package trafficgen builds synthetic traffic-plane workloads: batches of
// serialised TCP packets over a working set of flows, each packet carrying
// its flow's record feature vector. Shared by the throughput and drift
// experiments, the benchmarks and the pipeline tests so the traffic shape is
// defined once.
package trafficgen

import (
	"fmt"
	"math/rand"
	"sync"

	"taurus/internal/core"
	"taurus/internal/dataset"
	"taurus/internal/pisa"
)

// AnomalyBatch builds n packets over nflows flows (round-robin), with
// features drawn from the §5.2.2 anomaly generator under the given seed.
// The returned decision slice is sized to match for ProcessBatch.
func AnomalyBatch(seed int64, n, nflows int) ([]core.PacketIn, []core.Decision, error) {
	rng := rand.New(rand.NewSource(seed))
	gen, err := dataset.NewAnomalyGenerator(dataset.DefaultAnomalyConfig(), rng)
	if err != nil {
		return nil, nil, err
	}
	pkts := make([][]byte, nflows)
	feats := make([][]float32, nflows)
	for f := 0; f < nflows; f++ {
		pkts[f] = pisa.BuildTCPPacket(0x0a000000+uint32(f), 0x0a800001,
			uint16(1024+f), 443, 0x10, 64)
		feats[f] = gen.Record().Features
	}
	ins := make([]core.PacketIn, n)
	for i := range ins {
		f := i % nflows
		ins[i] = core.PacketIn{Data: pkts[f], Features: feats[f]}
	}
	return ins, make([]core.Decision, n), nil
}

// DriftSource is the workload contract a DriftingStream drives: a labelled
// record generator whose distribution moves with an externally-set phase.
// dataset.DriftingGenerator (anomaly records) and
// dataset.DriftingIoTGenerator (device categories) both satisfy it.
type DriftSource interface {
	SetPhase(p float64)
	Phase() float64
	Record() dataset.Record
}

// StreamOption configures a DriftingStream.
type StreamOption func(*DriftingStream)

// WithLabelDelay makes the label feed lag the traffic by n SetPhase steps:
// Labelled draws at the phase the stream was set to n steps ago, modelling
// the real latency of ground truth (operator triage, honeypot correlation,
// delayed feedback). 0 (the default) keeps labels current.
func WithLabelDelay(n int) StreamOption {
	return func(s *DriftingStream) {
		if n > 0 {
			s.labelDelay = n
		}
	}
}

// WithLabelNoise flips each labelled record's class with probability p —
// mislabelled telemetry the controller must train through. Binary flips
// toggle benign/anomalous; with WithLabelClasses(k) a noisy record is
// relabelled with a uniformly random different class.
func WithLabelNoise(p float64) StreamOption {
	return func(s *DriftingStream) { s.noiseP = p }
}

// WithLabelClasses declares the workload multi-class with k categories, so
// label noise draws a random wrong class instead of the binary flip.
func WithLabelClasses(k int) StreamOption {
	return func(s *DriftingStream) { s.numClasses = k }
}

// DriftingStream produces labelled traffic whose distribution drifts over
// time: batches of packets over a fixed flow working set, each flow
// re-drawing its record — features and ground-truth class — every batch at
// the stream's current phase.
//
// The stream holds two independently-seeded DriftSources at the same phase
// (label delay aside): one drives the traffic, the other serves the control
// plane's labelled telemetry (Labelled), so a controller sampling labels
// never perturbs the packet sequence the data plane sees — frozen-baseline
// and closed-loop runs over the same stream stay packet-for-packet
// comparable.
type DriftingStream struct {
	traffic DriftSource

	labelMu sync.Mutex // a background controller samples labels concurrently
	labels  DriftSource

	// Label realism knobs (see WithLabelDelay / WithLabelNoise).
	labelDelay int
	phaseHist  []float64
	noiseP     float64
	noiseRng   *rand.Rand
	numClasses int

	pkts  [][]byte
	feats [][]float32
	cls   []dataset.Class
}

// NewDriftingStream builds a stream of nflows anomaly-workload flows under
// cfg, at phase 0.
func NewDriftingStream(cfg dataset.DriftConfig, seed int64, nflows int, opts ...StreamOption) (*DriftingStream, error) {
	traffic, err := dataset.NewDriftingGenerator(cfg, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, err
	}
	labels, err := dataset.NewDriftingGenerator(cfg, rand.New(rand.NewSource(seed+1)))
	if err != nil {
		return nil, err
	}
	return NewDriftingStreamFrom(traffic, labels, seed, nflows, opts...)
}

// MemberSeedStride spaces per-member stream seeds: every stream derives
// three seeds internally (traffic, labels, noise: seed, seed+1, seed+2), so
// any stride past 3 avoids overlap; a four-digit prime also keeps derived
// seeds from colliding with the small hand-picked seeds tests use.
const MemberSeedStride = 1009

// NewDriftingStreams builds n independently seeded streams of the same
// drifting anomaly workload — one per fleet member. Each member sees its own
// traffic mix (its own flows, record draws and label feed) while the caller
// drives every stream through its own phase schedule, the shape of a fleet
// deployment where switches drift at different times. Member i is seeded
// seed + i*MemberSeedStride.
func NewDriftingStreams(cfg dataset.DriftConfig, seed int64, nflows, n int, opts ...StreamOption) ([]*DriftingStream, error) {
	if n <= 0 {
		return nil, fmt.Errorf("trafficgen: need a positive member count, got %d", n)
	}
	streams := make([]*DriftingStream, n)
	for i := range streams {
		s, err := NewDriftingStream(cfg, seed+int64(i)*MemberSeedStride, nflows, opts...)
		if err != nil {
			return nil, err
		}
		streams[i] = s
	}
	return streams, nil
}

// NewDriftingIoTStream builds a stream of nflows drifting IoT-classification
// flows under cfg, at phase 0. Label noise draws random wrong categories
// (WithLabelClasses is preset).
func NewDriftingIoTStream(cfg dataset.IoTDriftConfig, seed int64, nflows int, opts ...StreamOption) (*DriftingStream, error) {
	traffic, err := dataset.NewDriftingIoTGenerator(cfg, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, err
	}
	labels, err := dataset.NewDriftingIoTGenerator(cfg, rand.New(rand.NewSource(seed+1)))
	if err != nil {
		return nil, err
	}
	if cfg.Base == (dataset.IoTConfig{}) {
		cfg.Base = dataset.KMeansIoTConfig()
	}
	opts = append([]StreamOption{WithLabelClasses(cfg.Base.NumClasses)}, opts...)
	return NewDriftingStreamFrom(traffic, labels, seed, nflows, opts...)
}

// NewDriftingStreamFrom builds a stream over caller-supplied traffic and
// label sources. The two sources must be independently seeded instances of
// the same workload; seed feeds the stream's own randomness (label noise).
func NewDriftingStreamFrom(traffic, labels DriftSource, seed int64, nflows int, opts ...StreamOption) (*DriftingStream, error) {
	if traffic == nil || labels == nil {
		return nil, fmt.Errorf("trafficgen: nil drift source")
	}
	if nflows <= 0 {
		return nil, fmt.Errorf("trafficgen: need a positive flow count, got %d", nflows)
	}
	s := &DriftingStream{
		traffic:  traffic,
		labels:   labels,
		noiseRng: rand.New(rand.NewSource(seed + 2)),
		pkts:     make([][]byte, nflows),
		feats:    make([][]float32, nflows),
		cls:      make([]dataset.Class, nflows),
	}
	for _, opt := range opts {
		opt(s)
	}
	// Written so that NaN fails too: every comparison with NaN is false.
	if !(s.noiseP >= 0 && s.noiseP < 1) {
		return nil, fmt.Errorf("trafficgen: label noise must be in [0,1), got %v", s.noiseP)
	}
	// Pre-fill the phase history with the label feed's starting phase, so a
	// delayed feed stays at that phase for the first labelDelay SetPhase
	// steps instead of leaking the first new phase immediately.
	for i := 0; i < s.labelDelay+1; i++ {
		s.phaseHist = append(s.phaseHist, labels.Phase())
	}
	for f := 0; f < nflows; f++ {
		s.pkts[f] = pisa.BuildTCPPacket(0x0a000000+uint32(f), 0x0a800001,
			uint16(1024+f), 443, 0x10, 64)
	}
	return s, nil
}

// SetPhase moves the traffic to drift phase p (clamped into [0, 1] by the
// sources). The label feed follows with the configured delay.
func (s *DriftingStream) SetPhase(p float64) {
	s.traffic.SetPhase(p)
	s.labelMu.Lock()
	s.phaseHist = append(s.phaseHist, p)
	if drop := len(s.phaseHist) - (s.labelDelay + 1); drop > 0 {
		s.phaseHist = s.phaseHist[drop:]
	}
	s.labels.SetPhase(s.phaseHist[0])
	s.labelMu.Unlock()
}

// Phase returns the current drift phase of the traffic.
func (s *DriftingStream) Phase() float64 { return s.traffic.Phase() }

// NextBatch re-draws every flow's record at the current phase and returns n
// packets round-robin across the flows, a matching decision buffer, and the
// per-packet ground truth (true = anomalous).
func (s *DriftingStream) NextBatch(n int) ([]core.PacketIn, []core.Decision, []bool) {
	ins, outs, cls := s.next(n)
	truth := make([]bool, n)
	for i := range truth {
		truth[i] = cls[i].Anomalous()
	}
	return ins, outs, truth
}

// NextBatchClasses is NextBatch for multi-class workloads: the third return
// is the per-packet ground-truth class index instead of the binary anomaly
// flag.
func (s *DriftingStream) NextBatchClasses(n int) ([]core.PacketIn, []core.Decision, []dataset.Class) {
	ins, outs, cls := s.next(n)
	return ins, outs, cls
}

func (s *DriftingStream) next(n int) ([]core.PacketIn, []core.Decision, []dataset.Class) {
	for f := range s.pkts {
		r := s.traffic.Record()
		s.feats[f] = r.Features
		s.cls[f] = r.Class
	}
	ins := make([]core.PacketIn, n)
	cls := make([]dataset.Class, n)
	for i := range ins {
		f := i % len(s.pkts)
		ins[i] = core.PacketIn{Data: s.pkts[f], Features: s.feats[f]}
		cls[i] = s.cls[f]
	}
	return ins, make([]core.Decision, n), cls
}

// Labelled draws n labelled records at the label feed's phase — the control
// plane's sampled, ground-truth-joined telemetry. Label delay and label
// noise apply here and only here: the traffic truth NextBatch reports stays
// exact, so experiments can score against reality while the controller
// trains on the degraded feed. Safe to call from a background controller
// concurrently with SetPhase and NextBatch.
func (s *DriftingStream) Labelled(n int) []dataset.Record {
	s.labelMu.Lock()
	defer s.labelMu.Unlock()
	out := make([]dataset.Record, n)
	for i := range out {
		out[i] = s.labels.Record()
		if s.noiseP > 0 && s.noiseRng.Float64() < s.noiseP {
			out[i].Class = s.noisyClass(out[i].Class)
		}
	}
	return out
}

// noisyClass returns a wrong label for c: the binary benign/anomalous flip,
// or a uniformly random different category when the workload is multi-class.
func (s *DriftingStream) noisyClass(c dataset.Class) dataset.Class {
	if s.numClasses > 1 {
		nc := dataset.Class(s.noiseRng.Intn(s.numClasses - 1))
		if nc >= c {
			nc++
		}
		return nc
	}
	if c == dataset.Benign {
		return dataset.DoS
	}
	return dataset.Benign
}
