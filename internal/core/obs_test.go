package core

import (
	"math/rand"
	"strings"
	"sync"
	"testing"

	"taurus/internal/compiler"
	"taurus/internal/dataset"
	"taurus/internal/lower"
	mr "taurus/internal/mapreduce"
	"taurus/internal/ml"
	"taurus/internal/obs"
	"taurus/internal/pisa"
)

// buildObsDevice is buildAnomalyDevice with an explicit registry, so the
// tests can inspect exactly the instruments this device registered.
func buildObsDevice(t *testing.T, reg *obs.Registry) (*Device, *dataset.AnomalyGenerator) {
	t.Helper()
	rng := rand.New(rand.NewSource(200))
	gen, err := dataset.NewAnomalyGenerator(dataset.DefaultAnomalyConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	X, y := dataset.Split(gen.Records(800))
	n := ml.NewDNN([]int{6, 12, 6, 3, 1}, ml.ReLU, ml.Sigmoid, rng)
	ml.NewTrainer(n, ml.SGDConfig{LearningRate: 0.05, Momentum: 0.9, BatchSize: 32, Epochs: 20}, rng).Fit(X, y)
	q, err := ml.Quantize(n, X[:200])
	if err != nil {
		t.Fatal(err)
	}
	g, err := lower.DNN(q, "anomaly")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(6)
	cfg.Obs = reg
	cfg.ObsLabels = []obs.Label{obs.L("dev", "test")}
	dev, err := NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.LoadModel(g, q.InputQ, compiler.Options{}); err != nil {
		t.Fatal(err)
	}
	return dev, gen
}

// TestStatsConcurrentWithTraffic polls Stats while a worker goroutine drives
// the packet path — the -race regression for Stats() being a synchronised
// snapshot rather than a copy of plainly-mutated fields. (The Device itself
// stays single-writer, as documented; only observation is concurrent.)
func TestStatsConcurrentWithTraffic(t *testing.T) {
	dev, gen := buildObsDevice(t, obs.NewRegistry())
	recs := gen.Records(64)
	ins := make([]PacketIn, len(recs))
	out := make([]Decision, len(recs))
	for i, r := range recs {
		ins[i] = PacketIn{
			Data:     pisa.BuildTCPPacket(uint32(i), 2, uint16(3+i), 4, 0x10, 64),
			Features: r.Features,
		}
	}

	const rounds = 200
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := 0; r < rounds; r++ {
			if err := dev.ProcessBatch(ins, out); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	// Poll under live traffic: every snapshot must be internally sane even
	// though it races the batches.
	lastProcessed := 0
	for i := 0; i < 500; i++ {
		s := dev.Stats()
		if s.Processed < lastProcessed {
			t.Fatalf("Processed went backwards: %d after %d", s.Processed, lastProcessed)
		}
		lastProcessed = s.Processed
		if got := s.MLInferences + s.Bypassed; got > s.Processed {
			t.Fatalf("ml+bypass = %d exceeds processed = %d", got, s.Processed)
		}
	}
	wg.Wait()

	s := dev.Stats()
	if want := rounds * len(ins); s.Processed != want {
		t.Fatalf("final Processed = %d, want %d", s.Processed, want)
	}
	if s.MLInferences+s.Bypassed != s.Processed {
		t.Fatalf("ml %d + bypass %d != processed %d", s.MLInferences, s.Bypassed, s.Processed)
	}
}

// TestStatsIsRegistryView checks Stats() agrees with the registry snapshot
// and the service-time histogram's invariants: one sample per packet, sum
// equal to the modelled busy time.
func TestStatsIsRegistryView(t *testing.T) {
	reg := obs.NewRegistry()
	dev, gen := buildObsDevice(t, reg)
	recs := gen.Records(100)
	ins := make([]PacketIn, len(recs))
	out := make([]Decision, len(recs))
	for i, r := range recs {
		ins[i] = PacketIn{
			Data:     pisa.BuildTCPPacket(uint32(i), 2, uint16(3+i), 4, 0x10, 64),
			Features: r.Features,
		}
	}
	if err := dev.ProcessBatch(ins, out); err != nil {
		t.Fatal(err)
	}
	s := dev.Stats()
	if s.MLInferences == 0 {
		t.Fatal("no ML inferences — test traffic broken")
	}

	byName := map[string]obs.Metric{}
	for _, m := range reg.Snapshot() {
		byName[m.Name] = m
	}
	for name, want := range map[string]int{
		"taurus.device.processed":     s.Processed,
		"taurus.device.ml_inferences": s.MLInferences,
		"taurus.device.bypassed":      s.Bypassed,
		"taurus.device.forwarded":     s.Forwarded,
		"taurus.device.flagged":       s.Flagged,
		"taurus.device.dropped":       s.Dropped,
		"taurus.device.model_busy_ns": int(s.ModelBusyNs),
	} {
		m, ok := byName[name]
		if !ok {
			t.Errorf("registry missing %s", name)
			continue
		}
		if int(m.Value) != want {
			t.Errorf("%s = %d, Stats says %d", name, m.Value, want)
		}
	}

	h := dev.m.serviceNs
	if got, want := h.Count(), int64(s.MLInferences+s.Bypassed); got != want {
		t.Errorf("service histogram holds %d samples, want ml+bypass = %d", got, want)
	}
	if got, want := h.Sum(), s.ModelBusyNs; got != want {
		t.Errorf("service histogram sum = %g, ModelBusyNs = %g", got, want)
	}
	// The ML service time is the installed schedule's II.
	if q := h.Quantile(0.99); dev.model.ScheduledII() > 1 && q < float64(dev.model.ScheduledII())/2 {
		t.Errorf("p99 service = %g, want near II = %d", q, dev.model.ScheduledII())
	}
}

// TestSweepCounters pins the two tape counters to what the device did: one
// taurus.device.sweeps per RunBatch (so ml_inferences / sweeps is the mean
// fill), and taurus.device.tape_fallbacks equal to the program's own count of
// matvec cells that left the packed path — zero on the trained model, and
// data rather than a silent slowdown once weights that fail the guard are
// pushed. Counting costs no allocation.
func TestSweepCounters(t *testing.T) {
	reg := obs.NewRegistry()
	dev, gen := buildObsDevice(t, reg)
	recs := gen.Records(100)
	ins := make([]PacketIn, len(recs))
	out := make([]Decision, len(recs))
	for i, r := range recs {
		ins[i] = PacketIn{
			Data:     pisa.BuildTCPPacket(uint32(i), 2, uint16(3+i), 4, 0x10, 64),
			Features: r.Features,
		}
	}
	counter := func(name string) int {
		for _, m := range reg.Snapshot() {
			if m.Name == name {
				return int(m.Value)
			}
		}
		t.Fatalf("registry missing %s", name)
		return 0
	}

	if err := dev.ProcessBatch(ins, out); err != nil {
		t.Fatal(err)
	}
	batch := dev.prog.MaxBatch()
	if got, want := counter("taurus.device.sweeps"), (len(ins)+batch-1)/batch; got != want {
		t.Errorf("sweeps = %d after %d ML packets at batch %d, want %d", got, len(ins), batch, want)
	}
	if got := counter("taurus.device.ml_inferences"); got != len(ins) {
		t.Errorf("ml_inferences = %d, want %d", got, len(ins))
	}
	if got := counter("taurus.device.tape_fallbacks"); got != 0 || dev.prog.Fallbacks() != 0 {
		t.Errorf("tape_fallbacks = %d (program says %d) on int8 weights and codes, want 0", got, dev.prog.Fallbacks())
	}

	// Weights the static gate accepts that still fail the packing guard,
	// pushed between two sweeps: every first-layer row zero but one weight of
	// exactly 2^24, no biases, and every packet's feature 0 at code −128. The
	// lane's range [−2^31, 127·2^24] fits Fix32, but the guard's
	// Σ|w|·max|x| = 2^24·128 exceeds MaxInt32.
	guarded := dev.prog.Graph().Clone() // the loaded graph: nothing was pushed yet
	for _, n := range guarded.Nodes {
		switch {
		case n.Kind != mr.KConst:
		case strings.HasPrefix(n.Name, "W0_"):
			clear(n.Const)
			if n.Name == "W0_0" {
				n.Const[0] = 1 << 24
			}
		case n.Width == 1:
			n.Const[0] = 0
		}
	}
	if err := dev.UpdateWeights(guarded); err != nil {
		t.Fatal(err)
	}
	for i := range ins {
		ins[i].Features[0] = dev.model.InputQuantizer().Dequantize(-128)
	}
	if allocs := testing.AllocsPerRun(10, func() { _ = dev.ProcessBatch(ins, out) }); allocs != 0 {
		t.Errorf("ProcessBatch allocates %.1f times per call while counting fallbacks, want 0", allocs)
	}
	got, want := counter("taurus.device.tape_fallbacks"), dev.prog.Fallbacks()
	if got != want || got == 0 {
		t.Errorf("tape_fallbacks = %d, program counted %d: want equal and non-zero", got, want)
	}
	if (dev.tally != devTally{}) {
		t.Errorf("tally not flushed: %+v", dev.tally)
	}
}
