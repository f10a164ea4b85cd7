package netqueue

import (
	"math"
	"strings"
	"testing"

	"taurus/internal/dataset"
	"taurus/internal/obs"
	"taurus/internal/pipeline"
	"taurus/internal/trafficgen"
)

// svc1 is a single 10 ns/packet shard — an M/D/1 queue when fed by Poisson.
func svc1() pipeline.ServiceModel {
	return pipeline.ServiceModel{Shards: 1, MLServiceNs: 10, BypassServiceNs: 1, LatencyNs: 0}
}

func newSim(t *testing.T, cfg Config, arr ArrivalProcess) *Simulator {
	t.Helper()
	s, err := New(cfg, arr)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestValidation(t *testing.T) {
	arr, err := NewPoisson(1e6, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Service: svc1()}, nil); err == nil {
		t.Error("nil arrival process accepted")
	}
	if _, err := New(Config{}, arr); err == nil {
		t.Error("zero service model accepted")
	}
	if _, err := New(Config{Service: pipeline.ServiceModel{Shards: 4}}, arr); err == nil {
		t.Error("service model without a deployed model accepted")
	}
	if _, err := New(Config{Service: svc1(), QueueCap: -1}, arr); err == nil {
		t.Error("negative queue capacity accepted")
	}
	if _, err := NewPoisson(0, 8, 1); err == nil {
		t.Error("zero Poisson rate accepted")
	}
	if _, err := NewOnOff(OnOffConfig{}); err == nil {
		t.Error("zero on/off config accepted")
	}
	if _, err := NewReplay(nil, 1e6, 0, 1); err == nil {
		t.Error("nil replay stream accepted")
	}

	// Non-finite parameters: NaN passes every `x <= 0` check, so each must be
	// refused by name rather than run to a NaN result.
	nan, inf := math.NaN(), math.Inf(1)
	stream, err := trafficgen.NewDriftingStream(dataset.DefaultDriftConfig(), 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	onoff := OnOffConfig{PeakPPS: 1e8, BasePPS: 1e6, MeanOnNs: 1000, MeanOffNs: 1000}
	withSvc := func(edit func(*pipeline.ServiceModel)) Config { return Config{Service: with(svc1(), edit)} }
	for _, tc := range []struct {
		what, field string
		err         error
	}{
		{"NewPoisson(NaN)", "rate", second(NewPoisson(nan, 8, 1))},
		{"NewPoisson(+Inf)", "rate", second(NewPoisson(inf, 8, 1))},
		{"NewReplay(NaN)", "rate", second(NewReplay(stream, nan, 0, 1))},
		{"NewOnOff NaN peak", "PeakPPS", second(NewOnOff(with(onoff, func(c *OnOffConfig) { c.PeakPPS = nan })))},
		{"NewOnOff +Inf peak", "PeakPPS", second(NewOnOff(with(onoff, func(c *OnOffConfig) { c.PeakPPS = inf })))},
		{"NewOnOff NaN base", "BasePPS", second(NewOnOff(with(onoff, func(c *OnOffConfig) { c.BasePPS = nan })))},
		{"NewOnOff NaN on dwell", "MeanOnNs", second(NewOnOff(with(onoff, func(c *OnOffConfig) { c.MeanOnNs = nan })))},
		{"NewOnOff NaN off dwell", "MeanOffNs", second(NewOnOff(with(onoff, func(c *OnOffConfig) { c.MeanOffNs = nan })))},
		{"New NaN MLServiceNs", "MLServiceNs", second(New(withSvc(func(s *pipeline.ServiceModel) { s.MLServiceNs = nan }), arr))},
		{"New +Inf MLServiceNs", "MLServiceNs", second(New(withSvc(func(s *pipeline.ServiceModel) { s.MLServiceNs = inf }), arr))},
		{"New NaN BypassServiceNs", "BypassServiceNs", second(New(withSvc(func(s *pipeline.ServiceModel) { s.BypassServiceNs = nan }), arr))},
		{"New NaN LatencyNs", "LatencyNs", second(New(withSvc(func(s *pipeline.ServiceModel) { s.LatencyNs = nan }), arr))},
		{"New NaN PushStallNs", "PushStallNs", second(New(Config{Service: svc1(), PushStallNs: nan}, arr))},
		{"MaxSustainablePPS(maxDropFrac NaN)", "maxDropFrac", second(MaxSustainablePPS(Config{Service: svc1()},
			func(pps float64) (ArrivalProcess, error) { return NewPoisson(pps, 8, 1) }, 100, nan))},
	} {
		if tc.err == nil {
			t.Errorf("%s accepted", tc.what)
		} else if !strings.Contains(tc.err.Error(), tc.field) {
			t.Errorf("%s: error %q does not name %s", tc.what, tc.err, tc.field)
		}
	}
}

// second returns a constructor's error.
func second[T any](_ T, err error) error { return err }

// with returns a copy of c edited by edit.
func with[T any](c T, edit func(*T)) T {
	edit(&c)
	return c
}

// TestPoissonRate checks the generator's mean interarrival gap.
func TestPoissonRate(t *testing.T) {
	const pps = 2e7
	arr, err := NewPoisson(pps, 64, 7)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	const n = 200_000
	for i := 0; i < n; i++ {
		gap, _ := arr.Next()
		sum += gap
	}
	mean := sum / n
	want := 1e9 / pps
	if math.Abs(mean-want)/want > 0.02 {
		t.Errorf("mean gap = %.2f ns, want %.2f ns", mean, want)
	}
	if arr.Rate() != pps {
		t.Errorf("Rate() = %v, want %v", arr.Rate(), pps)
	}
}

// TestMD1MeanWait pins the simulator to queueing theory: Poisson arrivals
// into one deterministic 10 ns server at utilisation 0.8 must show the
// Pollaczek–Khinchine M/D/1 mean transit time s + ρs/(2(1−ρ)) = 30 ns.
func TestMD1MeanWait(t *testing.T) {
	const rho = 0.8
	arr, err := NewPoisson(rho*1e8, 256, 3)
	if err != nil {
		t.Fatal(err)
	}
	sim := newSim(t, Config{Service: svc1(), QueueCap: 1 << 16}, arr)
	sim.RunPackets(400_000)
	sim.Drain()
	r := sim.Stats()
	want := 10 + rho*10/(2*(1-rho))
	if math.Abs(r.MeanNs-want)/want > 0.10 {
		t.Errorf("M/D/1 mean transit = %.2f ns, want %.2f ns ±10%%", r.MeanNs, want)
	}
	if r.Drops != 0 {
		t.Errorf("drops = %d with a practically infinite queue", r.Drops)
	}
	if r.P50Ns <= 0 || r.P99Ns < r.P50Ns || r.P999Ns < r.P99Ns {
		t.Errorf("percentiles not ordered: p50 %.1f p99 %.1f p999 %.1f", r.P50Ns, r.P99Ns, r.P999Ns)
	}
	if r.MaxNs < r.P999Ns {
		t.Errorf("max %.1f below p999 %.1f", r.MaxNs, r.P999Ns)
	}
}

// TestLatencyIncludesPipelineFill: the pipeline's fill latency rides on
// every served packet.
func TestLatencyIncludesPipelineFill(t *testing.T) {
	svc := svc1()
	svc.LatencyNs = 100
	arr, err := NewPoisson(1e6, 8, 1) // utterly idle: no queueing
	if err != nil {
		t.Fatal(err)
	}
	sim := newSim(t, Config{Service: svc}, arr)
	sim.RunPackets(10_000)
	sim.Drain()
	r := sim.Stats()
	want := 110.0 // service + fill, no wait
	if math.Abs(r.MeanNs-want) > 1 {
		t.Errorf("idle mean transit = %.2f ns, want %.2f", r.MeanNs, want)
	}
}

// TestOverloadDrops: offering 2x a queue's capacity must drop about half
// the traffic once the finite queue fills.
func TestOverloadDrops(t *testing.T) {
	arr, err := NewPoisson(2e8, 256, 5) // 2x the 1e8 pps capacity
	if err != nil {
		t.Fatal(err)
	}
	sim := newSim(t, Config{Service: svc1(), QueueCap: 64}, arr)
	sim.RunPackets(400_000)
	sim.Drain()
	r := sim.Stats()
	if math.Abs(r.DropFrac-0.5) > 0.03 {
		t.Errorf("drop fraction = %.3f at 2x overload, want ~0.5", r.DropFrac)
	}
	if r.MaxDepth != 64 {
		t.Errorf("max depth = %d, want the full queue capacity 64", r.MaxDepth)
	}
	// The served rate is the service capacity.
	servedPPS := float64(r.Served) / r.DurationNs * 1e9
	if math.Abs(servedPPS-1e8)/1e8 > 0.02 {
		t.Errorf("served rate = %.3g pps, want ~1e8", servedPPS)
	}
}

// TestOnOffBurstTolerance: at the same average load, bursty arrivals must
// show a far heavier latency tail than Poisson arrivals.
func TestOnOffBurstTolerance(t *testing.T) {
	const avg = 0.7e8 // 70% of the single shard's 1e8 pps
	pois, err := NewPoisson(avg, 256, 9)
	if err != nil {
		t.Fatal(err)
	}
	simP := newSim(t, Config{Service: svc1(), QueueCap: 1 << 14}, pois)
	simP.RunPackets(300_000)
	simP.Drain()

	burst, err := NewOnOff(OnOffConfig{
		PeakPPS: 1.75 * avg, BasePPS: 0.25 * avg,
		MeanOnNs: 20_000, MeanOffNs: 20_000, Flows: 256, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(burst.Rate()-avg)/avg > 1e-9 {
		t.Fatalf("on/off long-run rate = %v, want %v", burst.Rate(), avg)
	}
	simB := newSim(t, Config{Service: svc1(), QueueCap: 1 << 14}, burst)
	simB.RunPackets(300_000)
	simB.Drain()

	rp, rb := simP.Stats(), simB.Stats()
	// The observed arrival rate must match the configured average.
	if math.Abs(rb.ObservedPPS-avg)/avg > 0.05 {
		t.Errorf("on/off observed rate = %.3g pps, want ~%.3g", rb.ObservedPPS, avg)
	}
	if rb.P99Ns < 4*rp.P99Ns {
		t.Errorf("bursty p99 = %.1f ns not clearly above Poisson p99 = %.1f ns", rb.P99Ns, rp.P99Ns)
	}
}

// TestPushStall: a weight push under load pauses service, so the next
// measurement window shows the latency spike (and, with a small queue,
// drops) that the stall caused; a later window has recovered.
func TestPushStall(t *testing.T) {
	const rho = 0.8
	arr, err := NewPoisson(rho*1e8, 256, 11)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Service: svc1(), QueueCap: 256, PushStallNs: 20_000}
	sim := newSim(t, cfg, arr)
	sim.RunPackets(100_000)
	steady := sim.Stats()
	if steady.Drops != 0 {
		t.Fatalf("steady state dropped %d packets before the push", steady.Drops)
	}
	sim.ResetStats()

	sim.Push()
	sim.RunPackets(100_000)
	pushWin := sim.Stats()
	sim.ResetStats()

	sim.RunPackets(100_000)
	after := sim.Stats()

	if pushWin.Pushes != 1 {
		t.Errorf("push window recorded %d pushes, want 1", pushWin.Pushes)
	}
	if pushWin.Drops == 0 {
		t.Error("a 20µs stall at 80% load over a 256-slot queue must drop packets")
	}
	if pushWin.MaxNs < cfg.PushStallNs {
		t.Errorf("push-window max latency %.0f ns below the stall %v ns", pushWin.MaxNs, cfg.PushStallNs)
	}
	if after.Drops != 0 {
		t.Errorf("window after the push still dropping (%d): queue did not recover", after.Drops)
	}
	if after.P99Ns > 4*steady.P99Ns {
		t.Errorf("p99 after push = %.1f ns vs steady %.1f ns: no recovery", after.P99Ns, steady.P99Ns)
	}
}

// TestReplayLabels: a replayed drifting stream keeps its ground-truth
// labels, so drops are attributable by class.
func TestReplayLabels(t *testing.T) {
	stream, err := trafficgen.NewDriftingStream(dataset.DefaultDriftConfig(), 13, 64)
	if err != nil {
		t.Fatal(err)
	}
	arr, err := NewReplay(stream, 2e8, 1024, 13) // 2x capacity: force drops
	if err != nil {
		t.Fatal(err)
	}
	sim := newSim(t, Config{Service: svc1(), QueueCap: 64}, arr)
	sim.RunPackets(100_000)
	sim.Drain()
	r := sim.Stats()
	if r.Drops == 0 {
		t.Fatal("overloaded replay did not drop")
	}
	if r.DroppedAnomalous == 0 {
		t.Error("no dropped packet carried an anomalous label — labels lost in replay")
	}
	if r.DroppedAnomalous > r.Drops {
		t.Errorf("DroppedAnomalous %d > Drops %d", r.DroppedAnomalous, r.Drops)
	}
}

// TestDeterminism: identical seeds must produce identical results.
func TestDeterminism(t *testing.T) {
	run := func() Result {
		arr, err := NewOnOff(OnOffConfig{
			PeakPPS: 1.5e8, BasePPS: 2e7, MeanOnNs: 10_000, MeanOffNs: 30_000, Seed: 21,
		})
		if err != nil {
			t.Fatal(err)
		}
		sim := newSim(t, Config{Service: svc1(), QueueCap: 128}, arr)
		sim.RunPackets(50_000)
		sim.Push()
		sim.RunPackets(50_000)
		sim.Drain()
		return sim.Stats()
	}
	if a, b := run(), run(); a != b {
		t.Errorf("two identically seeded runs diverged:\n%+v\n%+v", a, b)
	}
}

// TestWindowedStats: ResetStats starts a fresh interval on the same
// timeline.
func TestWindowedStats(t *testing.T) {
	arr, err := NewPoisson(5e7, 64, 17)
	if err != nil {
		t.Fatal(err)
	}
	sim := newSim(t, Config{Service: svc1()}, arr)
	sim.RunPackets(10_000)
	first := sim.Stats()
	sim.ResetStats()
	second := sim.Stats()
	if second.Packets != 0 || second.Served != 0 || second.DurationNs != 0 {
		t.Errorf("reset interval not empty: %+v", second)
	}
	sim.RunPackets(10_000)
	third := sim.Stats()
	if third.Packets != 10_000 {
		t.Errorf("second window saw %d arrivals, want 10000", third.Packets)
	}
	if first.Packets != 10_000 {
		t.Errorf("first window saw %d arrivals, want 10000", first.Packets)
	}
}

// TestMaxSustainablePPS: one 10 ns shard sustains ~1e8 pps under Poisson
// load before drops exceed the tolerance.
func TestMaxSustainablePPS(t *testing.T) {
	cfg := Config{Service: svc1(), QueueCap: 1024}
	mk := func(pps float64) (ArrivalProcess, error) { return NewPoisson(pps, 256, 19) }
	got, err := MaxSustainablePPS(cfg, mk, 60_000, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if got < 0.85e8 || got > 1.05e8 {
		t.Errorf("sustainable load = %.3g pps, want ~1e8 (the 10 ns shard's capacity)", got)
	}
}

// TestHistQuantiles: the log-linear histogram's quantiles stay within its
// ~3% bucket resolution.
func TestHistQuantiles(t *testing.T) {
	var h obs.Histogram
	for v := 1; v <= 100_000; v++ {
		h.Record(float64(v))
	}
	for _, tc := range []struct{ q, want float64 }{
		{0.50, 50_000}, {0.99, 99_000}, {0.999, 99_900},
	} {
		got := h.Quantile(tc.q)
		if math.Abs(got-tc.want)/tc.want > 0.04 {
			t.Errorf("quantile(%v) = %.0f, want %.0f ±4%%", tc.q, got, tc.want)
		}
	}
	h.Reset()
	if h.Quantile(0.5) != 0 {
		t.Error("reset histogram should report 0")
	}
}

// TestEventLoopAllocs guards the steady-state zero-allocation contract of
// the heap-based event loop, like the ProcessBatch hot path.
func TestEventLoopAllocs(t *testing.T) {
	arr, err := NewPoisson(0.8e8, 256, 23)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := New(Config{Service: svc1(), QueueCap: 1024}, arr)
	if err != nil {
		t.Fatal(err)
	}
	sim.RunPackets(10_000) // warm up: heap and rings at steady capacity
	allocs := testing.AllocsPerRun(20, func() {
		sim.RunPackets(2_000)
	})
	if allocs != 0 {
		t.Errorf("event loop allocated %.1f times per run in steady state, want 0", allocs)
	}
}

// benchSvc is the shape the gated benchmark's sim_pps measures: 4 shards at
// one ns per ML packet, 512 flows, the default 512-packet queues.
var benchSvc = pipeline.ServiceModel{Shards: 4, MLServiceNs: 1, BypassServiceNs: 1}

// benchEventLoop times the event loop per simulated packet; it must report
// 0 allocs/op in the steady state.
func benchEventLoop(b *testing.B, arr ArrivalProcess) {
	sim, err := New(Config{Service: benchSvc, QueueCap: 512}, arr)
	if err != nil {
		b.Fatal(err)
	}
	sim.RunPackets(10_000) // warm up
	b.ReportAllocs()
	b.ResetTimer()
	sim.RunPackets(b.N)
	b.StopTimer()
	r := sim.Stats()
	b.ReportMetric(r.P99Ns, "p99-ns")
	b.ReportMetric(r.DropFrac*100, "drop-pct")
}

// BenchmarkSimulatorEventLoop: Poisson arrivals at 0.8 of nominal.
func BenchmarkSimulatorEventLoop(b *testing.B) {
	arr, err := NewPoisson(0.8*benchSvc.NominalPPS(), 512, 1)
	if err != nil {
		b.Fatal(err)
	}
	benchEventLoop(b, arr)
}

// BenchmarkSimulatorEventLoopOnOff: bursts at 4x nominal for a mean 400
// services, a long-run 0.7 of nominal — queues fill and drop.
func BenchmarkSimulatorEventLoopOnOff(b *testing.B) {
	const peakX, load = 4.0, 0.7
	onNs := 400 * benchSvc.MLServiceNs
	arr, err := NewOnOff(OnOffConfig{
		PeakPPS:   peakX * benchSvc.NominalPPS(),
		MeanOnNs:  onNs,
		MeanOffNs: onNs * (peakX/load - 1),
		Flows:     512,
		Seed:      1,
	})
	if err != nil {
		b.Fatal(err)
	}
	benchEventLoop(b, arr)
}

// TestPushStallZeroIsFree: an explicit PushStallNs of 0 models a free
// weight push — no stall, no spike — rather than silently taking a default.
func TestPushStallZeroIsFree(t *testing.T) {
	arr, err := NewPoisson(0.8e8, 256, 11)
	if err != nil {
		t.Fatal(err)
	}
	sim := newSim(t, Config{Service: svc1(), QueueCap: 256, PushStallNs: 0}, arr)
	sim.RunPackets(50_000)
	steady := sim.Stats()
	sim.ResetStats()
	sim.Push()
	sim.RunPackets(50_000)
	r := sim.Stats()
	if r.Pushes != 1 {
		t.Errorf("pushes = %d, want 1", r.Pushes)
	}
	if r.Drops != 0 {
		t.Errorf("a free push dropped %d packets", r.Drops)
	}
	if r.P99Ns > 2*steady.P99Ns {
		t.Errorf("free push moved p99 from %.1f to %.1f ns", steady.P99Ns, r.P99Ns)
	}
}
