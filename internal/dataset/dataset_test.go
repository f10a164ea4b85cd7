package dataset

import (
	"math"
	"math/rand"
	"testing"
)

func TestAnomalyConfigValidation(t *testing.T) {
	bad := []AnomalyConfig{
		{NumFeatures: 0, AnomalyFraction: 0.3, Separation: 1},
		{NumFeatures: 9, AnomalyFraction: 0.3, Separation: 1},
		{NumFeatures: 6, AnomalyFraction: 0, Separation: 1},
		{NumFeatures: 6, AnomalyFraction: 1, Separation: 1},
		{NumFeatures: 6, AnomalyFraction: 0.3, Separation: 0},
	}
	rng := rand.New(rand.NewSource(1))
	for i, cfg := range bad {
		if _, err := NewAnomalyGenerator(cfg, rng); err == nil {
			t.Errorf("config %d should be rejected: %+v", i, cfg)
		}
	}
	if _, err := NewAnomalyGenerator(DefaultAnomalyConfig(), rng); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

func TestAnomalyFractionRespected(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g, err := NewAnomalyGenerator(DefaultAnomalyConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	recs := g.Records(20000)
	anom := 0
	for _, r := range recs {
		if r.Anomalous() {
			anom++
		}
	}
	frac := float64(anom) / float64(len(recs))
	if math.Abs(frac-0.3) > 0.02 {
		t.Errorf("anomaly fraction = %v, want ~0.3", frac)
	}
}

// Records(n) is n Record calls on one backing array: the same rng draws in
// the same order, and no record can grow into its neighbour.
func TestRecordsEqualsSingleDraws(t *testing.T) {
	const n = 300
	for seed := int64(1); seed <= 3; seed++ {
		bulk, _ := NewAnomalyGenerator(DefaultAnomalyConfig(), rand.New(rand.NewSource(seed)))
		single, _ := NewAnomalyGenerator(DefaultAnomalyConfig(), rand.New(rand.NewSource(seed)))
		recs := bulk.Records(n)
		for i, r := range recs {
			want := single.Record()
			if r.Class != want.Class || len(r.Features) != len(want.Features) {
				t.Fatalf("seed %d record %d: class %v width %d, single draw %v width %d",
					seed, i, r.Class, len(r.Features), want.Class, len(want.Features))
			}
			for f := range want.Features {
				if math.Float32bits(r.Features[f]) != math.Float32bits(want.Features[f]) {
					t.Fatalf("seed %d record %d feature %d = %v, single draw %v",
						seed, i, f, r.Features[f], want.Features[f])
				}
			}
		}
		if a, b := bulk.Record(), single.Record(); a.Class != b.Class || a.Features[0] != b.Features[0] {
			t.Fatalf("seed %d: generators diverged after %d records", seed, n)
		}
		next := recs[1].Features[0]
		grown := append(recs[0].Features, 99)
		if recs[1].Features[0] != next || &grown[0] == &recs[0].Features[0] {
			t.Fatalf("seed %d: appending to record 0 wrote into record 1's storage", seed)
		}
	}
}

func TestFeatureRange(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g, _ := NewAnomalyGenerator(DefaultAnomalyConfig(), rng)
	for _, r := range g.Records(5000) {
		if len(r.Features) != NumAnomalyFeatures {
			t.Fatalf("feature count = %d", len(r.Features))
		}
		for _, f := range r.Features {
			if f < 0 || f > 8 {
				t.Fatalf("feature %v outside [0,8]", f)
			}
		}
	}
}

func TestClassesAreSeparable(t *testing.T) {
	// DoS flows should have clearly smaller dst_bytes (feature 2) than
	// benign on average — the generator encodes that structure.
	rng := rand.New(rand.NewSource(4))
	g, _ := NewAnomalyGenerator(DefaultAnomalyConfig(), rng)
	var benign, dos float64
	nb, nd := 0, 0
	for i := 0; i < 4000; i++ {
		r := g.Record()
		switch r.Class {
		case Benign:
			benign += float64(r.Features[2])
			nb++
		case DoS:
			dos += float64(r.Features[2])
			nd++
		}
	}
	if nb == 0 || nd == 0 {
		t.Fatal("classes not sampled")
	}
	if benign/float64(nb) <= dos/float64(nd) {
		t.Errorf("benign dst_bytes mean %v should exceed DoS mean %v",
			benign/float64(nb), dos/float64(nd))
	}
}

func TestRecordOfClass(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g, _ := NewAnomalyGenerator(DefaultAnomalyConfig(), rng)
	for c := Benign; c < numClasses; c++ {
		r := g.RecordOfClass(c)
		if r.Class != c {
			t.Errorf("RecordOfClass(%v).Class = %v", c, r.Class)
		}
	}
}

func TestClassStrings(t *testing.T) {
	want := map[Class]string{Benign: "benign", DoS: "dos", Probe: "probe", U2R: "u2r", R2L: "r2l"}
	for c, s := range want {
		if c.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(c), c.String(), s)
		}
	}
	if Benign.Anomalous() {
		t.Error("benign should not be anomalous")
	}
	if !DoS.Anomalous() {
		t.Error("DoS should be anomalous")
	}
}

func TestSplit(t *testing.T) {
	recs := []Record{
		{Features: []float32{1}, Class: Benign},
		{Features: []float32{2}, Class: DoS},
	}
	X, y := Split(recs)
	if len(X) != 2 || y[0] != 0 || y[1] != 1 {
		t.Errorf("Split = %v %v", X, y)
	}
	_, ypm := SplitPM(recs)
	if ypm[0] != -1 || ypm[1] != 1 {
		t.Errorf("SplitPM = %v", ypm)
	}
}

func TestIoTConfigValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	bad := []IoTConfig{
		{NumFeatures: 0, NumClasses: 2, Overlap: 0.5},
		{NumFeatures: 4, NumClasses: 1, Overlap: 0.5},
		{NumFeatures: 4, NumClasses: 2, Overlap: 1},
		{NumFeatures: 4, NumClasses: 2, Overlap: -0.1},
	}
	for i, cfg := range bad {
		if _, err := NewIoTGenerator(cfg, rng); err == nil {
			t.Errorf("config %d should be rejected", i)
		}
	}
}

func TestIoTSamples(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g, err := NewIoTGenerator(DefaultIoTConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	X, y := g.Samples(1000)
	if len(X) != 1000 || len(y) != 1000 {
		t.Fatal("wrong sample count")
	}
	seen := map[int]int{}
	for i := range X {
		if len(X[i]) != 4 {
			t.Fatalf("feature count = %d", len(X[i]))
		}
		seen[y[i]]++
	}
	if len(seen) != 2 {
		t.Errorf("classes seen = %v", seen)
	}
}

func TestIoTGeometryIndependentOfCallerRNG(t *testing.T) {
	g1, _ := NewIoTGenerator(DefaultIoTConfig(), rand.New(rand.NewSource(1)))
	g2, _ := NewIoTGenerator(DefaultIoTConfig(), rand.New(rand.NewSource(99)))
	for i := range g1.centres {
		for f := range g1.centres[i] {
			if g1.centres[i][f] != g2.centres[i][f] {
				t.Fatal("class geometry should not depend on caller rng")
			}
		}
	}
}

func TestTraceGenerator(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	tg, err := NewTraceGenerator(DefaultTraceConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	prev := -1.0
	flows := map[FiveTuple]bool{}
	anom := 0
	const n = 20000
	for i := 0; i < n; i++ {
		p := tg.Next()
		if p.Time <= prev {
			t.Fatalf("time went backwards: %v after %v", p.Time, prev)
		}
		prev = p.Time
		if p.Size < 64 || p.Size > 1500 {
			t.Fatalf("packet size %d out of range", p.Size)
		}
		flows[p.Flow.Tuple] = true
		if p.Flow.Record.Anomalous() {
			anom++
		}
	}
	if len(flows) < 100 {
		t.Errorf("flow diversity too low: %d", len(flows))
	}
	frac := float64(anom) / n
	if frac < 0.1 || frac > 0.8 {
		t.Errorf("anomalous packet fraction = %v", frac)
	}
	// Aggregate rate should be near the configured one.
	rate := float64(n) / prev // prev is the last packet's time
	if rate < 0.8*800_000 || rate > 1.2*800_000 {
		t.Errorf("packet rate = %v, want ~800k", rate)
	}
}

func TestTraceConfigValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	cfg := DefaultTraceConfig()
	cfg.PacketRate = 0
	if _, err := NewTraceGenerator(cfg, rng); err == nil {
		t.Error("zero rate should fail")
	}
	cfg = DefaultTraceConfig()
	cfg.ActiveFlows = 0
	if _, err := NewTraceGenerator(cfg, rng); err == nil {
		t.Error("zero flows should fail")
	}
	cfg = DefaultTraceConfig()
	cfg.MeanFlowPackets = 0
	if _, err := NewTraceGenerator(cfg, rng); err == nil {
		t.Error("zero flow length should fail")
	}
	cfg = DefaultTraceConfig()
	cfg.Anomaly.NumFeatures = 99
	if _, err := NewTraceGenerator(cfg, rng); err == nil {
		t.Error("bad anomaly config should fail")
	}
}

func TestFiveTupleString(t *testing.T) {
	tu := FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: 6}
	if tu.String() == "" {
		t.Error("empty String()")
	}
}
