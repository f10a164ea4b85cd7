package dataset

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func TestDriftingGeneratorValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := NewDriftingGenerator(DriftConfig{MeanShift: -1}, rng); err == nil {
		t.Error("negative MeanShift accepted")
	}
	if _, err := NewDriftingGenerator(DriftConfig{Base: AnomalyConfig{NumFeatures: 99, AnomalyFraction: 0.3, Separation: 0.5}}, rng); err == nil {
		t.Error("invalid base config accepted")
	}
	g, err := NewDriftingGenerator(DriftConfig{}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if g.Phase() != 0 {
		t.Errorf("initial phase = %v, want 0", g.Phase())
	}
}

func TestDriftingGeneratorPhaseClamps(t *testing.T) {
	g, err := NewDriftingGenerator(DefaultDriftConfig(), rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	g.SetPhase(-0.5)
	if g.Phase() != 0 {
		t.Errorf("phase after SetPhase(-0.5) = %v, want 0", g.Phase())
	}
	g.SetPhase(2)
	if g.Phase() != 1 {
		t.Errorf("phase after SetPhase(2) = %v, want 1", g.Phase())
	}
}

// TestDriftingGeneratorMovesDistributions checks the drift actually inverts
// the count-feature boundary: pre-drift DoS out-counts benign; post-drift
// the benign flash-crowd out-counts the low-and-slow DoS.
func TestDriftingGeneratorMovesDistributions(t *testing.T) {
	g, err := NewDriftingGenerator(DefaultDriftConfig(), rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	const countFeature = 3
	meanCount := func(n int) (benign, dos float64) {
		var nb, nd int
		for i := 0; i < n; i++ {
			r := g.Record()
			switch r.Class {
			case Benign:
				benign += float64(r.Features[countFeature])
				nb++
			case DoS:
				dos += float64(r.Features[countFeature])
				nd++
			}
		}
		if nb == 0 || nd == 0 {
			t.Fatal("class starved in sample")
		}
		return benign / float64(nb), dos / float64(nd)
	}

	preBenign, preDoS := meanCount(8000)
	if preDoS <= preBenign {
		t.Errorf("pre-drift: DoS count mean %.2f should exceed benign %.2f", preDoS, preBenign)
	}
	g.SetPhase(1)
	postBenign, postDoS := meanCount(8000)
	if postBenign <= postDoS {
		t.Errorf("post-drift: benign count mean %.2f should exceed DoS %.2f", postBenign, postDoS)
	}
	if postBenign <= preBenign {
		t.Errorf("benign count mean should rise under drift: %.2f -> %.2f", preBenign, postBenign)
	}
}

func TestDriftingIoTGeneratorValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := NewDriftingIoTGenerator(IoTDriftConfig{CentreShift: -0.5}, rng); err == nil {
		t.Error("negative CentreShift accepted")
	}
	if _, err := NewDriftingIoTGenerator(IoTDriftConfig{Base: IoTConfig{NumFeatures: 0, NumClasses: 5, Overlap: 0.3}}, rng); err == nil {
		t.Error("invalid base config accepted")
	}
	g, err := NewDriftingIoTGenerator(IoTDriftConfig{}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if g.Phase() != 0 {
		t.Errorf("initial phase = %v, want 0", g.Phase())
	}
	g.SetPhase(3)
	if g.Phase() != 1 {
		t.Errorf("phase after SetPhase(3) = %v, want 1", g.Phase())
	}
}

// TestDriftingIoTGeneratorMovesCentres: at phase 1 every class's empirical
// centre must sit closer to the next class's pre-drift centre than to its
// own — the territory migration a frozen classifier cannot survive.
func TestDriftingIoTGeneratorMovesCentres(t *testing.T) {
	cfg := DefaultIoTDriftConfig()
	g, err := NewDriftingIoTGenerator(cfg, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	k := cfg.Base.NumClasses
	empirical := func(n int) [][]float64 {
		sums := make([][]float64, k)
		counts := make([]int, k)
		for c := range sums {
			sums[c] = make([]float64, cfg.Base.NumFeatures)
		}
		for i := 0; i < n; i++ {
			r := g.Record()
			c := int(r.Class)
			counts[c]++
			for f, v := range r.Features {
				sums[c][f] += float64(v)
			}
		}
		for c := range sums {
			if counts[c] == 0 {
				t.Fatal("class starved in sample")
			}
			for f := range sums[c] {
				sums[c][f] /= float64(counts[c])
			}
		}
		return sums
	}
	sqDist := func(a []float64, b []float32) float64 {
		var d float64
		for i := range a {
			dd := a[i] - float64(b[i])
			d += dd * dd
		}
		return d
	}

	pre := empirical(6000)
	for c := 0; c < k; c++ {
		if sqDist(pre[c], g.base[c]) >= sqDist(pre[c], g.base[(c+1)%k]) {
			t.Errorf("phase 0: class %d centre should sit at its own base centre", c)
		}
	}
	g.SetPhase(1)
	post := empirical(6000)
	for c := 0; c < k; c++ {
		if sqDist(post[c], g.base[(c+1)%k]) >= sqDist(post[c], g.base[c]) {
			t.Errorf("phase 1: class %d centre should have migrated toward class %d's territory", c, (c+1)%k)
		}
	}
}

// TestDriftingGeneratorPhaseZeroMatchesBase: at phase 0 the drifting
// generator must sample the same distributions as the plain generator.
func TestDriftingGeneratorPhaseZeroMatchesBase(t *testing.T) {
	cfg := DefaultDriftConfig()
	dg, err := NewDriftingGenerator(cfg, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	bg, err := NewAnomalyGenerator(cfg.Base, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	// Identical seeds and identical sampling structure: record streams match.
	for i := 0; i < 64; i++ {
		dr, br := dg.Record(), bg.Record()
		if dr.Class != br.Class {
			t.Fatalf("record %d: class %v vs base %v", i, dr.Class, br.Class)
		}
		for f := range dr.Features {
			if dr.Features[f] != br.Features[f] {
				t.Fatalf("record %d feature %d: %v vs base %v", i, f, dr.Features[f], br.Features[f])
			}
		}
	}
}

// recordsDigest is the sha256 of recs' classes and feature bits, in order.
func recordsDigest(recs []Record) string {
	h := sha256.New()
	var b [4]byte
	for _, r := range recs {
		binary.LittleEndian.PutUint32(b[:], uint32(r.Class))
		h.Write(b[:])
		for _, f := range r.Features {
			binary.LittleEndian.PutUint32(b[:], math.Float32bits(f))
			h.Write(b[:])
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestGeneratorsArePinned pins, bit for bit, the first records of the
// benchmark's record source (AnomalyGenerator.Records at both of its feature
// widths) and of a DriftingGenerator mid-drift. The benchmark draws its flow
// set from these records, so a generator change that moves one bit moves
// the benchmark's traffic.
func TestGeneratorsArePinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		recs func() ([]Record, error)
		want string
	}{
		{"anomaly-6", func() ([]Record, error) { return anomalyRecords(6) }, "1dc7ffe15e8cb73966c6ae784293b182efef35711e1944d39a409e95cc4c624d"},
		{"anomaly-8", func() ([]Record, error) { return anomalyRecords(8) }, "0808f2dda9b940a8c43cb1e7b3cc279b1698bccfd8e749da4d7d1d4d680f18d9"},
		{"drift-0.37", func() ([]Record, error) {
			g, err := NewDriftingGenerator(DefaultDriftConfig(), rand.New(rand.NewSource(1)))
			if err != nil {
				return nil, err
			}
			g.SetPhase(0.37)
			return append(g.Records(128), g.Record()), nil
		}, "e5e13aa52c5007a3f25adcbf76e509ab05d8b1af3f6fb73f42895beca462f2de"},
	} {
		recs, err := tc.recs()
		if err != nil {
			t.Fatal(err)
		}
		if got := recordsDigest(recs); got != tc.want {
			t.Errorf("%s: records digest %s, want %s", tc.name, got, tc.want)
		}
	}
}

// anomalyRecords draws the first records of the benchmark's record source
// at the given feature width.
func anomalyRecords(numFeatures int) ([]Record, error) {
	gen, err := NewAnomalyGenerator(AnomalyConfig{
		NumFeatures: numFeatures, AnomalyFraction: 0.3, Separation: 0.5,
	}, rand.New(rand.NewSource(1)))
	if err != nil {
		return nil, err
	}
	return append(gen.Records(128), gen.Record()), nil
}
