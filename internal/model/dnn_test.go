package model

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"taurus/internal/dataset"
	mr "taurus/internal/mapreduce"
	"taurus/internal/ml"
)

func anomalyDNN(t *testing.T, cfg DNNConfig) *DNN {
	t.Helper()
	d, err := NewDNN(ml.NewDNN([]int{6, 12, 6, 3, 1}, ml.ReLU, ml.Sigmoid, rand.New(rand.NewSource(3))), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// scribble overwrites every feature of recs, as a label source that recycles
// its buffers would between two retrain rounds.
func scribble(recs []dataset.Record) {
	for _, r := range recs {
		for f := range r.Features {
			r.Features[f] = 100
		}
	}
}

// TestDNNKeepsNothingOfItsRecords: the calibration set is the model's own
// copy, so what the caller does to its records after Fit (or after
// PartialFit) cannot change what Lower builds.
func TestDNNKeepsNothingOfItsRecords(t *testing.T) {
	inQ := inputQFor(anomalyRecords(t, 10, 6, 512))
	lowered := func(d *DNN) []byte {
		t.Helper()
		g, err := d.Lower(inQ)
		if err != nil {
			t.Fatal(err)
		}
		return mr.Encode(g)
	}
	fits := map[string]func(d *DNN, recs []dataset.Record){
		"Fit": func(d *DNN, recs []dataset.Record) {
			if err := d.Fit(recs); err != nil {
				t.Fatal(err)
			}
		},
		"PartialFit+Merge": func(d *DNN, recs []dataset.Record) {
			var parts []Partial
			for lo := 0; lo < len(recs); lo += 128 {
				p, err := d.PartialFit(recs[lo : lo+128])
				if err != nil {
					t.Fatal(err)
				}
				parts = append(parts, p)
			}
			if err := d.Merge(parts); err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, fit := range fits {
		t.Run(name, func(t *testing.T) {
			kept, recycled := anomalyDNN(t, DNNConfig{}), anomalyDNN(t, DNNConfig{})
			fit(kept, anomalyRecords(t, 10, 6, 512))
			recs := anomalyRecords(t, 10, 6, 512)
			fit(recycled, recs)
			scribble(recs)
			if !bytes.Equal(lowered(kept), lowered(recycled)) {
				t.Fatal("mutating the records after training changed the lowered graph: the calibration set aliases them")
			}
		})
	}
}

// TestDNNFitAllocationLedger pins what a warm retrain's Fit costs the heap:
// the (X, y) split and nothing per sample, per minibatch or per epoch.
func TestDNNFitAllocationLedger(t *testing.T) {
	d := anomalyDNN(t, DNNConfig{Epochs: 8})
	recs := anomalyRecords(t, 10, 6, 512)
	fit := func() {
		if err := d.Fit(recs); err != nil {
			t.Fatal(err)
		}
	}
	fit()
	if allocs := testing.AllocsPerRun(3, fit); allocs > 16 {
		t.Errorf("warm Fit of 512 records x 8 epochs: %v mallocs, want <= 16", allocs)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fit()
	runtime.ReadMemStats(&after)
	if b := after.TotalAlloc - before.TotalAlloc; b > 64<<10 {
		t.Errorf("warm Fit of 512 records x 8 epochs: %d bytes allocated, want <= 64 KB", b)
	}
}

// retrainShapes are the gated benchmark's two DNNs as its set-up trains
// them: the records of the cold Fit and the epochs of every Fit.
var retrainShapes = []struct {
	name            string
	sizes           []int
	initial, epochs int
}{
	{"anomaly-6-12-6-3-1", []int{6, 12, 6, 3, 1}, 2000, 8},
	{"wide-8-64-32-1", []int{8, 64, 32, 1}, 1024, 4},
}

// retrainRound is how many records one retrain round draws.
const retrainRound = 512

// benchRecords draws records of the gated benchmark's anomaly traffic
// (anomaly fraction 0.3, separation 0.5) with the given feature width.
func benchRecords(t testing.TB, seed int64, features, n int) []dataset.Record {
	t.Helper()
	gen, err := dataset.NewAnomalyGenerator(dataset.AnomalyConfig{
		NumFeatures: features, AnomalyFraction: 0.3, Separation: 0.5,
	}, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return gen.Records(n)
}

// BenchmarkFit times one warm Fit of a retrain round — a fresh draw of 512
// records, pre-generated — on the gated benchmark's two shapes, each first
// trained the way the benchmark's set-up trains it.
func BenchmarkFit(b *testing.B) {
	for _, sc := range retrainShapes {
		b.Run(sc.name, func(b *testing.B) {
			net := ml.NewDNN(sc.sizes, ml.ReLU, ml.Sigmoid, rand.New(rand.NewSource(3)))
			d, err := NewDNN(net, DNNConfig{Epochs: sc.epochs})
			if err != nil {
				b.Fatal(err)
			}
			pool := benchRecords(b, 10, sc.sizes[0], sc.initial+b.N*retrainRound)
			if err := d.Fit(pool[:sc.initial]); err != nil {
				b.Fatal(err)
			}
			draws := pool[sc.initial:]
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := d.Fit(draws[i*retrainRound : (i+1)*retrainRound]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestRetrainedGraphIsPinned holds "bit-identical training ⇒ byte-identical
// pushed graph" end to end: on each benchmark shape a seeded cold Fit, two
// warm Fits of a round each and Lower must encode to the bytes whose sha256
// is recorded here. A change to the trainer, to the calibration forward pass
// or to the lowering that moves one bit of a weight or a range moves it.
func TestRetrainedGraphIsPinned(t *testing.T) {
	want := map[string]string{
		"anomaly-6-12-6-3-1": "70f8ad5bbc60543df7cda35be5acf6f3e2f9fb23c9355d52a861db3781b4be95",
		"wide-8-64-32-1":     "5548208f4781d3dc3abb9dd47e1ff50c69f75a54c933e8947b10eca286510ef9",
	}
	for _, sc := range retrainShapes {
		t.Run(sc.name, func(t *testing.T) {
			net := ml.NewDNN(sc.sizes, ml.ReLU, ml.Sigmoid, rand.New(rand.NewSource(3)))
			d, err := NewDNN(net, DNNConfig{Epochs: sc.epochs})
			if err != nil {
				t.Fatal(err)
			}
			pool := benchRecords(t, 10, sc.sizes[0], sc.initial+2*retrainRound)
			inQ := inputQFor(pool[:sc.initial])
			for _, recs := range [][]dataset.Record{pool[:sc.initial], pool[sc.initial:][:retrainRound], pool[sc.initial+retrainRound:]} {
				if err := d.Fit(recs); err != nil {
					t.Fatal(err)
				}
			}
			g, err := d.Lower(inQ)
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(mr.Encode(g))); got != want[sc.name] {
				t.Errorf("sha256 of the lowered graph = %s, want %s", got, want[sc.name])
			}
		})
	}
}

// TestDNNLowerAllocationsIgnoreCalibrationSize: Lower's allocations are the
// quantised twin and the graph it builds; calibrating on twice the samples
// runs the same in-place forward pass twice as often and allocates the same.
func TestDNNLowerAllocationsIgnoreCalibrationSize(t *testing.T) {
	recs := anomalyRecords(t, 10, 6, 512)
	inQ := inputQFor(recs)
	lowerAllocs := func(calibSamples int) float64 {
		d := anomalyDNN(t, DNNConfig{Epochs: 2, CalibSamples: calibSamples})
		if err := d.Fit(recs); err != nil {
			t.Fatal(err)
		}
		if len(d.calib) != calibSamples {
			t.Fatalf("calibration set has %d samples, want %d", len(d.calib), calibSamples)
		}
		return testing.AllocsPerRun(5, func() {
			if _, err := d.Lower(inQ); err != nil {
				t.Fatal(err)
			}
		})
	}
	// A per-sample term would add at least 128; under -race fmt's sync.Pool
	// drops entries at random and moves the count by one or two.
	if small, large := lowerAllocs(128), lowerAllocs(256); large > small+8 {
		t.Errorf("Lower allocates %v times on 128 calibration samples, %v on 256", small, large)
	}
}
