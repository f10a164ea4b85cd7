package model

import (
	"bytes"
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

// BenchmarkFit times one warm Fit of a retrain round's size — 512 records,
// 4 epochs — on the gated benchmark's two shapes, each first trained on
// 1024 records the way the benchmark's set-up trains it.
func BenchmarkFit(b *testing.B) {
	for _, bc := range []struct {
		name  string
		sizes []int
	}{
		{"anomaly-6-12-6-3-1", []int{6, 12, 6, 3, 1}},
		{"wide-8-64-32-1", []int{8, 64, 32, 1}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			net := ml.NewDNN(bc.sizes, ml.ReLU, ml.Sigmoid, rand.New(rand.NewSource(3)))
			d, err := NewDNN(net, DNNConfig{Epochs: 4})
			if err != nil {
				b.Fatal(err)
			}
			pool := anomalyRecords(b, 10, bc.sizes[0], 1024+512)
			if err := d.Fit(pool[:1024]); err != nil {
				b.Fatal(err)
			}
			recs := pool[1024:]
			b.ReportAllocs()
			for b.Loop() {
				if err := d.Fit(recs); err != nil {
					b.Fatal(err)
				}
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
