package model

import (
	"math/rand"
	"testing"

	"taurus/internal/dataset"
	"taurus/internal/fixed"
	mr "taurus/internal/mapreduce"
	"taurus/internal/ml"
	"taurus/internal/tensor"
)

// anomalyRecords draws labelled anomaly records with the given feature width.
func anomalyRecords(t testing.TB, seed int64, features, n int) []dataset.Record {
	t.Helper()
	gen, err := dataset.NewAnomalyGenerator(dataset.AnomalyConfig{
		NumFeatures: features, AnomalyFraction: 0.4, Separation: 1.2,
	}, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return gen.Records(n)
}

func iotRecords(t *testing.T, seed int64, n int) []dataset.Record {
	t.Helper()
	g, err := dataset.NewDriftingIoTGenerator(dataset.DefaultIoTDriftConfig(), rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return g.Records(n)
}

// inputQFor calibrates an input quantiser from record features, the way a
// deployment would before LoadModel.
func inputQFor(recs []dataset.Record) fixed.Quantizer {
	return InputQuantizerFor(recs)
}

// evalGraph runs a lowered graph on one feature vector.
func evalGraph(t *testing.T, g *mr.Graph, inQ fixed.Quantizer, x tensor.Vec) int32 {
	t.Helper()
	codes := inQ.QuantizeSlice(x)
	in := make([]int32, len(codes))
	for i, c := range codes {
		in[i] = int32(c)
	}
	outs, err := g.Eval(in)
	if err != nil {
		t.Fatal(err)
	}
	return outs[0][0]
}

// sameStructure asserts b can be pushed over a via UpdateWeights: same node
// kinds, widths and wiring.
func sameStructure(t *testing.T, a, b *mr.Graph) {
	t.Helper()
	if len(a.Nodes) != len(b.Nodes) {
		t.Fatalf("node counts differ: %d vs %d", len(a.Nodes), len(b.Nodes))
	}
	for i := range a.Nodes {
		na, nb := a.Nodes[i], b.Nodes[i]
		if na.Kind != nb.Kind || na.Width != nb.Width || len(na.Args) != len(nb.Args) {
			t.Fatalf("node %d differs structurally: %v/%d vs %v/%d", i, na.Kind, na.Width, nb.Kind, nb.Width)
		}
		for j := range na.Args {
			if na.Args[j] != nb.Args[j] {
				t.Fatalf("node %d rewired", i)
			}
		}
	}
}

// lifecycleCase builds each Deployable over its natural workload.
func lifecycleCases(t *testing.T) []struct {
	name string
	m    Deployable
	recs []dataset.Record
	more []dataset.Record
} {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	dnn, err := NewDNN(ml.NewDNN([]int{6, 12, 6, 3, 1}, ml.ReLU, ml.Sigmoid, rng), DNNConfig{Epochs: 10})
	if err != nil {
		t.Fatal(err)
	}
	svm, err := NewSVM(SVMConfig{MaxSV: 12})
	if err != nil {
		t.Fatal(err)
	}
	km, err := NewKMeans(KMeansConfig{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	return []struct {
		name string
		m    Deployable
		recs []dataset.Record
		more []dataset.Record
	}{
		{"dnn", dnn, anomalyRecords(t, 10, 6, 800), anomalyRecords(t, 11, 6, 800)},
		{"svm", svm, anomalyRecords(t, 20, 8, 250), anomalyRecords(t, 21, 8, 250)},
		{"kmeans", km, iotRecords(t, 30, 800), iotRecords(t, 31, 800)},
	}
}

// TestLifecycleOrderErrors: Lower and ReferenceDecision must refuse to run
// before the state they depend on exists.
func TestLifecycleOrderErrors(t *testing.T) {
	for _, c := range lifecycleCases(t) {
		t.Run(c.name, func(t *testing.T) {
			inQ := inputQFor(c.recs)
			if _, err := c.m.Lower(inQ); err == nil {
				t.Error("Lower before Fit succeeded")
			}
			if _, err := c.m.ReferenceDecision(inQ, c.recs[0].Features); err == nil {
				t.Error("ReferenceDecision before Lower succeeded")
			}
			if err := c.m.Fit(nil); err == nil {
				t.Error("Fit with no records succeeded")
			}
		})
	}
}

// TestReferenceMatchesGraph is the core Deployable contract: the quantised
// reference decision must be bit-identical to evaluating the lowered graph,
// for every model family, across a retrain.
func TestReferenceMatchesGraph(t *testing.T) {
	for _, c := range lifecycleCases(t) {
		t.Run(c.name, func(t *testing.T) {
			inQ := inputQFor(c.recs)
			if err := c.m.Fit(c.recs); err != nil {
				t.Fatal(err)
			}
			if got := c.m.NumFeatures(); got != len(c.recs[0].Features) {
				t.Fatalf("NumFeatures = %d, want %d", got, len(c.recs[0].Features))
			}
			check := func(g *mr.Graph, probe []dataset.Record) {
				t.Helper()
				for _, r := range probe[:100] {
					want := evalGraph(t, g, inQ, r.Features)
					got, err := c.m.ReferenceDecision(inQ, r.Features)
					if err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Fatalf("reference %d != graph %d", got, want)
					}
				}
			}
			g1, err := c.m.Lower(inQ)
			if err != nil {
				t.Fatal(err)
			}
			check(g1, c.recs)

			// Retrain on fresh records: the reference must track the new
			// weights, and the new graph must stay push-compatible.
			if err := c.m.Fit(c.more); err != nil {
				t.Fatal(err)
			}
			g2, err := c.m.Lower(inQ)
			if err != nil {
				t.Fatal(err)
			}
			if g2 == g1 {
				t.Fatal("Lower returned the same graph twice (fresh-graph contract violated)")
			}
			sameStructure(t, g1, g2)
			check(g2, c.more)

			// A mismatched quantiser must be rejected, not silently accepted.
			other := fixed.NewQuantizer(inQ.Scale * 127 * 2)
			if _, err := c.m.ReferenceDecision(other, c.recs[0].Features); err == nil {
				t.Error("mismatched quantiser accepted")
			}
		})
	}
}

// TestDNNFitImprovesScore: warm Fit must actually train — scores should
// separate the classes on held-out data.
func TestDNNFitImprovesScore(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	d, err := NewDNN(ml.NewDNN([]int{6, 12, 6, 3, 1}, ml.ReLU, ml.Sigmoid, rng), DNNConfig{Epochs: 12})
	if err != nil {
		t.Fatal(err)
	}
	recs := anomalyRecords(t, 40, 6, 1500)
	if err := d.Fit(recs); err != nil {
		t.Fatal(err)
	}
	held := anomalyRecords(t, 41, 6, 500)
	var conf ml.BinaryConfusion
	for _, r := range held {
		conf.Observe(d.Score(r.Features) >= 0.5, r.Anomalous())
	}
	if conf.F1() < 60 {
		t.Errorf("held-out F1 after Fit = %.1f, model did not train", conf.F1())
	}
}

// TestSVMSupportSetPinned: the deployed support set must hold exactly MaxSV
// vectors regardless of how many SMO finds, including across warm retrains.
func TestSVMSupportSetPinned(t *testing.T) {
	s, err := NewSVM(SVMConfig{MaxSV: 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Fit(anomalyRecords(t, 50, 8, 200)); err != nil {
		t.Fatal(err)
	}
	snap, err := s.deploySnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.SupportVecs) != 10 || len(snap.Coeffs) != 10 {
		t.Fatalf("deployed support set = %d vectors / %d coeffs, want 10", len(snap.SupportVecs), len(snap.Coeffs))
	}
	if err := s.Fit(anomalyRecords(t, 51, 8, 200)); err != nil {
		t.Fatal(err)
	}
	snap, err = s.deploySnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.SupportVecs) != 10 {
		t.Fatalf("deployed support set after warm retrain = %d vectors, want 10", len(snap.SupportVecs))
	}
}

// TestKMeansAlignsClusters: after Fit on labelled IoT records, the centroid
// index must predict the class directly for most held-out samples.
func TestKMeansAlignsClusters(t *testing.T) {
	k, err := NewKMeans(KMeansConfig{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Fit(iotRecords(t, 60, 1500)); err != nil {
		t.Fatal(err)
	}
	held := iotRecords(t, 61, 600)
	pred, truth := make([]int, len(held)), make([]int, len(held))
	for i, r := range held {
		pred[i], truth[i] = int(k.Score(r.Features)), int(r.Class)
	}
	if acc := ml.MulticlassAccuracy(pred, truth); acc < 70 {
		t.Errorf("aligned KMeans accuracy = %.1f%%, alignment failed", acc)
	}
}
