package trafficgen

import (
	"math"
	"testing"

	"taurus/internal/dataset"
)

func TestDriftingStreamValidation(t *testing.T) {
	if _, err := NewDriftingStream(dataset.DefaultDriftConfig(), 1, 0); err == nil {
		t.Error("zero flows accepted")
	}
	for _, p := range []float64{-0.1, 1, 1.5, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := NewDriftingStream(dataset.DefaultDriftConfig(), 1, 8, WithLabelNoise(p)); err == nil {
			t.Errorf("label noise %v accepted", p)
		}
	}
	if _, err := NewDriftingStreamFrom(nil, nil, 1, 8); err == nil {
		t.Error("nil sources accepted")
	}
}

// TestDriftingStreamsIndependent: the per-member fleet streams must be
// independently seeded — same workload, different traffic — and drive their
// phases independently.
func TestDriftingStreamsIndependent(t *testing.T) {
	if _, err := NewDriftingStreams(dataset.DefaultDriftConfig(), 1, 8, 0); err == nil {
		t.Error("zero members accepted")
	}
	streams, err := NewDriftingStreams(dataset.DefaultDriftConfig(), 1, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(streams) != 3 {
		t.Fatalf("got %d streams, want 3", len(streams))
	}
	a, _, _ := streams[0].NextBatch(32)
	b, _, _ := streams[1].NextBatch(32)
	sameFeat := 0
	for i := range a {
		if &a[i].Features[0] == &b[i].Features[0] || a[i].Features[0] == b[i].Features[0] {
			sameFeat++
		}
	}
	if sameFeat > len(a)/2 {
		t.Errorf("members 0 and 1 share %d/%d feature draws — not independently seeded", sameFeat, len(a))
	}
	// Phases are per member: drifting one stream must not move another.
	streams[2].SetPhase(1)
	if p := streams[0].Phase(); p != 0 {
		t.Errorf("member 0 phase moved to %v when member 2 drifted", p)
	}
	if p := streams[2].Phase(); p != 1 {
		t.Errorf("member 2 phase = %v, want 1", p)
	}
}

// TestLabelDelayLagsPhase: with delay d, the label feed must sit at the
// phase the traffic had d SetPhase steps earlier.
func TestLabelDelayLagsPhase(t *testing.T) {
	s, err := NewDriftingStream(dataset.DefaultDriftConfig(), 1, 8, WithLabelDelay(2))
	if err != nil {
		t.Fatal(err)
	}
	phases := []float64{0.2, 0.4, 0.6, 0.8, 1.0}
	for i, p := range phases {
		s.SetPhase(p)
		if s.Phase() != p {
			t.Fatalf("traffic phase = %v, want %v", s.Phase(), p)
		}
		want := 0.0 // the label feed's starting phase, until delay steps pass
		if i >= 2 {
			want = phases[i-2]
		}
		if got := s.labels.Phase(); got != want {
			t.Errorf("step %d: label phase = %v, want %v (2 steps stale)", i, got, want)
		}
	}
}

// TestLabelNoiseFlipRate: the labelled feed must mislabel at roughly the
// configured probability while the traffic truth stays exact.
func TestLabelNoiseFlipRate(t *testing.T) {
	const p = 0.2
	noisy, err := NewDriftingStream(dataset.DefaultDriftConfig(), 3, 8, WithLabelNoise(p))
	if err != nil {
		t.Fatal(err)
	}
	clean, err := NewDriftingStream(dataset.DefaultDriftConfig(), 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	const n = 5000
	nr, cr := noisy.Labelled(n), clean.Labelled(n)
	flips := 0
	for i := range nr {
		if nr[i].Anomalous() != cr[i].Anomalous() {
			flips++
		}
	}
	rate := float64(flips) / n
	if math.Abs(rate-p) > 0.03 {
		t.Errorf("flip rate = %.3f, want ~%.2f", rate, p)
	}
}

// TestLabelNoiseMulticlass: with WithLabelClasses, a noisy label must be a
// different valid category, never the original.
func TestLabelNoiseMulticlass(t *testing.T) {
	cfg := dataset.DefaultIoTDriftConfig()
	noisy, err := NewDriftingIoTStream(cfg, 5, 8, WithLabelNoise(0.5))
	if err != nil {
		t.Fatal(err)
	}
	clean, err := NewDriftingIoTStream(cfg, 5, 8)
	if err != nil {
		t.Fatal(err)
	}
	const n = 2000
	nr, cr := noisy.Labelled(n), clean.Labelled(n)
	flips := 0
	for i := range nr {
		if got := int(nr[i].Class); got < 0 || got >= cfg.Base.NumClasses {
			t.Fatalf("noisy class %d out of range", got)
		}
		if nr[i].Class != cr[i].Class {
			flips++
		}
	}
	if flips < n/3 {
		t.Errorf("multi-class noise flipped only %d/%d labels", flips, n)
	}
}

// TestNextBatchClassesMatchesTruth: the binary truth and the class truth
// must describe the same drawn records.
func TestNextBatchClassesMatchesTruth(t *testing.T) {
	s, err := NewDriftingStream(dataset.DefaultDriftConfig(), 9, 16)
	if err != nil {
		t.Fatal(err)
	}
	ins, outs, cls := s.NextBatchClasses(64)
	if len(ins) != 64 || len(outs) != 64 || len(cls) != 64 {
		t.Fatalf("batch sizes %d/%d/%d", len(ins), len(outs), len(cls))
	}
	for i, c := range cls {
		if c.Anomalous() != (c != dataset.Benign) {
			t.Fatalf("record %d inconsistent class %v", i, c)
		}
	}
}
