package pipeline

import (
	"errors"
	"strings"
	"testing"

	"taurus/internal/compiler"
	"taurus/internal/core"
	"taurus/internal/graphcheck"
	mr "taurus/internal/mapreduce"
)

// saturatingGraph is a structurally valid graph whose value ranges provably
// overflow Fix32: an int8 input scaled by 2^20 and then squared.
func saturatingGraph(t *testing.T) *mr.Graph {
	t.Helper()
	b := mr.NewBuilder("sat")
	x := b.Input("x", 4)
	big := b.Const("big", []int32{1 << 20, 1 << 20, 1 << 20, 1 << 20})
	y := b.Map(mr.MMul, x, big)
	sq := b.Map(mr.MMul, y, y)
	b.Output(b.Reduce(mr.RAdd, sq))
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// benignGraph verifies clean but shares no structure with the anomaly DNN.
func benignGraph(t *testing.T) *mr.Graph {
	t.Helper()
	b := mr.NewBuilder("benign")
	b.Output(b.Reduce(mr.RAdd, b.Input("x", 6)))
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestLoadModelRejectsSaturatingGraph: the static gate refuses a provably
// saturating graph before the compiler or any shard sees it.
func TestLoadModelRejectsSaturatingGraph(t *testing.T) {
	q, _, _, _ := trainModel(t)
	p, err := New(Config{Shards: 2, Device: core.DefaultConfig(6)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	err = p.LoadModel(saturatingGraph(t), q.InputQ, compiler.Options{})
	if !errors.Is(err, graphcheck.ErrBadGraph) {
		t.Fatalf("LoadModel(saturating) = %v, want ErrBadGraph", err)
	}
	if !strings.Contains(err.Error(), "node") {
		t.Errorf("rejection does not name the offending node: %v", err)
	}
	if p.model.Load() != nil {
		t.Fatal("a model is installed after a rejected LoadModel")
	}
}

// TestUpdateWeightsRejectsSaturatingGraph: a live pipeline refuses an
// overflow-saturating weight push without touching any shard.
func TestUpdateWeightsRejectsSaturatingGraph(t *testing.T) {
	p := newLoadedPipeline(t, 2)
	err := p.UpdateWeights(saturatingGraph(t))
	if !errors.Is(err, graphcheck.ErrBadGraph) {
		t.Fatalf("UpdateWeights(saturating) = %v, want ErrBadGraph", err)
	}
	if !strings.Contains(err.Error(), "saturate") && !strings.Contains(err.Error(), "wraps") {
		t.Errorf("rejection does not describe the overflow: %v", err)
	}
}

// TestUpdateWeightsRejectsIncompatibleGraph: a verifiably clean graph that
// is not a weight-only update of the installed model is refused.
func TestUpdateWeightsRejectsIncompatibleGraph(t *testing.T) {
	p := newLoadedPipeline(t, 2)
	g := benignGraph(t)
	if rep := graphcheck.Verify(g); !rep.OK() {
		t.Fatalf("benign graph should verify clean:\n%s", rep)
	}
	err := p.UpdateWeights(g)
	if !errors.Is(err, graphcheck.ErrIncompatible) {
		t.Fatalf("UpdateWeights(incompatible) = %v, want ErrIncompatible", err)
	}
}
