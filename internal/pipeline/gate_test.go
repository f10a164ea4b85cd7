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

// TestUpdateWeightsRefusesBrokenPayloads: a push of a graph Compatible with
// the installed one — so the push gate skips Validate's structural rules —
// that breaks one of Validate's payload rules is refused with ErrBadGraph and
// the very error a full verify gives, and the served model stays.
func TestUpdateWeightsRefusesBrokenPayloads(t *testing.T) {
	q, g, _, _ := trainModel(t)
	p, err := New(Config{Shards: 2, Device: core.DefaultConfig(6)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	if err := p.LoadModel(g, q.InputQ, compiler.Options{}); err != nil {
		t.Fatal(err)
	}
	firstOf := func(v *mr.Graph, k mr.Kind) *mr.Node {
		for _, n := range v.Nodes {
			if n.Kind == k {
				return n
			}
		}
		t.Fatalf("the model has no %v node", k)
		return nil
	}
	for name, mutate := range map[string]func(v *mr.Graph){
		"const length":   func(v *mr.Graph) { n := firstOf(v, mr.KConst); n.Const = append(n.Const, 1) },
		"requant M0 = 0": func(v *mr.Graph) { firstOf(v, mr.KRequant).Mult.M0 = 0 },
		"LUT shift = 0":  func(v *mr.Graph) { firstOf(v, mr.KLUT).LUT.Mult.Shift = 0 },
		"ID not index":   func(v *mr.Graph) { v.Nodes[3].ID = 4 },
	} {
		v := g.Clone()
		mutate(v)
		if err := graphcheck.Compatible(g, v); err != nil {
			t.Fatalf("%s: the mutant is not Compatible, so it does not reach the payload rules: %v", name, err)
		}
		served := p.model.Load()
		err := p.UpdateWeights(v)
		if !errors.Is(err, graphcheck.ErrBadGraph) || errors.Is(err, graphcheck.ErrIncompatible) {
			t.Errorf("%s: UpdateWeights = %v, want ErrBadGraph alone", name, err)
		} else if want := graphcheck.Verify(v).Err(); err.Error() != want.Error() {
			t.Errorf("%s: UpdateWeights = %v, want a full verify's %v", name, err, want)
		}
		if now := p.model.Load(); now != served || now.Epoch() != served.Epoch() {
			t.Errorf("%s: a refused push moved the served epoch %d -> %d", name, served.Epoch(), now.Epoch())
		}
	}
	if err := p.UpdateWeights(g.Clone()); err != nil {
		t.Errorf("an unbroken weight-only push is refused: %v", err)
	}
}
