package controlplane

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"taurus/internal/cgra"
	"taurus/internal/compiler"
	"taurus/internal/core"
	"taurus/internal/dataset"
	"taurus/internal/fixed"
	"taurus/internal/graphcheck"
	mr "taurus/internal/mapreduce"
	"taurus/internal/obs"
	"taurus/internal/pisa"
)

// scaledSquareGraph is an int8 input scaled by k and then squared. k = 1
// verifies clean; k = 2^20 provably overflows Fix32, with the same structure.
func scaledSquareGraph(t *testing.T, k int32) *mr.Graph {
	t.Helper()
	b := mr.NewBuilder("sat")
	x := b.Input("x", 4)
	big := b.Const("big", []int32{k, k, k, k})
	y := b.Map(mr.MMul, x, big)
	sq := b.Map(mr.MMul, y, y)
	b.Output(b.Reduce(mr.RAdd, sq))
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// reshapedGraph verifies clean but is structurally different from
// stubGraph — a retrain that silently changed topology.
func reshapedGraph(t *testing.T) *mr.Graph {
	t.Helper()
	b := mr.NewBuilder("reshaped")
	x := b.Input("x", 4)
	b.Output(b.Reduce(mr.RAdd, b.Unary(mr.UAbs, x)))
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// seqModel is a stubModel whose Lower walks a scripted sequence of graphs,
// repeating the last one — so a test can serve one good lowering and then a
// poisoned one.
type seqModel struct {
	stubModel
	graphs []*mr.Graph
	calls  int
}

func (m *seqModel) Lower(fixed.Quantizer) (*mr.Graph, error) {
	i := m.calls
	if i >= len(m.graphs) {
		i = len(m.graphs) - 1
	}
	m.calls++
	return m.graphs[i], nil
}

// gateConfig journals the control plane to tr.
func gateConfig(tr *obs.Tracer) Config {
	cfg := DefaultConfig()
	cfg.RetrainRecords = 16
	cfg.Obs, cfg.Tracer = obs.NewRegistry(), tr
	return cfg
}

func labelSrc(n int) []dataset.Record { return make([]dataset.Record, n) }

// failFitModel is a stubModel whose Fit always fails.
type failFitModel struct{ stubModel }

func (failFitModel) Fit([]dataset.Record) error { return errors.New("fit failed") }

// TestFailedFitJournalsItsLabels: a round whose Fit fails still journals the
// labels it drew, so its span reads retrain.start, labels.pooled,
// retrain.fail.
func TestFailedFitJournalsItsLabels(t *testing.T) {
	tr := obs.NewTracer(64)
	ctrl, err := New(nopPusher{}, failFitModel{}, fixed.NewQuantizer(1), labelSrc, gateConfig(tr))
	if err != nil {
		t.Fatal(err)
	}
	if err := ctrl.RetrainNow(); err == nil {
		t.Fatal("retrain with a failing Fit succeeded")
	}
	var kinds []string
	for _, e := range tr.Events() {
		kinds = append(kinds, e.Kind)
	}
	if want := []string{"retrain.start", "labels.pooled", "retrain.fail"}; !reflect.DeepEqual(kinds, want) {
		t.Errorf("journal = %v, want %v", kinds, want)
	}
}

// gateMember is a core.Device — a member whose UpdateWeights runs the real
// push gate — journalling to its own tracer, so a test reads the epoch it
// serves from its model.publish events.
type gateMember struct {
	*core.Device
	tr *obs.Tracer
}

// newGateMember installs g on a fresh device, on opts.Grid.
func newGateMember(t *testing.T, g *mr.Graph, opts compiler.Options) gateMember {
	t.Helper()
	tr := obs.NewTracer(64)
	cfg := core.DefaultConfig(4)
	cfg.Obs, cfg.Tracer = obs.NewRegistry(), tr
	d, err := core.NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.LoadModel(g, fixed.NewQuantizer(1), opts); err != nil {
		t.Fatal(err)
	}
	return gateMember{Device: d, tr: tr}
}

// score is the member's ML score for one packet whose four features are 1.
func (m gateMember) score(t *testing.T) int32 {
	t.Helper()
	dec, err := m.Process(core.PacketIn{Data: pisa.BuildTCPPacket(1, 2, 3, 4, 0x10, 64), Features: []float32{1, 1, 1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	return dec.MLScore
}

// epoch is the epoch of the member's last model.publish.
func (m gateMember) epoch(t *testing.T) int {
	t.Helper()
	evs := m.tr.Events()
	for i := len(evs) - 1; i >= 0; i-- {
		if evs[i].Kind == "model.publish" {
			var n int
			if _, err := fmt.Sscanf(evs[i].Detail, "epoch=%d", &n); err != nil {
				t.Fatalf("model.publish %q: %v", evs[i].Detail, err)
			}
			return n
		}
	}
	t.Fatal("member journalled no model.publish")
	return 0
}

// checkRefused asserts a refused retrain left every member at epoch 2 (the
// install, then the first retrain's push), set Err, journalled the refusal
// naming member, and journalled no rollback.
func checkRefused(t *testing.T, tr *obs.Tracer, errOf func() error, member string, members ...gateMember) {
	t.Helper()
	for i, m := range members {
		if got := m.epoch(t); got != 2 {
			t.Errorf("member %d serves epoch %d after the refused retrain, want 2", i, got)
		}
	}
	if errOf() == nil {
		t.Error("Err() empty after a refused lowering")
	}
	named := false
	for _, e := range tr.Events() {
		if e.Kind == "retrain.fail" && strings.Contains(e.Detail, fmt.Sprintf(`fleet member \"%s\"`, member)) {
			named = true
		}
		if strings.HasPrefix(e.Kind, "push.rollback") {
			t.Errorf("journalled %s %s, but nothing was rolled back", e.Kind, e.Detail)
		}
	}
	if !named {
		t.Errorf("no retrain.fail names the refusing member %q", member)
	}
}

// TestControllerRejectsSaturatingLowering: a retrain whose lowering can
// saturate is refused by the data plane's push gate, with a node-naming
// report, and never serves.
func TestControllerRejectsSaturatingLowering(t *testing.T) {
	dev := newGateMember(t, scaledSquareGraph(t, 1), compiler.Options{})
	m := &seqModel{graphs: []*mr.Graph{scaledSquareGraph(t, 1), scaledSquareGraph(t, 1<<20)}}
	tr := obs.NewTracer(256)
	ctrl, err := New(dev, m, fixed.NewQuantizer(1), labelSrc, gateConfig(tr))
	if err != nil {
		t.Fatal(err)
	}
	if err := ctrl.RetrainNow(); err != nil {
		t.Fatalf("first retrain: %v", err)
	}
	err = ctrl.RetrainNow()
	if !errors.Is(err, graphcheck.ErrBadGraph) {
		t.Fatalf("retrain with saturating lowering = %v, want ErrBadGraph", err)
	}
	if !strings.Contains(err.Error(), "node") {
		t.Errorf("rejection does not name the offending node: %v", err)
	}
	checkRefused(t, tr, ctrl.Err, "member-0", dev)
	if st := ctrl.Stats(); st.Retrains != 1 {
		t.Errorf("rejected cycle counted as a retrain (retrains = %d)", st.Retrains)
	}
}

// TestControllerRejectsIncompatibleLowering: a clean lowering that changed
// structure since the install is refused by the data plane's push gate.
func TestControllerRejectsIncompatibleLowering(t *testing.T) {
	dev := newGateMember(t, stubGraph(), compiler.Options{})
	m := &seqModel{graphs: []*mr.Graph{stubGraph(), reshapedGraph(t)}}
	tr := obs.NewTracer(256)
	ctrl, err := New(dev, m, fixed.NewQuantizer(1), labelSrc, gateConfig(tr))
	if err != nil {
		t.Fatal(err)
	}
	if err := ctrl.RetrainNow(); err != nil {
		t.Fatalf("first retrain: %v", err)
	}
	err = ctrl.RetrainNow()
	if !errors.Is(err, graphcheck.ErrIncompatible) || !errors.Is(err, core.ErrStructureMismatch) {
		t.Fatalf("retrain with reshaped lowering = %v, want ErrIncompatible through ErrStructureMismatch", err)
	}
	checkRefused(t, tr, ctrl.Err, "member-0", dev)
}

// gateFleet registers two members serving installed and retrains once with
// the first of m's graphs.
func gateFleet(t *testing.T, m *seqModel, installed func() *mr.Graph, tr *obs.Tracer) (*Fleet, gateMember, gateMember) {
	t.Helper()
	fl, err := NewFleet(m, fixed.NewQuantizer(1), gateConfig(tr))
	if err != nil {
		t.Fatal(err)
	}
	a := newGateMember(t, installed(), compiler.Options{})
	b := newGateMember(t, installed(), compiler.Options{})
	if _, err := fl.Register("a", a, labelSrc); err != nil {
		t.Fatal(err)
	}
	if _, err := fl.Register("b", b, labelSrc); err != nil {
		t.Fatal(err)
	}
	if err := fl.RetrainNow(); err != nil {
		t.Fatalf("first retrain: %v", err)
	}
	return fl, a, b
}

// TestFleetRejectsSaturatingLowering: the first member's push gate refuses
// the poisoned lowering, so no member ever serves it and nothing is rolled
// back.
func TestFleetRejectsSaturatingLowering(t *testing.T) {
	m := &seqModel{graphs: []*mr.Graph{scaledSquareGraph(t, 1), scaledSquareGraph(t, 1<<20)}}
	tr := obs.NewTracer(256)
	fl, a, b := gateFleet(t, m, func() *mr.Graph { return scaledSquareGraph(t, 1) }, tr)
	err := fl.RetrainNow()
	if !errors.Is(err, graphcheck.ErrBadGraph) {
		t.Fatalf("fleet retrain with saturating lowering = %v, want ErrBadGraph", err)
	}
	checkRefused(t, tr, fl.Err, "a", a, b)
}

// TestFleetRejectsIncompatibleLowering: structural drift since the install
// is refused by the first member's push gate, before the fan-out reaches the
// second.
func TestFleetRejectsIncompatibleLowering(t *testing.T) {
	m := &seqModel{graphs: []*mr.Graph{stubGraph(), reshapedGraph(t)}}
	tr := obs.NewTracer(256)
	fl, a, b := gateFleet(t, m, stubGraph, tr)
	err := fl.RetrainNow()
	if !errors.Is(err, graphcheck.ErrIncompatible) || !errors.Is(err, core.ErrStructureMismatch) {
		t.Fatalf("fleet retrain with reshaped lowering = %v, want ErrIncompatible through ErrStructureMismatch", err)
	}
	checkRefused(t, tr, fl.Err, "a", a, b)
}

// bigConstGraph adds the lane sum of a 500,000-lane constant (c in its first
// n lanes, 0 elsewhere) to the lane sum of the input: 500,000 weight bytes,
// more storage than the default grid's memory units hold.
func bigConstGraph(t *testing.T, n int, c int32) *mr.Graph {
	t.Helper()
	w := make([]int32, 500000)
	for i := range w[:n] {
		w[i] = c
	}
	b := mr.NewBuilder("big")
	x := b.Input("x", 4)
	k := b.Const("w", w)
	b.Output(b.Map(mr.MAdd, b.Reduce(mr.RAdd, k), b.Reduce(mr.RAdd, x)))
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestControllerPushesOnInstallGrid: a retrain is gated on the grid its
// member's model was installed on. A device installed on a 24×10 grid serves
// a model too large for the default 12×10 grid, so a retrain of that model
// must reach it and serve.
func TestControllerPushesOnInstallGrid(t *testing.T) {
	grid := cgra.DefaultGrid()
	grid.Rows = 24
	dev := newGateMember(t, bigConstGraph(t, 0, 0), compiler.Options{Grid: grid})
	before := dev.score(t)
	m := &seqModel{graphs: []*mr.Graph{bigConstGraph(t, 7, 1)}}
	ctrl, err := New(dev, m, fixed.NewQuantizer(1), labelSrc, gateConfig(obs.NewTracer(64)))
	if err != nil {
		t.Fatal(err)
	}
	if err := ctrl.RetrainNow(); err != nil {
		t.Fatalf("retrain of a model its device serves: %v", err)
	}
	if got := dev.epoch(t); got != 2 {
		t.Errorf("device serves epoch %d after the retrain, want 2", got)
	}
	if after := dev.score(t); after != before+7 {
		t.Errorf("score %d after the push, want %d: the new weights do not serve", after, before+7)
	}
}
