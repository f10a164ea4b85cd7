package cgra

import (
	"testing"

	"taurus/internal/fixed"
	mr "taurus/internal/mapreduce"
)

func TestGridSpecCounts(t *testing.T) {
	s := DefaultGrid()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// §5.1.1: 12x10 grid, 3:1 CU:MU -> 90 CUs, 30 MUs.
	if got := s.CUCount(); got != 90 {
		t.Errorf("CUCount = %d, want 90", got)
	}
	if got := s.MUCount(); got != 30 {
		t.Errorf("MUCount = %d, want 30", got)
	}
}

func TestGridSpecValidate(t *testing.T) {
	bad := []GridSpec{
		{Rows: 0, Cols: 10, Lanes: 16, Stages: 4, CUMURatio: 3, Precision: fixed.Fix8},
		{Rows: 12, Cols: 10, Lanes: 0, Stages: 4, CUMURatio: 3, Precision: fixed.Fix8},
		{Rows: 12, Cols: 10, Lanes: 16, Stages: 4, CUMURatio: 0, Precision: fixed.Fix8},
		{Rows: 12, Cols: 10, Lanes: 16, Stages: 4, CUMURatio: 3, Precision: 7},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("spec %d should be invalid", i)
		}
	}
}

func TestManhattan(t *testing.T) {
	a := Coord{Row: 2, Col: 3}
	b := Coord{Row: 5, Col: 1}
	if d := a.Manhattan(b); d != 5 {
		t.Errorf("distance = %d", d)
	}
	if d := a.Manhattan(a); d != 0 {
		t.Errorf("self distance = %d", d)
	}
	if a.Manhattan(b) != b.Manhattan(a) {
		t.Error("distance not symmetric")
	}
}

func TestIsMUPattern(t *testing.T) {
	s := DefaultGrid()
	mu, cu := 0, 0
	for r := 0; r < s.Rows; r++ {
		for c := 0; c < s.Cols; c++ {
			if s.IsMU(Coord{r, c}) {
				mu++
			} else {
				cu++
			}
		}
	}
	if mu != 30 || cu != 90 {
		t.Errorf("pattern gives %d MUs / %d CUs", mu, cu)
	}
}

// tinyPlacement builds a one-CU placement for a map+reduce graph.
func tinyPlacement(t *testing.T) (*mr.Graph, *Placement) {
	t.Helper()
	b := mr.NewBuilder("tiny")
	x := b.Input("x", 16)
	w := make([]int32, 16)
	for i := range w {
		w[i] = 1
	}
	wv := b.Const("w", w)
	b.Output(b.DotProduct(wv, x))
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	spec := DefaultGrid()
	grp := &Group{
		Kind: GroupCU, Pos: Coord{Row: 6, Col: 0},
		Nodes: []mr.NodeID{2, 3}, Slots: 5, Iterations: 1, Pack: 1,
	}
	ng := []int{-1, -1, 0, 0}
	return g, &Placement{Spec: spec, Groups: []*Group{grp}, NodeGroup: ng}
}

func TestTimingInnerProduct(t *testing.T) {
	g, pl := tinyPlacement(t)
	stats, err := Timing(g, pl)
	if err != nil {
		t.Fatal(err)
	}
	// PHVIn(4) + link(3+1) + traversal(5) + link(3+1) + PHVOut(4) = 21:
	// the Table 6 inner-product operating point (23 ns in the paper).
	if stats.LatencyCycles != 21 {
		t.Errorf("latency = %d, want 21", stats.LatencyCycles)
	}
	if stats.II != 1 {
		t.Errorf("II = %d, want 1 (line rate)", stats.II)
	}
	if stats.CUsUsed != 1 || stats.MUsUsed != 0 {
		t.Errorf("units = %d CU / %d MU", stats.CUsUsed, stats.MUsUsed)
	}
	if stats.LatencyNs() != 21 {
		t.Errorf("LatencyNs = %v (1 cycle = 1 ns at 1 GHz)", stats.LatencyNs())
	}
	if stats.LineRateFraction() != 1 {
		t.Errorf("line-rate fraction = %v", stats.LineRateFraction())
	}
}

func TestRunMatchesEval(t *testing.T) {
	g, pl := tinyPlacement(t)
	in := make([]int32, 16)
	for i := range in {
		in[i] = int32(i)
	}
	if err := pl.Validate(g); err != nil {
		t.Fatal(err)
	}
	outs, err := g.Eval(in)
	if err != nil {
		t.Fatal(err)
	}
	if outs[0][0] != 120 {
		t.Errorf("sum = %d, want 120", outs[0][0])
	}
	stats, err := Timing(g, pl)
	if err != nil {
		t.Fatal(err)
	}
	if stats.LatencyCycles == 0 {
		t.Error("no latency reported")
	}
}

func TestTimingIterationsRaiseII(t *testing.T) {
	g, pl := tinyPlacement(t)
	pl.Groups[0].Iterations = 3
	stats, err := Timing(g, pl)
	if err != nil {
		t.Fatal(err)
	}
	if stats.II != 3 {
		t.Errorf("II = %d, want 3", stats.II)
	}
}

func TestTimingSharedUnitSerialises(t *testing.T) {
	// Two independent ReLU groups on the same CU must serialise.
	b := mr.NewBuilder("two")
	x := b.Input("x", 4)
	a := b.Unary(mr.UReLU, x)
	c := b.Unary(mr.UNeg, x)
	b.Output(a, c)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	spec := DefaultGrid()
	pos := Coord{Row: 6, Col: 0}
	mk := func(id mr.NodeID) *Group {
		return &Group{Kind: GroupCU, Pos: pos, Nodes: []mr.NodeID{id}, Slots: 1, Iterations: 1, Pack: 1}
	}
	shared := &Placement{Spec: spec, Groups: []*Group{mk(1), mk(2)}, NodeGroup: []int{-1, 0, 1}}
	sStats, err := Timing(g, shared)
	if err != nil {
		t.Fatal(err)
	}
	apart := &Placement{Spec: spec, Groups: []*Group{mk(1), mk(2)}, NodeGroup: []int{-1, 0, 1}}
	apart.Groups[1].Pos = Coord{Row: 7, Col: 0}
	aStats, err := Timing(g, apart)
	if err != nil {
		t.Fatal(err)
	}
	if sStats.LatencyCycles <= aStats.LatencyCycles {
		t.Errorf("shared unit latency %d should exceed separate %d",
			sStats.LatencyCycles, aStats.LatencyCycles)
	}
	if sStats.II != 2 {
		t.Errorf("shared II = %d, want 2", sStats.II)
	}
	if aStats.II != 1 {
		t.Errorf("separate II = %d, want 1", aStats.II)
	}
}

func TestPlacementValidateRejects(t *testing.T) {
	g, pl := tinyPlacement(t)
	// Off grid.
	pl.Groups[0].Pos = Coord{Row: 99, Col: 0}
	if err := pl.Validate(g); err == nil {
		t.Error("off-grid placement should fail")
	}
	// CU group on an MU cell.
	_, pl = tinyPlacement(t)
	for r := 0; r < pl.Spec.Rows; r++ {
		for c := 0; c < pl.Spec.Cols; c++ {
			if pl.Spec.IsMU(Coord{r, c}) {
				pl.Groups[0].Pos = Coord{r, c}
				if err := pl.Validate(g); err == nil {
					t.Error("CU group on MU cell should fail")
				}
				return
			}
		}
	}
}

func TestPlacementValidateCoverage(t *testing.T) {
	g, pl := tinyPlacement(t)
	pl.NodeGroup = pl.NodeGroup[:2]
	if err := pl.Validate(g); err == nil {
		t.Error("short NodeGroup should fail")
	}
	g, pl = tinyPlacement(t)
	pl.NodeGroup[2] = -1
	if err := pl.Validate(g); err == nil {
		t.Error("ungrouped compute node should fail")
	}
}

// TestPlacementValidateRejectsUnknownNode: a group naming a node the graph
// does not have is an error from Validate (and so from Timing), not an
// index-out-of-range panic.
func TestPlacementValidateRejectsUnknownNode(t *testing.T) {
	for _, id := range []mr.NodeID{4, 1 << 20, -1} {
		g, pl := tinyPlacement(t)
		pl.Groups[0].Nodes = append(pl.Groups[0].Nodes, id)
		if err := pl.Validate(g); err == nil {
			t.Errorf("group naming node %d: Validate passed", id)
		}
		if _, err := Timing(g, pl); err == nil {
			t.Errorf("group naming node %d: Timing passed", id)
		}
	}
}

func TestNonConvexFusionRejected(t *testing.T) {
	// g: x -> a -> b -> c, but a and c fused while b is a separate, later
	// group: group 0 would consume from group 1.
	b := mr.NewBuilder("nc")
	x := b.Input("x", 2)
	a := b.Unary(mr.UReLU, x)
	mid := b.Unary(mr.UNeg, a)
	c := b.Unary(mr.UReLU, mid)
	b.Output(c)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	spec := DefaultGrid()
	g0 := &Group{Kind: GroupCU, Pos: Coord{Row: 6, Col: 0}, Nodes: []mr.NodeID{1, 3}, Slots: 2, Iterations: 1, Pack: 1}
	g1 := &Group{Kind: GroupCU, Pos: Coord{Row: 7, Col: 0}, Nodes: []mr.NodeID{2}, Slots: 1, Iterations: 1, Pack: 1}
	pl := &Placement{Spec: spec, Groups: []*Group{g0, g1}, NodeGroup: []int{-1, 0, 1, 0}}
	if _, err := Timing(g, pl); err == nil {
		t.Error("non-convex fusion should be rejected")
	}
}

func TestLinkCycles(t *testing.T) {
	a := Coord{Row: 0, Col: 0}
	if got := LinkCycles(a, a); got != HopBase {
		t.Errorf("zero-distance link = %d", got)
	}
	if got := LinkCycles(a, Coord{Row: 0, Col: 5}); got != HopBase+5 {
		t.Errorf("5-hop link = %d", got)
	}
}
