package mapreduce

import (
	"testing"

	"taurus/internal/fixed"
)

// buildTestGraph exercises every node kind: slice, map (broadcast and full),
// unary, reduce, requant, scale, LUT, concat.
func buildTestGraph(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder("clone-test")
	in := b.Input("x", 8)
	w := b.Const("w", []int32{1, -2, 3, -4, 5, -6, 7, -8})
	prod := b.Map(MMul, in, w)
	act := b.Unary(UReLU, prod)
	sum := b.Reduce(RAdd, act)
	mult := func(f float64) fixed.Multiplier {
		m, err := fixed.NewMultiplier(f)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	sc := b.Scale(sum, mult(1.5))
	rq := b.Requant(sc, mult(0.25))
	lo := b.Slice(in, 0, 4)
	hi := b.Slice(in, 4, 4)
	mx := b.Map(MMax, lo, hi)
	var lut LUT
	lut.Mult = mult(1.0)
	for i := range lut.Table {
		lut.Table[i] = int8((i % 251) - 125)
	}
	nl := b.ApplyLUT(mx, &lut)
	cat := b.Concat(rq, nl)
	b.Output(cat)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestGraphClone(t *testing.T) {
	g := buildTestGraph(t)
	c := g.Clone()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	in := []int32{1, 2, 3, 4, 5, 6, 7, 8}
	want, err := g.Eval(in)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Eval(in)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want[0] {
		if got[0][i] != want[0][i] {
			t.Fatalf("clone diverges at lane %d", i)
		}
	}
	// Mutating the clone's weights must not touch the original.
	for _, n := range c.Nodes {
		switch n.Kind {
		case KConst:
			for i := range n.Const {
				n.Const[i] = 0
			}
		case KLUT:
			n.LUT.Table[0] = 99
		}
	}
	again, err := g.Eval(in)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want[0] {
		if again[0][i] != want[0][i] {
			t.Fatal("mutating clone changed the original graph")
		}
	}
}

// TestCloneKeepsSharedLUTs: lookups that share one table in the original
// share one copy of it in the clone — placement puts lookups of one table on
// one MU, so a clone that split them would place differently — while distinct
// tables stay distinct, and no table is the original's.
func TestCloneKeepsSharedLUTs(t *testing.T) {
	b := NewBuilder("shared-luts")
	x := b.Input("x", 4)
	var shared, other LUT
	shared.Mult = fixed.Multiplier{M0: 1 << 30, Shift: 31}
	other.Mult = shared.Mult
	other.Table[0] = 1
	a := b.ApplyLUT(x, &shared)
	c := b.ApplyLUT(b.Unary(UNeg, x), &other)
	d := b.ApplyLUT(b.Unary(UAbs, x), &shared)
	b.Output(b.Concat(a, c, d))
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	c2 := g.Clone()
	var luts []*LUT
	for _, n := range c2.Nodes {
		if n.Kind == KLUT {
			luts = append(luts, n.LUT)
			if n.LUT == &shared || n.LUT == &other {
				t.Fatalf("node %d: the clone holds the original's table", n.ID)
			}
		}
	}
	if len(luts) != 3 || luts[0] != luts[2] || luts[0] == luts[1] {
		t.Fatalf("clone tables %p: want the first and last shared, the middle its own", luts)
	}
	if *luts[0] != shared || *luts[1] != other {
		t.Fatal("cloned tables differ from the originals")
	}
}
