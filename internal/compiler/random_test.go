package compiler

import (
	"math/rand"
	"testing"

	"taurus/internal/cgra"
	"taurus/internal/fixed"
	mr "taurus/internal/mapreduce"
)

// randomGraph builds a random but valid MapReduce program: a DAG of map,
// unary, reduce, requant, concat and slice nodes over one input vector.
func randomGraph(rng *rand.Rand) (*mr.Graph, int) {
	b := mr.NewBuilder("random")
	inWidth := 2 + rng.Intn(15)
	vals := []mr.Value{b.Input("x", inWidth)}
	mult, err := fixed.NewMultiplier(0.25)
	if err != nil {
		panic(err)
	}
	nodes := 3 + rng.Intn(20)
	for i := 0; i < nodes; i++ {
		pick := vals[rng.Intn(len(vals))]
		var v mr.Value
		switch rng.Intn(6) {
		case 0:
			c := make([]int32, pick.Width())
			for j := range c {
				c[j] = int32(rng.Intn(21) - 10)
			}
			v = b.Map(mr.MapOp(rng.Intn(5)), pick, b.Const("c", c))
		case 1:
			v = b.Unary(mr.UnaryOp(rng.Intn(4)), pick)
		case 2:
			v = b.Reduce(mr.ReduceOp(rng.Intn(5)), pick)
		case 3:
			v = b.Requant(pick, mult)
		case 4:
			other := vals[rng.Intn(len(vals))]
			v = b.Concat(pick, other)
			if v.Width() > 48 {
				continue // keep widths bounded
			}
		default:
			if pick.Width() < 2 {
				continue
			}
			w := 1 + rng.Intn(pick.Width()-1)
			v = b.Slice(pick, rng.Intn(pick.Width()-w), w)
		}
		vals = append(vals, v)
	}
	b.Output(vals[len(vals)-1])
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g, inWidth
}

// Every random program must compile onto the grid, pass placement
// validation and evaluate, with finite, sane timing.
func TestRandomGraphsCompileAndMatch(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 150; trial++ {
		g, inWidth := randomGraph(rng)
		res, err := Compile(g, Options{})
		if err != nil {
			t.Fatalf("trial %d: compile: %v", trial, err)
		}
		in := make([]int32, inWidth)
		for i := range in {
			in[i] = int32(rng.Intn(255) - 128)
		}
		if err := res.Placement.Validate(g); err != nil {
			t.Fatalf("trial %d: placement: %v", trial, err)
		}
		if _, err := g.Eval(in); err != nil {
			t.Fatalf("trial %d: eval: %v", trial, err)
		}
		stats, err := cgra.Timing(g, res.Placement)
		if err != nil {
			t.Fatalf("trial %d: timing: %v", trial, err)
		}
		if stats.LatencyCycles <= 0 || stats.LatencyCycles > 10000 {
			t.Fatalf("trial %d: implausible latency %d", trial, stats.LatencyCycles)
		}
		if stats.II < 1 {
			t.Fatalf("trial %d: II = %d", trial, stats.II)
		}
	}
}

// Random graphs under restricted grids (fewer CUs, narrower lanes) must
// still compile, with II reflecting the sharing.
func TestRandomGraphsUnderPressure(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	grid := cgra.DefaultGrid()
	grid.Lanes = 8
	for trial := 0; trial < 60; trial++ {
		g, inWidth := randomGraph(rng)
		res, err := Compile(g, Options{Grid: grid, MaxCUs: 3})
		if err != nil {
			t.Fatalf("trial %d: compile: %v", trial, err)
		}
		if res.Usage.CUs > 3 {
			t.Fatalf("trial %d: used %d CUs over the cap", trial, res.Usage.CUs)
		}
		if err := res.Placement.Validate(g); err != nil {
			t.Fatalf("trial %d: placement: %v", trial, err)
		}
		if _, err := g.Eval(make([]int32, inWidth)); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}
