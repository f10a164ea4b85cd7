package sched

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"taurus/internal/cgra"
	mr "taurus/internal/mapreduce"
)

// sortedIssueOrder is the tape order as emit used to compute it: every node,
// sorted by Start cycle, ties by ID.
func sortedIssueOrder(s *Schedule) []mr.NodeID {
	order := make([]mr.NodeID, 0, len(s.Start))
	for id := range s.Start {
		order = append(order, mr.NodeID(id))
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if s.Start[a] != s.Start[b] {
			return s.Start[a] < s.Start[b]
		}
		return a < b
	})
	return order
}

// TestIssueOrderMatchesSort pins the bucketed issue order to the sort it
// replaced, on planned schedules of a dense layer at several grid sizes and
// on random Start cycles with many ties (including cycle 0 and empty cycles).
func TestIssueOrderMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	b := mr.NewBuilder("layer")
	x := b.Input("x", 24)
	neurons := make([]mr.Value, 16)
	for i := range neurons {
		w := make([]int32, 24)
		for j := range w {
			w[j] = int32(rng.Intn(255) - 127)
		}
		neurons[i] = b.Map(mr.MAdd, b.DotProduct(b.Const("w", w), x), b.Scalar("b", int32(i)))
	}
	b.Output(b.Unary(mr.UReLU, b.Concat(neurons...)))
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, rows := range []int{1, 2, 12} {
		spec := cgra.DefaultGrid()
		spec.Rows = rows
		s, err := Plan(g, spec)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := issueOrder(s), sortedIssueOrder(s); !slices.Equal(got, want) {
			t.Errorf("%d rows: issue order %v, sort gives %v", rows, got, want)
		}
	}
	for trial := 0; trial < 200; trial++ {
		s := &Schedule{Start: make([]int, rng.Intn(64))}
		span := 1 + rng.Intn(20)
		for i := range s.Start {
			s.Start[i] = rng.Intn(span)
		}
		if got, want := issueOrder(s), sortedIssueOrder(s); !slices.Equal(got, want) {
			t.Fatalf("Start %v: issue order %v, sort gives %v", s.Start, got, want)
		}
	}
}
