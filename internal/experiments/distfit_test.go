package experiments

import (
	"errors"
	"testing"

	"taurus/internal/graphcheck"
	mr "taurus/internal/mapreduce"
)

// TestDistFitAcceptance runs the fault-injected drift-recovery loop and
// checks the PR's acceptance bar: with the fault injector killing one of
// four workers (and straggling one task) every round, the distributed loop
// must land within noise of the single-process loop's final F1, every
// round's merged model must lower to a graph byte-identical to the
// sequential reference merge, and the faults must actually have forced
// task re-execution.
func TestDistFitAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-round training loop")
	}
	res, _, err := DistFitTable(7)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) != distFitRounds {
		t.Fatalf("drift loop ran %d rounds, want %d", len(res.Rounds), distFitRounds)
	}
	for _, row := range res.Rounds {
		if !row.GraphParity {
			t.Errorf("round %d: distributed merge diverged from the sequential reference schedule", row.Round)
		}
		if row.LiveWorkers != 3 {
			t.Errorf("round %d ran with %d live workers, want 3 (1 of 4 killed)", row.Round, row.LiveWorkers)
		}
	}
	last := res.Rounds[len(res.Rounds)-1]
	diff := last.SingleF1 - last.DistF1
	if diff < 0 {
		diff = -diff
	}
	if diff > 10 {
		t.Errorf("final F1: single %.1f vs distributed %.1f — outside noise", last.SingleF1, last.DistF1)
	}
	if last.DistF1 < 60 {
		t.Errorf("distributed loop final F1 = %.1f, drift recovery failed", last.DistF1)
	}
	if last.ReissuedTasks == 0 {
		t.Error("fault injector produced no task re-executions")
	}

	if len(res.Scale) != 8 {
		t.Fatalf("scaling sweep has %d rows, want 8", len(res.Scale))
	}
	for _, row := range res.Scale {
		if row.RecordsPerSec <= 0 {
			t.Errorf("workers=%d faults=%v: no throughput measured", row.Workers, row.Faults)
		}
		if row.Faults && row.ReissuedTasks == 0 {
			t.Errorf("workers=%d: fault rounds re-issued nothing", row.Workers)
		}
		// No assertion that fault-free rows re-issue nothing: the sweep's
		// 150 ms task deadline is host time, and eight workers on two cores
		// under the race detector honestly miss it. That a coordinator with
		// no faults and no missed deadline re-issues nothing is pinned on
		// instant fake work by distfit.TestRoundMergesInChunkOrder.
	}
}

// TestGateMergedGraphRejects exercises the distfit merge-accept gate with a
// saturating merged graph and a structurally diverged one: both must be
// refused with a report naming the failure before byte parity is consulted.
func TestGateMergedGraphRejects(t *testing.T) {
	build := func(f func(b *mr.Builder)) *mr.Graph {
		b := mr.NewBuilder("g")
		f(b)
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	ref := build(func(b *mr.Builder) {
		b.Output(b.Reduce(mr.RAdd, b.Input("x", 4)))
	})

	sat := build(func(b *mr.Builder) {
		x := b.Input("x", 4)
		big := b.Const("big", []int32{1 << 20, 1 << 20, 1 << 20, 1 << 20})
		y := b.Map(mr.MMul, x, big)
		b.Output(b.Reduce(mr.RAdd, b.Map(mr.MMul, y, y)))
	})
	if err := gateMergedGraph(0, ref, sat); !errors.Is(err, graphcheck.ErrBadGraph) {
		t.Fatalf("gate(saturating merge) = %v, want ErrBadGraph", err)
	}

	diverged := build(func(b *mr.Builder) {
		b.Output(b.Reduce(mr.RAdd, b.Unary(mr.UAbs, b.Input("x", 4))))
	})
	if err := gateMergedGraph(0, ref, diverged); !errors.Is(err, graphcheck.ErrIncompatible) {
		t.Fatalf("gate(diverged merge) = %v, want ErrIncompatible", err)
	}

	if err := gateMergedGraph(0, ref, build(func(b *mr.Builder) {
		b.Output(b.Reduce(mr.RAdd, b.Input("x", 4)))
	})); err != nil {
		t.Fatalf("gate(identical structure) = %v, want nil", err)
	}
}
