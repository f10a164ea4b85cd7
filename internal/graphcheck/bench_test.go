package graphcheck_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"taurus/internal/fixed"
	"taurus/internal/graphcheck"
	mr "taurus/internal/mapreduce"
	"taurus/internal/ml"
)

// bigDNNGraph builds a 64-128-64-8 MLP graph by hand — larger than any
// lowering the repo ships (~1400 nodes), the worst case the allocation
// budget guards.
func bigDNNGraph(tb testing.TB) *mr.Graph {
	tb.Helper()
	rng := rand.New(rand.NewSource(42))
	lut, err := ml.NewQuantLUT(ml.ReLU, 1.0/4096, fixed.NewQuantizer(1))
	if err != nil {
		tb.Fatal(err)
	}
	var table mr.LUT
	table.Mult = lut.IdxMult
	copy(table.Table[:], lut.Table[:])

	b := mr.NewBuilder("big-dnn")
	layer := b.Input("x", 64)
	for li, width := range []int{128, 64, 8} {
		neurons := make([]mr.Value, width)
		for i := range neurons {
			w := make([]int8, layer.Width())
			for j := range w {
				w[j] = int8(rng.Intn(256) - 128)
			}
			wv := b.ConstInt8(fmt.Sprintf("w%d_%d", li, i), w)
			acc := b.DotProduct(wv, layer)
			acc = b.Map(mr.MAdd, acc, b.Scalar(fmt.Sprintf("b%d_%d", li, i), int32(rng.Intn(2048)-1024)))
			neurons[i] = acc
		}
		z := b.Concat(neurons...)
		layer = b.ApplyLUT(z, &table)
	}
	b.Output(layer)
	g, err := b.Build()
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// BenchmarkVerify is the bench-smoke guard: verifying the largest DNN-shaped
// graph must stay in the low-millisecond range and allocate O(nodes).
func BenchmarkVerify(b *testing.B) {
	g := bigDNNGraph(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := graphcheck.Verify(g)
		if !rep.OK() {
			b.Fatalf("benchmark graph rejected:\n%s", rep)
		}
	}
}

// TestVerifyLargestDNNBudget pins the verifier's cost on the largest lowered
// DNN in allocations and bytes (1020 / 617 KB when the budget was set): one
// lane slice per node plus report bookkeeping. Wall time is BenchmarkVerify's
// and the benchmark ledger's business, not a test's.
func TestVerifyLargestDNNBudget(t *testing.T) {
	g := bigDNNGraph(t)
	rep := graphcheck.Verify(g) // warm up; also sanity-check it passes
	if !rep.OK() {
		t.Fatalf("big DNN rejected:\n%s", rep)
	}

	const rounds = 5
	allocs := testing.AllocsPerRun(rounds, func() { graphcheck.Verify(g) })
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		graphcheck.Verify(g)
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / rounds
	if allocs > 1100 || bytes > 680_000 {
		t.Errorf("Verify(%d nodes) allocates %.0f objects / %d bytes, budget 1100 / 680000",
			len(g.Nodes), allocs, bytes)
	}
}
