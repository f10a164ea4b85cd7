package graphcheck_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"taurus/internal/fixed"
	"taurus/internal/graphcheck"
	mr "taurus/internal/mapreduce"
	"taurus/internal/ml"
)

// bigDNNGraph builds a 64-128-64-8 MLP graph by hand — larger than any
// lowering the repo ships (1007 nodes), the worst case the allocation
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

// BenchmarkVerify times both gates: "install" is a full verify of the largest
// DNN-shaped graph (the bench-smoke guard: well under a millisecond, and only
// its Report allocated), "push" is CheckPush of the benchmark's 8-64-32-1
// model onto itself, alternating two weight sets:
//
//	go test ./internal/graphcheck -run '^$' -bench Verify -benchmem
func BenchmarkVerify(b *testing.B) {
	b.Run("install/64-128-64-8", func(b *testing.B) {
		g := bigDNNGraph(b)
		b.ReportAllocs()
		for range b.N {
			if rep := graphcheck.Verify(g); !rep.OK() {
				b.Fatalf("benchmark graph rejected:\n%s", rep)
			}
		}
	})
	b.Run("push/8-64-32-1", func(b *testing.B) {
		installed := untrainedDNN(b, []int{8, 64, 32, 1})
		flipped := installed.Clone()
		for _, n := range flipped.Nodes {
			if n.Kind == mr.KConst {
				for i := range n.Const {
					n.Const[i] = -n.Const[i]
				}
			}
		}
		weights := []*mr.Graph{flipped, installed}
		b.ReportAllocs()
		for i := range b.N {
			if err := graphcheck.CheckPush(installed, weights[i%2], graphcheck.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// reportBytes is what a Report holds of its own: the struct, Ranges,
// Findings with their messages, and DeadNodes.
func reportBytes(r *graphcheck.Report) uint64 {
	n := reflect.TypeOf(*r).Size() +
		uintptr(cap(r.Ranges))*reflect.TypeOf(graphcheck.Interval{}).Size() +
		uintptr(cap(r.Findings))*reflect.TypeOf(graphcheck.Finding{}).Size() +
		uintptr(cap(r.DeadNodes))*reflect.TypeOf(mr.NodeID(0)).Size()
	for _, f := range r.Findings {
		n += uintptr(len(f.Msg))
	}
	return uint64(n)
}

// warmCost returns the allocations and bytes of the cheapest of ten calls of
// f, after one to warm up: the cost of a call that finds the workspace pool
// stocked, which a GC — or, under -race, sync.Pool on purpose — may empty.
func warmCost(f func()) (allocs, bytes uint64) {
	f()
	allocs, bytes = math.MaxUint64, math.MaxUint64
	var before, after runtime.MemStats
	for range 10 {
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		allocs = min(allocs, after.Mallocs-before.Mallocs)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
	}
	return allocs, bytes
}

// TestVerifyLargestDNNBudget pins the verifier's cost on the largest
// DNN-shaped graph in allocations and bytes, on warm calls: the interval walk
// runs in a pooled workspace, so a verify allocates its Report (6 objects,
// 1.02x the report's own bytes) — one lane slice per node would be ~1000. Wall time is BenchmarkVerify's and the benchmark
// ledger's business, not a test's.
func TestVerifyLargestDNNBudget(t *testing.T) {
	g := bigDNNGraph(t)
	rep := graphcheck.Verify(g)
	if !rep.OK() {
		t.Fatalf("big DNN rejected:\n%s", rep)
	}
	allocs, bytes := warmCost(func() { graphcheck.Verify(g) })
	own := reportBytes(rep)
	if allocs > 16 || float64(bytes) > 1.5*float64(own) {
		t.Errorf("Verify(%d nodes) allocates %d objects / %d bytes, budget 16 / 1.5 x the report's %d",
			len(g.Nodes), allocs, bytes, own)
	}
	t.Logf("Verify(%d nodes): %d allocations, %d bytes (report %d)", len(g.Nodes), allocs, bytes, own)
}

// TestVerifyWideDNNAllocs: verifying the benchmark's 8-64-32-1 model — clean
// but for the census's CU-oversubscription warning — makes at most 10
// allocations (502, about one per node, before the walk was pooled).
func TestVerifyWideDNNAllocs(t *testing.T) {
	g := untrainedDNN(t, []int{8, 64, 32, 1})
	if rep := graphcheck.Verify(g); !rep.OK() {
		t.Fatalf("8-64-32-1 rejected:\n%s", rep)
	}
	allocs, _ := warmCost(func() { graphcheck.Verify(g) })
	if allocs > 10 {
		t.Errorf("Verify(8-64-32-1, %d nodes) makes %d allocations, budget 10", len(g.Nodes), allocs)
	}
	t.Logf("Verify(8-64-32-1, %d nodes): %d allocations", len(g.Nodes), allocs)
}
