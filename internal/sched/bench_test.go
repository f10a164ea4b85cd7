package sched_test

import (
	"fmt"
	"math/rand"
	"testing"

	"taurus/internal/cgra"
	"taurus/internal/lower"
	mr "taurus/internal/mapreduce"
	"taurus/internal/ml"
	"taurus/internal/sched"
	"taurus/internal/tensor"
)

// benchGraph picks the DNN lowering: the dense dot-product chains are the
// shape the fused tape is built for and what the device serves per packet.
func benchGraph(b *testing.B) *mr.Graph {
	return modelGraphs(b)["dnn"]
}

// wideGraph lowers an untrained DNN of the given layer sizes. The
// benchmark's wide model is 8-64-32-1: 2592 multiply-accumulates per packet
// against the small model's 165, so per-instruction set-up no longer hides
// what a multiply costs.
func wideGraph(b *testing.B, sizes ...int) (g *mr.Graph, macs int) {
	rng := rand.New(rand.NewSource(5))
	X := make([]tensor.Vec, 64)
	for i := range X {
		X[i] = make(tensor.Vec, sizes[0])
		for k := range X[i] {
			X[i][k] = float32(rng.NormFloat64())
		}
	}
	q, err := ml.Quantize(ml.NewDNN(sizes, ml.ReLU, ml.Sigmoid, rng), X)
	if err != nil {
		b.Fatal(err)
	}
	if g, err = lower.DNN(q, "wide"); err != nil {
		b.Fatal(err)
	}
	for i := 1; i < len(sizes); i++ {
		macs += sizes[i-1] * sizes[i]
	}
	return g, macs
}

// BenchmarkEval times the compiled tape on one graph, each batch slot staged
// with its own seeded input as a real batch is (one vector copied into every
// slot would hide a kernel whose cost depends on the data): compiled is
// Program.Run, batch is Program.RunBatch amortised per packet, and the wide
// cases report what a multiply-accumulate of the 8-64-32-1 model costs at
// batch fills 1, 4, 8 and 16 — a partial sweep pays per-instruction set-up
// over fewer packets, and nothing else. Those run the kernels the CPU
// selects; dnn/fill16, wide/fill1 and wide/fill16 also run with dots=go, the
// Go loops and the Go finisher on every block, against which the fused AVX2
// kernel's gain on the hidden layers reads. All must report 0 allocs/op.
func BenchmarkEval(b *testing.B) {
	g := benchGraph(b)
	// in are DefaultBatch seeded inputs of the models' 8 lanes.
	rng := rand.New(rand.NewSource(3))
	in := make([][]int32, sched.DefaultBatch)
	for j := range in {
		in[j] = make([]int32, 8)
		for i := range in[j] {
			in[j][i] = int32(int8(rng.Intn(256)))
		}
	}

	// sweep times RunBatch(fill) per packet over slots j filled with in[j]
	// and returns how many packets it swept (b.N rounded up to whole sweeps).
	sweep := func(b *testing.B, g *mr.Graph, fill int, in [][]int32) (packets int) {
		p, err := sched.Compile(g, cgra.DefaultGrid())
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < fill; j++ {
			copy(p.InAt(0, j), in[j])
		}
		b.ReportAllocs()
		b.ResetTimer()
		for ; packets < b.N; packets += fill {
			p.RunBatch(fill)
		}
		return packets
	}
	// perMAC is sweep reporting what one of the graph's macs
	// multiply-accumulates costs.
	perMAC := func(b *testing.B, g *mr.Graph, macs, fill int, in [][]int32) {
		packets := sweep(b, g, fill, in)
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(packets*macs), "ns/MAC")
	}
	b.Run("compiled", func(b *testing.B) {
		p, err := sched.Compile(g, cgra.DefaultGrid())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			copy(p.In(0), in[0])
			p.Run()
		}
	})
	b.Run("batch", func(b *testing.B) { sweep(b, g, sched.DefaultBatch, in) })
	b.Run(fmt.Sprintf("dnn/fill%d/dots=go", sched.DefaultBatch), func(b *testing.B) {
		selectDots(b, false)
		sweep(b, g, sched.DefaultBatch, in)
	})

	wide, macs := wideGraph(b, 8, 64, 32, 1)
	for _, fill := range []int{1, 4, 8, sched.DefaultBatch} {
		b.Run(fmt.Sprintf("wide/fill%d", fill), func(b *testing.B) { perMAC(b, wide, macs, fill, in) })
	}
	for _, fill := range []int{1, sched.DefaultBatch} {
		b.Run(fmt.Sprintf("wide/fill%d/dots=go", fill), func(b *testing.B) {
			selectDots(b, false)
			perMAC(b, wide, macs, fill, in)
		})
	}
}
