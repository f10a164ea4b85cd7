package sched_test

import (
	"math/rand"
	"testing"

	"taurus/internal/cgra"
	mr "taurus/internal/mapreduce"
	"taurus/internal/sched"
)

// benchGraph picks the DNN lowering: the dense dot-product chains are the
// shape the fused tape is built for and what the device serves per packet.
func benchGraph(b *testing.B) *mr.Graph {
	return modelGraphs(b)["dnn"]
}

// BenchmarkEval times the compiled tape on one graph and input: compiled is
// Program.Run, batch is Program.RunBatch amortised per packet. Both must
// report 0 allocs/op.
func BenchmarkEval(b *testing.B) {
	g := benchGraph(b)
	rng := rand.New(rand.NewSource(3))
	codes := make([]int32, g.Node(g.Inputs[0]).Width)
	for i := range codes {
		codes[i] = int32(int8(rng.Intn(256)))
	}

	b.Run("compiled", func(b *testing.B) {
		p, err := sched.Compile(g, cgra.DefaultGrid())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			copy(p.In(0), codes)
			p.Run()
		}
	})
	b.Run("batch", func(b *testing.B) {
		p, err := sched.Compile(g, cgra.DefaultGrid())
		if err != nil {
			b.Fatal(err)
		}
		batch := p.MaxBatch()
		for j := 0; j < batch; j++ {
			copy(p.InAt(0, j), codes)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i += batch {
			p.RunBatch(batch)
		}
	})
}
