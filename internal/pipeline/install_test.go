package pipeline

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"taurus/internal/cgra"
	"taurus/internal/compiler"
	"taurus/internal/core"
	"taurus/internal/graphcheck"
	"taurus/internal/sched"
)

// installShapes are the two DNNs the gated benchmark installs: the anomaly
// model of dnn-bulk and the wider model of wide-bulk.
var installShapes = []struct {
	name  string
	sizes []int
}{
	{"6-12-6-3-1", []int{6, 12, 6, 3, 1}},
	{"8-64-32-1", []int{8, 64, 32, 1}},
}

// installPipeline is a 4-shard pipeline, the benchmark's install shape.
func installPipeline(tb testing.TB, inputs int) *Pipeline {
	tb.Helper()
	p, err := New(Config{Shards: 4, Device: core.DefaultConfig(inputs)})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(p.Close)
	return p
}

// TestLoadModelAllocationLedger pins what one 4-shard LoadModel allocates, in
// objects and bytes, for both benchmark shapes: 168 / 85 KB and 173 / 309 KB
// when the budget was set, against 688 / 134 KB and 2,141 / 616 KB before the
// clone, the placement passes and tapecheck stopped allocating per node. The
// least of eight installs is the steady cost: the pooled verifier workspaces
// are refilled after a GC (and under -race sync.Pool drops a Put on purpose),
// which is not an install's cost. An install that starts allocating per node
// again fails here on any host, fast or slow.
func TestLoadModelAllocationLedger(t *testing.T) {
	budgets := map[string]struct {
		allocs uint64
		bytes  uint64
	}{
		"6-12-6-3-1": {allocs: 190, bytes: 96 << 10},
		"8-64-32-1":  {allocs: 200, bytes: 330 << 10},
	}
	for _, shape := range installShapes {
		g, q := untrainedDNN(t, shape.sizes)
		p := installPipeline(t, shape.sizes[0])
		allocs, bytes := uint64(math.MaxUint64), uint64(math.MaxUint64)
		var before, after runtime.MemStats
		for range 8 {
			runtime.ReadMemStats(&before)
			if err := p.LoadModel(g, q.InputQ, compiler.Options{}); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			allocs = min(allocs, after.Mallocs-before.Mallocs)
			bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
		}
		b := budgets[shape.name]
		t.Logf("%s: a 4-shard LoadModel allocates %d objects / %d bytes", shape.name, allocs, bytes)
		if allocs > b.allocs || bytes > b.bytes {
			t.Errorf("%s: a 4-shard LoadModel allocates %d objects / %d bytes, budget %d / %d",
				shape.name, allocs, bytes, b.allocs, b.bytes)
		}
	}
}

// BenchmarkLoadModel splits a 4-shard install into its stages — the static
// gate, the clone, placement, the tape's plan and emit, the tape verifier —
// and times the whole LoadModel beside them, for both benchmark shapes:
//
//	go test ./internal/pipeline -run '^$' -bench LoadModel -benchmem
func BenchmarkLoadModel(b *testing.B) {
	for _, shape := range installShapes {
		g, q := untrainedDNN(b, shape.sizes)
		grid := cgra.DefaultGrid()
		prog, err := sched.CompileUnverified(g, grid)
		if err != nil {
			b.Fatal(err)
		}
		stages := []struct {
			name string
			run  func() error
		}{
			{"verify", func() error { return graphcheck.VerifyWith(g, graphcheck.Options{Grid: grid}).Err() }},
			{"clone", func() error { g.Clone(); return nil }},
			{"compile", func() error { _, err := compiler.Compile(g, compiler.Options{Grid: grid}); return err }},
			{"plan+emit", func() error { _, err := sched.CompileUnverified(g, grid); return err }},
			{"tapecheck", func() error { return sched.Check(prog) }},
		}
		for _, st := range stages {
			b.Run(fmt.Sprintf("%s/%s", shape.name, st.name), func(b *testing.B) {
				b.ReportAllocs()
				for range b.N {
					if err := st.run(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		b.Run(shape.name+"/install", func(b *testing.B) {
			p := installPipeline(b, shape.sizes[0])
			b.ReportAllocs()
			for range b.N {
				if err := p.LoadModel(g, q.InputQ, compiler.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
