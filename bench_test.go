// Timings of the per-packet and batch paths, plus four ablations of design
// choices that no table prints (datapath precision, reduction tree, bypass,
// LSTM packing), each reporting its quantities via b.ReportMetric. The
// paper's tables and figures are reproduced by `taurus-bench -exp` alone and
// checked by the tests of internal/experiments. With -benchmem the batch
// timings also assert the zero-allocation hot path.
package taurus

import (
	"fmt"
	"sync"
	"testing"

	"taurus/internal/cgra"
	"taurus/internal/compiler"
	"taurus/internal/core"
	"taurus/internal/experiments"
	"taurus/internal/fixed"
	"taurus/internal/lower"
	"taurus/internal/pipeline"
	"taurus/internal/pisa"
	"taurus/internal/trafficgen"
)

var (
	modelsOnce sync.Once
	models     *experiments.Models
	modelsErr  error
)

func sharedModels(b *testing.B) *experiments.Models {
	b.Helper()
	modelsOnce.Do(func() {
		models, modelsErr = experiments.TrainModels(1)
	})
	if modelsErr != nil {
		b.Fatal(modelsErr)
	}
	return models
}

// BenchmarkPerPacketInference measures the simulated data-plane inference
// path itself (quantised DNN through the lowered graph), the operation a
// real Taurus does once per packet.
func BenchmarkPerPacketInference(b *testing.B) {
	m := sharedModels(b)
	codes := make([]int32, 6)
	for i := range codes {
		codes[i] = int32(20 * (i + 1))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.DNNGraph.Eval(codes); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeviceProcess measures the full device pipeline (parse, MATs,
// registers, inference, verdict) per packet.
func BenchmarkDeviceProcess(b *testing.B) {
	m := sharedModels(b)
	dev, err := core.NewDevice(core.DefaultConfig(6))
	if err != nil {
		b.Fatal(err)
	}
	if err := dev.LoadModel(m.DNNGraph, m.DNN.InputQ, compiler.Options{}); err != nil {
		b.Fatal(err)
	}
	pkt := pisa.BuildTCPPacket(1, 2, 3, 4, 0x10, 64)
	feats := make([]float32, 6)
	for i := range feats {
		feats[i] = float32(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dev.Process(core.PacketIn{Data: pkt, Features: feats}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchBatch builds a reusable batch of TCP packets over nflows flows, each
// carrying its flow's feature vector.
func benchBatch(b *testing.B, n, nflows int) ([]core.PacketIn, []core.Decision) {
	b.Helper()
	ins, out, err := trafficgen.AnomalyBatch(11, n, nflows)
	if err != nil {
		b.Fatal(err)
	}
	return ins, out
}

// BenchmarkPipelineThroughput drives 4096-packet batches through the
// sharded traffic plane at shard counts {1, 4, 8}. "model-pps" is the
// modelled hardware throughput (the busiest shard's MapReduce occupancy at
// 1 GHz; shards drain in parallel, so it scales with the shard count);
// "wall-pps" is the host simulation rate. The steady-state batch path must
// report 0 allocs/op.
func BenchmarkPipelineThroughput(b *testing.B) {
	m := sharedModels(b)
	const batchSize, flows = 4096, 512
	for _, shards := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("shards-%d", shards), func(b *testing.B) {
			pl, err := pipeline.New(pipeline.Config{Shards: shards, Device: core.DefaultConfig(6)})
			if err != nil {
				b.Fatal(err)
			}
			defer pl.Close()
			if err := pl.LoadModel(m.DNNGraph, m.DNN.InputQ, compiler.Options{}); err != nil {
				b.Fatal(err)
			}
			ins, out := benchBatch(b, batchSize, flows)
			if _, err := pl.ProcessBatch(ins, out); err != nil { // warm up
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var bs pipeline.BatchStats
			for i := 0; i < b.N; i++ {
				bs, err = pl.ProcessBatch(ins, out)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(bs.ModelPacketsPerSec(), "model-pps")
			b.ReportMetric(float64(batchSize)*float64(b.N)/b.Elapsed().Seconds(), "wall-pps")
		})
	}
}

// BenchmarkDeviceProcessBatch measures the single-shard zero-allocation
// batch path (the loop each pipeline worker runs).
func BenchmarkDeviceProcessBatch(b *testing.B) {
	m := sharedModels(b)
	dev, err := core.NewDevice(core.DefaultConfig(6))
	if err != nil {
		b.Fatal(err)
	}
	if err := dev.LoadModel(m.DNNGraph, m.DNN.InputQ, compiler.Options{}); err != nil {
		b.Fatal(err)
	}
	ins, out := benchBatch(b, 1024, 128)
	if err := dev.ProcessBatch(ins, out); err != nil { // warm up
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := dev.ProcessBatch(ins, out); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(ins))*float64(b.N)/b.Elapsed().Seconds(), "wall-pps")
}

// ---------------------------------------------------------------------------
// Ablations.
// ---------------------------------------------------------------------------

// BenchmarkAblationPrecision compiles the DNN at fix8/fix16/fix32 and
// reports the area cost of wider datapaths (Table 4's motivation).
func BenchmarkAblationPrecision(b *testing.B) {
	m := sharedModels(b)
	for _, p := range []fixed.Precision{fixed.Fix8, fixed.Fix16, fixed.Fix32} {
		b.Run(p.String(), func(b *testing.B) {
			grid := cgra.DefaultGrid()
			grid.Precision = p
			var area float64
			for i := 0; i < b.N; i++ {
				res, err := compiler.Compile(m.DNNGraph, compiler.Options{Grid: grid})
				if err != nil {
					b.Fatal(err)
				}
				area = res.AreaMM2()
			}
			b.ReportMetric(area, "mm2")
		})
	}
}

// BenchmarkAblationReduceTree contrasts a 16-wide reduction inside one CU
// (tree across lanes) with the same reduction forced across narrow CUs.
func BenchmarkAblationReduceTree(b *testing.B) {
	ip, err := lower.InnerProduct(16)
	if err != nil {
		b.Fatal(err)
	}
	wide := cgra.DefaultGrid() // 16 lanes: reduce fits one CU
	narrow := cgra.DefaultGrid()
	narrow.Lanes = 4 // chunked: 4 iterations per dot product
	for _, cfg := range []struct {
		name string
		grid cgra.GridSpec
	}{{"in-cu-16-lane", wide}, {"chunked-4-lane", narrow}} {
		b.Run(cfg.name, func(b *testing.B) {
			var res *compiler.Result
			for i := 0; i < b.N; i++ {
				res, err = compiler.Compile(ip, compiler.Options{Grid: cfg.grid})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Stats.LatencyCycles), "latency-ns")
			b.ReportMetric(float64(res.Stats.II), "ii")
		})
	}
}

// BenchmarkAblationBypass measures device transit for bypass vs ML packets:
// the bypass path must add no MapReduce latency (§4).
func BenchmarkAblationBypass(b *testing.B) {
	m := sharedModels(b)
	dev, err := core.NewDevice(core.DefaultConfig(6))
	if err != nil {
		b.Fatal(err)
	}
	if err := dev.LoadModel(m.DNNGraph, m.DNN.InputQ, compiler.Options{}); err != nil {
		b.Fatal(err)
	}
	feats := make([]float32, 6)
	mlPkt := pisa.BuildTCPPacket(1, 2, 3, 4, 0x10, 64)
	arp := make([]byte, 14)
	arp[12], arp[13] = 0x08, 0x06

	b.Run("ml-path", func(b *testing.B) {
		var lat float64
		for i := 0; i < b.N; i++ {
			dec, err := dev.Process(core.PacketIn{Data: mlPkt, Features: feats})
			if err != nil {
				b.Fatal(err)
			}
			lat = dec.LatencyNs
		}
		b.ReportMetric(lat, "model-latency-ns")
	})
	b.Run("bypass", func(b *testing.B) {
		var lat float64
		for i := 0; i < b.N; i++ {
			dec, err := dev.Process(core.PacketIn{Data: arp})
			if err != nil {
				b.Fatal(err)
			}
			lat = dec.LatencyNs
		}
		b.ReportMetric(lat, "model-latency-ns")
	})
}

// BenchmarkAblationPacking sweeps the LSTM across CU budgets: fewer units
// mean more sharing (packing), lower area, and a worse initiation interval.
func BenchmarkAblationPacking(b *testing.B) {
	m := sharedModels(b)
	for _, maxCUs := range []int{0, 64, 32} {
		name := "whole-grid"
		if maxCUs > 0 {
			name = "maxcus-" + string(rune('0'+maxCUs/10)) + string(rune('0'+maxCUs%10))
		}
		b.Run(name, func(b *testing.B) {
			var res *compiler.Result
			var err error
			for i := 0; i < b.N; i++ {
				res, err = compiler.Compile(m.LSTMGraph, compiler.Options{MaxCUs: maxCUs})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Stats.II), "ii")
			b.ReportMetric(res.AreaMM2(), "mm2")
		})
	}
}
