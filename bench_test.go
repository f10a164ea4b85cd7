// Benchmarks regenerating every table and figure of the paper's evaluation,
// plus ablations of the design choices called out in DESIGN.md. Each
// benchmark reports the headline quantities via b.ReportMetric so
// `go test -bench=. -benchmem` doubles as the reproduction harness
// (cmd/taurus-bench prints the full formatted tables).
package taurus

import (
	"fmt"
	"sync"
	"testing"

	"taurus/internal/accel"
	"taurus/internal/cgra"
	"taurus/internal/compiler"
	"taurus/internal/core"
	"taurus/internal/experiments"
	"taurus/internal/fixed"
	"taurus/internal/hwmodel"
	"taurus/internal/lower"
	"taurus/internal/netsim"
	"taurus/internal/pipeline"
	"taurus/internal/pisa"
	"taurus/internal/trafficgen"
	"taurus/internal/training"
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

// BenchmarkTable2 regenerates the control-plane accelerator latencies.
func BenchmarkTable2(b *testing.B) {
	var rows []experiments.Table2Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, _, err = experiments.Table2()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].LatencyMs, "cpu-ms")
	b.ReportMetric(rows[2].LatencyMs, "tpu-ms")
}

// BenchmarkTable3 regenerates the float-vs-fix8 IoT accuracy comparison.
func BenchmarkTable3(b *testing.B) {
	var rows []experiments.Table3Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, _, err = experiments.Table3(1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].Float32, "float32-acc-pct")
	b.ReportMetric(rows[0].Diff, "fix8-diff-pct")
}

// BenchmarkTable4 regenerates per-FU area/power by precision.
func BenchmarkTable4(b *testing.B) {
	var rows []experiments.Table4Row
	for i := 0; i < b.N; i++ {
		rows, _ = experiments.Table4()
	}
	b.ReportMetric(rows[0].AreaUM2, "fix8-um2")
	b.ReportMetric(rows[2].AreaUM2, "fix32-um2")
}

// BenchmarkFigure9 sweeps CU configurations.
func BenchmarkFigure9(b *testing.B) {
	var pts []experiments.Figure9Point
	for i := 0; i < b.N; i++ {
		pts, _ = experiments.Figure9()
	}
	b.ReportMetric(float64(len(pts)), "configs")
}

// BenchmarkFigure10 compiles the activation suite across stage counts.
func BenchmarkFigure10(b *testing.B) {
	var pts []experiments.Figure10Point
	for i := 0; i < b.N; i++ {
		var err error
		pts, _, err = experiments.Figure10()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(pts)), "points")
}

// BenchmarkTable5 compiles the four application models.
func BenchmarkTable5(b *testing.B) {
	m := sharedModels(b)
	var rows []experiments.Table5Row
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		rows, _, err = experiments.Table5(m)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rows[2].LatencyNs), "dnn-ns")
	b.ReportMetric(rows[2].AreaMM2, "dnn-mm2")
	b.ReportMetric(rows[3].AreaMM2, "lstm-mm2")
}

// BenchmarkTable6 compiles the microbenchmark suite.
func BenchmarkTable6(b *testing.B) {
	var rows []experiments.Table6Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, _, err = experiments.Table6()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Name == "InnerProduct" {
			b.ReportMetric(float64(r.LatencyNs), "inner-product-ns")
		}
	}
}

// BenchmarkTable7 sweeps Conv1D unrolling.
func BenchmarkTable7(b *testing.B) {
	var rows []experiments.Table7Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, _, err = experiments.Table7()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[len(rows)-1].AreaMM2/rows[0].AreaMM2, "area-scaling-8x")
}

// BenchmarkTable8 runs the end-to-end baseline-vs-Taurus simulation.
func BenchmarkTable8(b *testing.B) {
	m := sharedModels(b)
	var last netsim.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := netsim.Run(m.DNN, 1e-3, 100_000)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.TaurusF1, "taurus-f1")
	b.ReportMetric(last.BaselineF1, "baseline-f1")
	b.ReportMetric(last.TaurusDetectedPct, "taurus-det-pct")
}

// BenchmarkFigure13 runs one online-training convergence curve.
func BenchmarkFigure13(b *testing.B) {
	var final float64
	for i := 0; i < b.N; i++ {
		cfg := training.DefaultConfig(1e-3)
		cfg.Updates = 30
		pts, err := training.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		final = training.FinalF1(pts)
	}
	b.ReportMetric(final, "final-f1")
}

// BenchmarkFigure14 runs the small-batch/many-epoch configuration.
func BenchmarkFigure14(b *testing.B) {
	var final float64
	for i := 0; i < b.N; i++ {
		cfg := training.DefaultConfig(1e-2)
		cfg.BatchSize = 64
		cfg.Epochs = 10
		cfg.Updates = 20
		pts, err := training.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		final = training.FinalF1(pts)
	}
	b.ReportMetric(final, "final-f1")
}

// BenchmarkDriftControlLoop runs the full closed-control-loop drift
// experiment: two pipelines serving drifting traffic, drift detection,
// retrains and live weight pushes.
func BenchmarkDriftControlLoop(b *testing.B) {
	var frozen, loop float64
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.DriftTable(1, "dnn")
		if err != nil {
			b.Fatal(err)
		}
		last := rows[len(rows)-1]
		frozen, loop = last.FrozenF1, last.LoopF1
	}
	b.ReportMetric(frozen, "frozen-f1")
	b.ReportMetric(loop, "loop-f1")
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
// Ablations (DESIGN.md).
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

// BenchmarkAblationActivation compares the three sigmoid realisations
// (Taylor, piecewise, LUT) in area and latency.
func BenchmarkAblationActivation(b *testing.B) {
	suite, err := lower.Microbenchmarks(16)
	if err != nil {
		b.Fatal(err)
	}
	for _, name := range []string{"SigmoidExp", "SigmoidPW", "ActLUT"} {
		b.Run(name, func(b *testing.B) {
			var res *compiler.Result
			for i := 0; i < b.N; i++ {
				res, err = compiler.Compile(suite[name], compiler.Options{})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.AreaMM2(), "mm2")
			b.ReportMetric(float64(res.Stats.LatencyCycles), "latency-ns")
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

// BenchmarkHWModelFullGrid reports the final ASIC's chip-level overheads.
func BenchmarkHWModelFullGrid(b *testing.B) {
	var areaPct, powerPct float64
	for i := 0; i < b.N; i++ {
		g := hwmodel.FullGrid()
		areaPct = g.AreaOverheadPct()
		powerPct = g.PowerOverheadPct()
	}
	b.ReportMetric(areaPct, "area-overhead-pct")
	b.ReportMetric(powerPct, "power-overhead-pct")
}

// BenchmarkAccelVsTaurus reports the reaction-time gap (Table 2 vs Table 5).
func BenchmarkAccelVsTaurus(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		cpu := accel.Table2()[0]
		lat, err := cpu.LatencyMs(1)
		if err != nil {
			b.Fatal(err)
		}
		ratio = lat / accel.TaurusLatencyMs
	}
	b.ReportMetric(ratio, "speedup-x")
}
