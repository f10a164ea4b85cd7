package accel

import (
	"math"
	"testing"
)

func TestTable2Anchors(t *testing.T) {
	want := map[string]float64{
		"Broadwell Xeon": 0.67,
		"Tesla T4 GPU":   1.15,
		"Cloud TPU v2-8": 3.51,
	}
	for _, a := range Table2() {
		lat, err := a.LatencyMs(1)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(lat-want[a.Name]) > 0.01 {
			t.Errorf("%s unbatched latency = %v ms, want %v", a.Name, lat, want[a.Name])
		}
	}
}

func TestCPUWinsUnbatched(t *testing.T) {
	// §2.1.2: "a CPU is the fastest design" for unbatched inference because
	// setup overhead dominates.
	accels := Table2()
	cpu := accels[0]
	for _, a := range accels[1:] {
		cl, _ := cpu.LatencyMs(1)
		al, _ := a.LatencyMs(1)
		if cl >= al {
			t.Errorf("CPU (%v) should beat %s (%v) unbatched", cl, a.Name, al)
		}
	}
}

func TestAcceleratorsWinBatched(t *testing.T) {
	// Large batches flip the ordering: device parallelism amortises setup
	// ("larger batch sizes boost throughput").
	accels := Table2()
	cpu, tpu := accels[0], accels[2]
	// Same batch, so the lower latency is the higher throughput.
	cpuL, _ := cpu.LatencyMs(10000)
	tpuL, _ := tpu.LatencyMs(10000)
	if tpuL >= cpuL {
		t.Errorf("TPU latency (%v ms) should beat CPU (%v ms) at batch 10k", tpuL, cpuL)
	}
}

func TestTaurusOrdersOfMagnitude(t *testing.T) {
	cpu := Table2()[0]
	lat, _ := cpu.LatencyMs(1)
	if ratio := lat / TaurusLatencyMs; ratio < 1000 {
		t.Errorf("control plane should be >=3 orders slower, ratio %v", ratio)
	}
}

func TestLatencyErrors(t *testing.T) {
	a := Table2()[0]
	if _, err := a.LatencyMs(0); err == nil {
		t.Error("batch 0 should fail")
	}
	if _, err := a.LatencyMs(-1); err == nil {
		t.Error("negative batch should fail")
	}
}

func TestLatencyGrowsWithBatch(t *testing.T) {
	a := Table2()[1]
	l1, _ := a.LatencyMs(1)
	l100, _ := a.LatencyMs(100)
	if l100 <= l1 {
		t.Error("latency should grow with batch size")
	}
}
