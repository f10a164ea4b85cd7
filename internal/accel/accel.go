// Package accel models control-plane inference accelerators (Table 2): a
// vectorised CPU, a GPU and a TPU running the anomaly-detection DNN
// unbatched. The paper's point is architectural, not device-specific:
// framework/setup overhead dominates unbatched latency (§2.1.2 "This latency
// comes from accelerator setup overhead (e.g., Tensorflow)"), so even the
// fastest control-plane design is ~six orders of magnitude slower than a
// 221 ns in-switch inference.
package accel

import "fmt"

// Accelerator is a latency model: Latency(batch) = Setup + PerItem*batch,
// with PerItem shrinking as on-device parallelism grows.
type Accelerator struct {
	Name string
	// SetupMs is the fixed per-invocation overhead (framework dispatch,
	// kernel launch, device transfer setup).
	SetupMs float64
	// PerItemMs is the marginal per-sample cost once running.
	PerItemMs float64
}

// LatencyMs returns the inference latency for a batch of the given size.
func (a Accelerator) LatencyMs(batch int) (float64, error) {
	if batch <= 0 {
		return 0, fmt.Errorf("accel: batch must be positive, got %d", batch)
	}
	return a.SetupMs + a.PerItemMs*float64(batch), nil
}

// Table2 returns the three accelerators with constants calibrated to the
// paper's unbatched measurements (batch = 1): Xeon 0.67 ms, Tesla T4
// 1.15 ms, Cloud TPU v2-8 3.51 ms. The CPU has the smallest dispatch
// overhead (no device transfer), which is why it wins unbatched — exactly
// the paper's observation.
func Table2() []Accelerator {
	return []Accelerator{
		{Name: "Broadwell Xeon", SetupMs: 0.655, PerItemMs: 0.015},
		{Name: "Tesla T4 GPU", SetupMs: 1.148, PerItemMs: 0.002},
		{Name: "Cloud TPU v2-8", SetupMs: 3.509, PerItemMs: 0.001},
	}
}

// TaurusLatencyMs is the in-switch alternative for comparison (the DNN row
// of Table 5: 221 ns).
const TaurusLatencyMs = 221e-6
