package taurus

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"taurus/internal/core"
	"taurus/internal/obs"
	"taurus/internal/pipeline"
)

// TestObservabilityIntegration is the in-tree version of the
// examples/observe CI gate: one drift-recovery run must journal the complete
// chain — drift.detected, retrain.start, retrain.fit, the data plane's
// model.publish of the push, push.done — with monotonic timestamps from the
// retrain's start, the
// per-shard service-time histograms exposed over Prometheus must
// agree with pipeline.Stats() totals, and after a push every shard's
// model_epoch gauge reads the epoch the pipeline last published.
//
// The pipeline binds to a private registry (its device config's Obs) so the
// metric assertions are isolated from the rest of the test binary; the controller
// journals to the shared default tracer, so trace assertions only consider
// events emitted after this test's baseline sequence number.
func TestObservabilityIntegration(t *testing.T) {
	const (
		flows     = 256
		batchSize = 2048
		rounds    = 18
		shards    = 4
	)

	reg := obs.NewRegistry()

	var baseSeq int64
	if evs := Tracer().Events(); len(evs) > 0 {
		baseSeq = evs[len(evs)-1].Seq
	}

	stream, err := NewDriftingStream(DefaultDriftConfig(), 1, flows)
	if err != nil {
		t.Fatal(err)
	}
	net := NewDNN([]int{6, 12, 6, 3, 1}, ReLU, Sigmoid, rand.New(rand.NewSource(1)))
	dep, err := NewDNNDeployable(net, DNNDeployableConfig{Epochs: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	recs := stream.Labelled(4000)
	inQ := InputQuantizerFor(recs)
	for i := 0; i < 3; i++ {
		if err := dep.Fit(recs); err != nil {
			t.Fatal(err)
		}
	}
	program, err := dep.Lower(inQ)
	if err != nil {
		t.Fatal(err)
	}

	dev := core.DefaultConfig(6)
	dev.Obs = reg
	pl, err := pipeline.New(pipeline.Config{Shards: shards, Device: dev})
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Close()
	if err := pl.LoadModel(program, inQ, CompileOptions{}); err != nil {
		t.Fatal(err)
	}

	ctrl, err := NewController(pl, dep, stream.Labelled, WithRetrainRecords(3000))
	if err != nil {
		t.Fatal(err)
	}

	out := make([]Decision, batchSize)
	for r := 0; r < rounds; r++ {
		phase := float64(r-rounds/3+1) / float64(rounds/3)
		stream.SetPhase(phase)
		ins, _, _ := stream.NextBatch(batchSize)
		if _, err := pl.ProcessBatch(ins, out); err != nil {
			t.Fatal(err)
		}
		if ctrl.Observe(out) {
			if err := ctrl.RetrainNow(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if st := ctrl.Stats(); st.Retrains == 0 {
		t.Fatal("drift never triggered a retrain; the workload calibration has regressed")
	}

	// One more batch, so that every shard has served from the last push.
	ins, _, _ := stream.NextBatch(batchSize)
	if _, err := pl.ProcessBatch(ins, out); err != nil {
		t.Fatal(err)
	}

	auditRecoveryChain(t, baseSeq)
	auditRegistryAgreement(t, reg, pl, shards)
	auditModelEpoch(t, reg, baseSeq, 1+ctrl.Stats().Retrains, shards)
}

// auditModelEpoch asserts which model serves is answerable from obs alone:
// the install and every retrain's push were journalled as model.publish with
// consecutive epochs, and every shard's taurus.device.model_epoch gauge reads
// the last one.
func auditModelEpoch(t *testing.T, reg *MetricsRegistry, baseSeq int64, published, shards int) {
	t.Helper()
	n := 0
	for _, ev := range Tracer().Events() {
		if ev.Seq <= baseSeq || ev.Kind != "model.publish" {
			continue
		}
		n++
		kind := "push"
		if n == 1 {
			kind = "install"
		}
		if want := fmt.Sprintf("epoch=%d kind=%s ", n, kind); !strings.HasPrefix(ev.Detail, want) {
			t.Errorf("model.publish #%d journalled %q, want it to start %q", n, ev.Detail, want)
		}
	}
	if n != published {
		t.Errorf("trace holds %d model.publish events, want %d (one install, one per retrain)", n, published)
	}
	gauges := 0
	for _, m := range reg.Snapshot() {
		if m.Name != "taurus.device.model_epoch" {
			continue
		}
		gauges++
		if m.Value != int64(published) {
			t.Errorf("model_epoch%v = %d, the pipeline last published epoch %d", m.Labels, m.Value, published)
		}
	}
	if gauges != shards {
		t.Errorf("registry holds %d model_epoch gauges, want one per shard (%d)", gauges, shards)
	}
}

// auditRecoveryChain asserts the default trace journal holds the full
// drift-recovery chain, in order, within one retrain span (the data plane's
// model.publish at span 0), at non-decreasing monotonic timestamps —
// considering only events this test emitted.
func auditRecoveryChain(t *testing.T, baseSeq int64) {
	t.Helper()
	chain := []string{"drift.detected", "retrain.start", "retrain.fit", "model.publish", "push.done"}
	next, span := 0, int64(0)
	var lastNs int64
	for _, ev := range Tracer().Events() {
		if ev.Seq <= baseSeq || next >= len(chain) {
			continue
		}
		if ev.Kind != chain[next] {
			continue
		}
		switch chain[next] {
		case "drift.detected":
			// Unspanned: it precedes the retrain span.
		case "retrain.start":
			span = ev.Span
		case "model.publish":
			// The data plane journals the push it serves at span 0.
			if ev.Span != 0 || !strings.Contains(ev.Detail, "kind=push") {
				continue
			}
		default:
			if ev.Span != span {
				continue // another retrain's span
			}
		}
		if span != 0 {
			if ev.TimeNs < lastNs {
				t.Fatalf("trace: %s at %dns precedes the previous span event at %dns", ev.Kind, ev.TimeNs, lastNs)
			}
			lastNs = ev.TimeNs
		}
		next++
	}
	if next < len(chain) {
		t.Fatalf("trace: recovery chain incomplete: missing %q", chain[next])
	}
	if span == 0 {
		t.Fatal("trace: retrain.start carried span 0; the retrain lifecycle was not spanned")
	}
}

// auditRegistryAgreement asserts the registry the pipeline was bound to is a
// faithful view of pipeline.Stats(): per-shard taurus.device.processed
// counters sum to Processed, the per-shard service-time histograms cover
// exactly the ML + bypass packets with a Sum matching ModelBusyNs, and the
// Prometheus exposition of that snapshot parses and carries every shard's
// quantile series.
func auditRegistryAgreement(t *testing.T, reg *MetricsRegistry, pl *Pipeline, shards int) {
	t.Helper()
	pst := pl.Stats()
	snap := reg.Snapshot()

	var procSum, svcCount int64
	var svcSum float64
	svcShards := 0
	for _, m := range snap {
		switch m.Name {
		case "taurus.device.processed":
			procSum += m.Value
		case "taurus.device.service_ns":
			svcShards++
			svcCount += m.Count
			svcSum += m.Sum
			if m.Count > 0 && (m.P50 <= 0 || m.P99 < m.P50) {
				t.Errorf("service_ns%v: implausible quantiles p50=%g p99=%g", m.Labels, m.P50, m.P99)
			}
		}
	}
	if svcShards != shards {
		t.Fatalf("registry holds %d service_ns histograms, want one per shard (%d)", svcShards, shards)
	}
	if procSum != int64(pst.Processed) {
		t.Errorf("registry processed sum = %d, pipeline.Stats().Processed = %d", procSum, pst.Processed)
	}
	if want := int64(pst.MLInferences + pst.Bypassed); svcCount != want {
		t.Errorf("service_ns count sum = %d, want MLInferences+Bypassed = %d", svcCount, want)
	}
	// Every sample is an exact small integer (the scheduled II, or one
	// bypass cycle), so the float sum is exact and must equal the busy-time
	// counter view.
	if svcSum != pst.ModelBusyNs {
		t.Errorf("service_ns sum = %g, pipeline.Stats().ModelBusyNs = %g", svcSum, pst.ModelBusyNs)
	}

	var buf bytes.Buffer
	if err := obs.WritePrometheus(&buf, snap); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	n, err := obs.ParsePrometheus(strings.NewReader(text))
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	if n == 0 {
		t.Fatal("exposition holds no samples")
	}
	for shard := 0; shard < shards; shard++ {
		needle := `shard="` + string(rune('0'+shard)) + `"`
		found := false
		for _, line := range strings.Split(text, "\n") {
			if strings.HasPrefix(line, "taurus_device_service_ns{") &&
				strings.Contains(line, needle) && strings.Contains(line, `quantile="0.99"`) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("exposition missing p99 series for shard %d", shard)
		}
	}
}
