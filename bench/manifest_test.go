package main

import (
	"encoding/json"
	"os"
	"testing"
)

// BENCHMARK.json and the tables in metrics.go and workload.go must say the
// same thing; the driver reads the first, the program the second.
func TestManifestMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var m struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Paths) != 1 || m.Paths[0] != "bench" || len(m.Command) != 2 || m.Command[1] != "bench/run.sh" {
		t.Errorf("command %v, paths %v", m.Command, m.Paths)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the manifest, %d in the program", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why || len(w.why) > 200 {
			t.Errorf("workload %d: manifest %+v, program %q (%d chars): %q", i, m.Workloads[i], w.name, len(w.why), w.why)
		}
	}
	compare := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in the manifest, %d in the program", len(got), kind, len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.direction() {
				t.Errorf("%s metric %d: manifest %+v, program %+v", kind, i, g, d)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != d.bound) {
				t.Errorf("%s metric %s: bound %v in the manifest, %v in the program", kind, d.name, g.Bound, d.bound)
			}
		}
	}
	compare("end-to-end", m.EndToEnd, endToEnd, true)
	compare("per-layer", m.PerLayer, perLayer, false)
}
