package main

import (
	"math"
	"path/filepath"
	"testing"
)

// The smoke test runs every workload, untraced and traced, twice on one seed
// at a fraction of a second each, and asserts only facts that do not depend
// on how fast the host is.

const smokeSeconds = 0.2

func checkRun(t *testing.T, defs []metricDef, res *result) {
	t.Helper()
	if res.tally.failed != 0 || res.tally.attempted == 0 {
		t.Errorf("%d of %d operations failed: %v", res.tally.failed, res.tally.attempted, res.tally.notes)
	}
	seen := map[string]bool{}
	for _, d := range defs {
		if seen[d.name] {
			t.Errorf("metric %s is declared twice", d.name)
		}
		seen[d.name] = true
		if d.unit == "" {
			t.Errorf("metric %s has no unit", d.name)
		}
		s, ok := res.metrics[d.name]
		if !ok || math.IsNaN(s.value) || math.IsInf(s.value, 0) {
			t.Errorf("metric %s was not measured: %+v", d.name, s)
		}
	}
	if len(res.metrics) != len(defs) {
		t.Errorf("run reported %d metrics, %d are declared", len(res.metrics), len(defs))
	}
}

func checkExact(t *testing.T, defs []metricDef, a, b *result) {
	t.Helper()
	for _, d := range defs {
		if d.exact && a.metrics[d.name].value != b.metrics[d.name].value {
			t.Errorf("exact metric %s moved between two runs of one seed: %v then %v",
				d.name, a.metrics[d.name].value, b.metrics[d.name].value)
		}
	}
}

func TestSmoke(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			var untraced, traced [2]*result
			for r := range untraced {
				var err error
				if untraced[r], err = runEndToEnd(w, 7, smokeSeconds, 1); err != nil {
					t.Fatal(err)
				}
				checkRun(t, endToEnd, untraced[r])
				for _, d := range endToEnd {
					if untraced[r].metrics[d.name].value == 0 {
						t.Errorf("end-to-end metric %s read 0", d.name)
					}
				}
			}
			checkExact(t, endToEnd, untraced[0], untraced[1])

			path := filepath.Join(t.TempDir(), "spans.json")
			for r := range traced {
				var err error
				if traced[r], err = runTraced(w, 7, smokeSeconds, path); err != nil {
					t.Fatal(err)
				}
				checkRun(t, perLayer, traced[r])
			}
			checkExact(t, perLayer, traced[0], traced[1])

			// Only a workload with malformed frames may allocate on the
			// packet path: each parse error is an error value.
			allocs := traced[1].metrics["allocs_per_kpkt"].value
			if w.mix[clsTrunc] == 0 && allocs > 0.5 {
				t.Errorf("timed trials allocate: %.3f allocations per 1000 packets", allocs)
			}

			// The per-layer numbers are a function of the span file alone.
			file, err := readSpanFile(path)
			if err != nil {
				t.Fatal(err)
			}
			recomputed := layerMetrics(file)
			for name, want := range traced[1].metrics {
				got := recomputed[name]
				if got.value != want.value && !(math.IsNaN(got.value) && math.IsNaN(want.value)) {
					t.Errorf("%s: %v recomputed from the span file, %v reported", name, got.value, want.value)
				}
			}
			if file.Workload != w.name || len(file.Spans) == 0 {
				t.Errorf("span file names workload %q and holds %d spans", file.Workload, len(file.Spans))
			}
		})
	}
}
