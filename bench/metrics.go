package main

import (
	"math"
	"sort"
)

// metricDef describes one reported metric. The end-to-end rows here are the
// single source BENCHMARK.json is checked against (manifest_test.go).
type metricDef struct {
	name   string
	unit   string
	higher bool    // true when higher is better
	bound  float64 // end-to-end only: share of the median it may worsen by
	kind   string  // wall | cpu | modelled | count
	exact  bool    // repeats bit for bit on one seed
}

// endToEnd are the metrics a user of the traffic plane and its control path
// sees. Wall metrics are host time, model_* are modelled hardware time; the
// two are never mixed.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", bound: 0.25, kind: "wall"},
	{name: "wall_pps", unit: "pkt/s", higher: true, bound: 0.20, kind: "wall"},
	{name: "cpu_ns_per_pkt", unit: "ns", bound: 0.20, kind: "cpu"},
	{name: "install_ms", unit: "ms", bound: 0.25, kind: "wall"},
	{name: "install_alloc_kb", unit: "KB", bound: 0.02, kind: "count"},
	{name: "push_us", unit: "us", bound: 0.20, kind: "wall"},
	{name: "retrain_ms", unit: "ms", bound: 0.25, kind: "wall"},
	{name: "model_max_pps", unit: "pkt/s", higher: true, bound: 0.05, kind: "modelled", exact: true},
	{name: "model_mean_ns", unit: "ns", bound: 0.05, kind: "modelled"},
	{name: "model_drop_frac", unit: "ratio", bound: 0.15, kind: "modelled", exact: true},
	{name: "sim_pps", unit: "pkt/s", higher: true, bound: 0.25, kind: "wall"},
}

// perLayer are the metrics of single layers, from the traced run. `_x` is a
// ratio; its base is named in README.md.
var perLayer = []metricDef{
	{name: "allocs_per_kpkt", unit: "count", kind: "count"},
	{name: "model_added_ns", unit: "ns", kind: "modelled"},
	{name: "model_p99_ns", unit: "ns", kind: "modelled"},

	{name: "pisa.parse_ns", unit: "ns", kind: "wall"},
	{name: "pisa.parse_err_ns", unit: "ns", kind: "wall"},

	{name: "core.bypass_ns", unit: "ns", kind: "wall"},
	{name: "core.device_ns", unit: "ns", kind: "wall"},
	{name: "core.front_ns", unit: "ns", kind: "wall"},
	{name: "core.accumulate_ns", unit: "ns", kind: "wall"},
	{name: "core.batch1_ns", unit: "ns", kind: "wall"},
	{name: "core.device_over_tape_x", unit: "x", kind: "wall"},

	{name: "sched.sweep16_ns", unit: "ns", kind: "wall"},
	{name: "sched.sweep8_ns", unit: "ns", kind: "wall"},
	{name: "sched.sweep4_ns", unit: "ns", kind: "wall"},
	{name: "sched.sweep1_ns", unit: "ns", kind: "wall"},
	{name: "sched.compile_ms", unit: "ms", kind: "wall"},
	{name: "sched.plan_ms", unit: "ms", kind: "wall"},
	{name: "sched.tape_instrs", unit: "count", kind: "count", exact: true},
	{name: "sched.ii", unit: "count", kind: "count", exact: true},
	{name: "sched.depth", unit: "count", kind: "count", exact: true},
	{name: "sched.occupancy", unit: "ratio", higher: true, kind: "count", exact: true},

	{name: "graphcheck.verify_ms", unit: "ms", kind: "wall"},
	{name: "graphcheck.verify_allocs", unit: "count", kind: "count"},
	{name: "graphcheck.compatible_us", unit: "us", kind: "wall"},
	{name: "compiler.compile_ms", unit: "ms", kind: "wall"},
	{name: "compiler.ii", unit: "count", kind: "modelled"},
	{name: "mapreduce.eval_ns", unit: "ns", kind: "wall"},
	{name: "mapreduce.clone_us", unit: "us", kind: "wall"},

	{name: "pipeline.dispatch_ns_per_batch", unit: "ns", kind: "wall"},
	{name: "pipeline.over_device_x", unit: "x", kind: "wall"},
	{name: "pipeline.batch_wall_us_p50", unit: "us", kind: "wall"},
	{name: "pipeline.batch_wall_us_p99", unit: "us", kind: "wall"},
	{name: "pipeline.process1_ns", unit: "ns", kind: "wall"},
	{name: "pipeline.install_shards_x", unit: "x", kind: "wall"},
	{name: "pipeline.max_shard_share", unit: "ratio", kind: "count", exact: true},
	{name: "pipeline.pps_nshard", unit: "pkt/s", higher: true, kind: "wall"},
	{name: "pipeline.scaling_x", unit: "x", higher: true, kind: "wall"},
	{name: "pipeline.cpu_ns_per_pkt_nshard", unit: "ns", kind: "cpu"},

	{name: "obs.counter_add_ns", unit: "ns", kind: "wall"},
	{name: "obs.hist_record_ns", unit: "ns", kind: "wall"},
	{name: "obs.snapshot_us", unit: "us", kind: "wall"},

	{name: "netqueue.host_ns_per_pkt", unit: "ns", kind: "wall"},
	{name: "netqueue.host_ns_per_pkt_onoff", unit: "ns", kind: "wall"},
	{name: "netqueue.allocs_per_kpkt", unit: "count", kind: "count"},
	{name: "netqueue.p50_ns", unit: "ns", kind: "modelled"},
	{name: "netqueue.max_depth", unit: "count", kind: "modelled", exact: true},

	{name: "model.fit_ms", unit: "ms", kind: "wall"},
	{name: "model.lower_ms", unit: "ms", kind: "wall"},
	{name: "controlplane.observe_ns_per_pkt", unit: "ns", kind: "wall"},
	{name: "distfit.round_ms", unit: "ms", kind: "wall"},
	{name: "trafficgen.gen_ns_per_pkt", unit: "ns", kind: "wall"},

	{name: "trace.install_coverage_x", unit: "x", kind: "wall"},
	{name: "trace.overhead_pct", unit: "%", kind: "wall"},
}

func (m metricDef) direction() string {
	if m.higher {
		return "higher"
	}
	return "lower"
}

// sample is a metric's value with the distribution behind it.
type sample struct {
	value  float64
	median float64
	q1, q3 float64
	n      int
	// unresolved marks a reported-not-gated number whose quartile spread is
	// too wide to read a change from.
	unresolved bool
}

// exactly is a count or a modelled quantity: one reading, no distribution.
func exactly(v float64) sample { return sample{value: v, median: v, q1: v, q3: v, n: 1} }

// derived is a value computed from other metrics' values.
func derived(v float64, n int) sample {
	return sample{value: v, median: math.NaN(), q1: math.NaN(), q3: math.NaN(), n: n}
}

// summarize reports the median of xs.
func summarize(xs []float64) sample {
	if len(xs) == 0 {
		return derived(math.NaN(), 0)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	med := quantile(s, 0.5)
	return sample{value: med, median: med, q1: quantile(s, 0.25), q3: quantile(s, 0.75), n: len(s)}
}

// fastShare is the share of samples at or beyond the value undisturbed
// reports.
const fastShare = 0.02

// undisturbed reports the 2nd percentile of costs (the 98th of rates): what
// the code costs while nothing else holds the core. The box this round runs
// on shares each core's second hardware thread with other tenants; a
// disturbed sample is up to 1.6x slower, and the share of disturbed samples
// drifts between 20% and 80% within minutes. Measured over ten 12 s runs of
// dnn-bulk, the median of 13 ms trials moved by 22% (quartile spread) between
// runs of the same binary, the mean by 11%, the 90th percentile by 5%, the
// 98th by 3%. The median and quartiles are kept beside the value for the
// reader.
func undisturbed(xs []float64, higher bool) sample {
	s := summarize(xs)
	if s.n > 0 {
		q := fastShare
		if higher {
			q = 1 - fastShare
		}
		s.value = percentile(xs, q)
	}
	return s
}

// percentile is the q-quantile of xs (NaN when empty).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, q)
}

// quantile interpolates linearly in sorted xs.
func quantile(sorted []float64, q float64) float64 {
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// spread is the interquartile distance as a share of the median.
func (s sample) spread() float64 {
	if s.median == 0 || math.IsNaN(s.median) {
		return 0
	}
	return math.Abs(s.q3-s.q1) / math.Abs(s.median)
}
