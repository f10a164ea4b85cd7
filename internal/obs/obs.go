// Package obs is the repo's observability substrate: a zero-alloc metrics
// core and a bounded control-plane trace journal, unifying every subsystem's
// Stats surface behind one registry.
//
// Metrics. A Registry holds named instruments — atomic Counters and Gauges,
// and fixed log-linear Histograms (the HDR shape internal/netqueue pioneered
// for latency tails) — keyed by a stable dotted name plus a small label set
// ({pipe, shard} for pipeline devices, {ctl} for controllers, …). Instrument
// handles are resolved once, at construction time; every hot-path update is
// a single atomic op on a preallocated cell, so instrumented code keeps the
// `//hotpath: zero-alloc` contract (hotpathcheck enforces it on the update
// methods themselves). Stats() methods across the tree are views over these
// instruments — the counters are no longer parallel hand-maintained state.
//
// Tracing. A Tracer is a bounded ring-buffer event journal for the control
// plane: drift detections, label pooling, retrain and distfit rounds, task
// re-issues, graphcheck/tapecheck verdicts, push fan-outs and rollbacks.
// Events carry a span id (Begin) so one retrain's lifecycle reads as a
// chain, and a monotonic timestamp so ordering is trustworthy.
//
// Exposition. Registry.Snapshot renders every instrument into a sorted,
// JSON-marshalable []Metric; WritePrometheus emits Prometheus text format
// (histograms as summaries with p50/p90/p99/p999 quantile lines);
// ParsePrometheus validates an exposition (the CI gate behind
// cmd/taurus-promcheck); Handler serves /metrics, /metrics.json, /trace and
// /trace.json over HTTP for taurus-bench's -metrics-addr.
//
// Default returns the process-wide registry (and DefaultTracer the journal)
// every subsystem lands in when none is injected — the prometheus-client
// convention — so a whole pipeline+controller deployment unifies into one
// scrape with zero plumbing. Pass an explicit Registry for isolation.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Label is one key=value dimension attached to an instrument, identifying
// the instance behind a shared metric name (the shard, the controller, the
// fleet member).
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// L is shorthand for Label{k, v}.
func L(k, v string) Label { return Label{Key: k, Value: v} }

// Kind discriminates instrument types in snapshots.
type Kind string

const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// ValidMetricName reports whether name follows the registry's naming scheme:
// lowercase dotted paths, at least two segments ("taurus.device.processed"),
// each segment [a-z0-9_]+ with a leading letter on the first. The obsnames
// lint analyzer applies the same rule to registration sites.
func ValidMetricName(name string) bool {
	segs := strings.Split(name, ".")
	if len(segs) < 2 {
		return false
	}
	for i, s := range segs {
		if s == "" {
			return false
		}
		for j := 0; j < len(s); j++ {
			c := s[j]
			switch {
			case c >= 'a' && c <= 'z':
			case c == '_':
			case c >= '0' && c <= '9':
				if i == 0 && j == 0 {
					return false
				}
			default:
				return false
			}
		}
	}
	first := segs[0][0]
	return first >= 'a' && first <= 'z'
}

// entry is one registered instrument.
type entry struct {
	name   string
	labels []Label // sorted by key
	kind   Kind

	c *Counter
	g *Gauge
	h *Histogram
}

// Registry is a concurrency-safe instrument registry. Counter, Gauge and
// Histogram are get-or-create: the first call with a (name, labels) pair
// registers the instrument, later calls return the same handle. A name is
// pinned to one instrument kind registry-wide; re-registering it as another
// kind — or with a name that fails ValidMetricName — panics, since both are
// programming errors at construction time, never data-driven.
type Registry struct {
	mu    sync.Mutex
	ents  map[string]*entry
	kinds map[string]Kind // name -> kind, enforced across label sets
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{ents: map[string]*entry{}, kinds: map[string]Kind{}}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry every subsystem registers in
// when its config carries no explicit one.
func Default() *Registry { return defaultRegistry }

// key builds the map key for (name, sorted labels).
func key(name string, labels []Label) string {
	var b strings.Builder
	b.WriteString(name)
	for _, l := range labels {
		b.WriteByte(0)
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	return b.String()
}

// sortedLabels copies and sorts labels by key (then value) so the same set
// in any order resolves to the same instrument.
func sortedLabels(labels []Label) []Label {
	out := append([]Label(nil), labels...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Key != out[j].Key {
			return out[i].Key < out[j].Key
		}
		return out[i].Value < out[j].Value
	})
	return out
}

// get resolves or creates the entry for (name, labels, kind).
func (r *Registry) get(name string, kind Kind, labels []Label) *entry {
	if !ValidMetricName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q (want lowercase dotted segments, e.g. \"taurus.device.processed\")", name))
	}
	ls := sortedLabels(labels)
	k := key(name, ls)
	r.mu.Lock()
	defer r.mu.Unlock()
	if have, ok := r.kinds[name]; ok && have != kind {
		panic(fmt.Sprintf("obs: metric %q already registered as %s, re-registered as %s", name, have, kind))
	}
	if e, ok := r.ents[k]; ok {
		return e
	}
	e := &entry{name: name, labels: ls, kind: kind}
	switch kind {
	case KindCounter:
		e.c = &Counter{}
	case KindGauge:
		e.g = &Gauge{}
	case KindHistogram:
		e.h = &Histogram{}
	}
	r.ents[k] = e
	r.kinds[name] = kind
	return e
}

// Counter returns the counter registered under (name, labels), creating it
// on first use.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	return r.get(name, KindCounter, labels).c
}

// Gauge returns the gauge registered under (name, labels), creating it on
// first use.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	return r.get(name, KindGauge, labels).g
}

// Histogram returns the histogram registered under (name, labels), creating
// it on first use.
func (r *Registry) Histogram(name string, labels ...Label) *Histogram {
	return r.get(name, KindHistogram, labels).h
}

// entries snapshots the registered instruments sorted by (name, labels).
func (r *Registry) entries() []*entry {
	r.mu.Lock()
	out := make([]*entry, 0, len(r.ents))
	for _, e := range r.ents {
		out = append(out, e)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].name != out[j].name {
			return out[i].name < out[j].name
		}
		return labelsLess(out[i].labels, out[j].labels)
	})
	return out
}

func labelsLess(a, b []Label) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i].Key != b[i].Key {
			return a[i].Key < b[i].Key
		}
		if a[i].Value != b[i].Value {
			return a[i].Value < b[i].Value
		}
	}
	return len(a) < len(b)
}
