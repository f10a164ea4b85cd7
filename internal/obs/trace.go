package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// Event is one control-plane trace record.
type Event struct {
	// Seq is the journal-wide emission order (monotonic from 1).
	Seq int64 `json:"seq"`
	// Span groups the events of one lifecycle (a retrain cycle); 0 marks an
	// unspanned event (a drift detection, a compile-time tape verdict).
	Span int64 `json:"span,omitempty"`
	// TimeNs is the monotonic time since the tracer was built — the
	// timestamp to order and difference; it never jumps with wall-clock
	// adjustments.
	TimeNs int64 `json:"time_ns"`
	// Wall is the wall-clock emission time, for humans and cross-process
	// correlation.
	Wall time.Time `json:"wall"`
	// Kind names the event ("drift.detected", "model.publish",
	// "push.done", …) — see the catalogue in the README.
	Kind string `json:"kind"`
	// Detail carries the event's free-form context (counts, reasons).
	Detail string `json:"detail,omitempty"`
}

// DefaultTraceCap is the ring capacity NewTracer(0) and the default tracer
// use.
const DefaultTraceCap = 4096

// Tracer is a bounded ring-buffer event journal. Emission is mutex-guarded
// and intended for control-plane rate (drifts, retrains, pushes), not the
// packet path; when the ring wraps, the oldest events fall off. All methods
// are safe on a nil *Tracer (no-ops), so instrumented code never needs a
// nil check.
type Tracer struct {
	mu    sync.Mutex
	start time.Time
	seq   int64
	span  int64
	ring  []Event
	n     int64 // total events ever emitted
}

// NewTracer builds a tracer retaining the last capacity events
// (DefaultTraceCap when capacity <= 0).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCap
	}
	return &Tracer{start: time.Now(), ring: make([]Event, 0, capacity)}
}

var defaultTracer = NewTracer(0)

// DefaultTracer returns the process-wide trace journal every subsystem
// emits into when its config carries no explicit one.
func DefaultTracer() *Tracer { return defaultTracer }

// Begin allocates a fresh span id for one lifecycle's events (0 from a nil
// tracer).
func (t *Tracer) Begin() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	t.span++
	s := t.span
	t.mu.Unlock()
	return s
}

// Emit appends one event to the journal. span 0 marks an unspanned event.
func (t *Tracer) Emit(span int64, kind, detail string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.seq++
	ev := Event{
		Seq:    t.seq,
		Span:   span,
		TimeNs: time.Since(t.start).Nanoseconds(),
		Wall:   time.Now(),
		Kind:   kind,
		Detail: detail,
	}
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, ev)
	} else {
		t.ring[t.n%int64(cap(t.ring))] = ev
	}
	t.n++
	t.mu.Unlock()
}

// Emitf is Emit with a formatted detail.
func (t *Tracer) Emitf(span int64, kind, format string, args ...any) {
	if t == nil {
		return
	}
	t.Emit(span, kind, fmt.Sprintf(format, args...))
}

// Events returns the retained events in emission order.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, 0, len(t.ring))
	if t.n > int64(len(t.ring)) {
		// Wrapped: the oldest retained event sits at the write cursor.
		c := int(t.n % int64(cap(t.ring)))
		out = append(out, t.ring[c:]...)
		out = append(out, t.ring[:c]...)
	} else {
		out = append(out, t.ring...)
	}
	return out
}

// WriteText renders the journal one line per event:
//
//	12.345ms span=3 seq=41 push.done records=3000 members=1
func (t *Tracer) WriteText(w io.Writer) error {
	for _, ev := range t.Events() {
		line := fmt.Sprintf("%14.3fms span=%d seq=%d %s", float64(ev.TimeNs)/1e6, ev.Span, ev.Seq, ev.Kind)
		if ev.Detail != "" {
			line += " " + ev.Detail
		}
		if _, err := fmt.Fprintln(w, line); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSON renders the journal as an indented JSON array of Events.
func (t *Tracer) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t.Events())
}
