package obs

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestTracerOrderAndSpans(t *testing.T) {
	tr := NewTracer(16)
	s1 := tr.Begin()
	s2 := tr.Begin()
	if s1 == 0 || s2 == 0 || s1 == s2 {
		t.Fatalf("span ids: %d, %d", s1, s2)
	}
	tr.Emit(s1, "retrain.start", "records=100")
	tr.Emit(0, "drift.detected", "")
	tr.Emitf(s1, "push.done", "shards=%d", 4)

	evs := tr.Events()
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3", len(evs))
	}
	for i, ev := range evs {
		if ev.Seq != int64(i+1) {
			t.Errorf("event %d has seq %d", i, ev.Seq)
		}
		if i > 0 && ev.TimeNs < evs[i-1].TimeNs {
			t.Errorf("TimeNs not monotonic: %d after %d", ev.TimeNs, evs[i-1].TimeNs)
		}
	}
	if evs[0].Span != s1 || evs[1].Span != 0 || evs[2].Span != s1 {
		t.Fatalf("spans: %d %d %d", evs[0].Span, evs[1].Span, evs[2].Span)
	}
	if evs[2].Detail != "shards=4" {
		t.Fatalf("Emitf detail = %q", evs[2].Detail)
	}
}

func TestTracerRingWrap(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		tr.Emitf(0, "tick", "i=%d", i)
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	// Oldest retained is seq 7 (events 1..6 fell off), newest is seq 10.
	for i, ev := range evs {
		if want := int64(7 + i); ev.Seq != want {
			t.Fatalf("event %d has seq %d, want %d", i, ev.Seq, want)
		}
	}
}

func TestTracerNilSafe(t *testing.T) {
	var tr *Tracer
	if tr.Begin() != 0 {
		t.Fatal("nil Begin != 0")
	}
	tr.Emit(1, "x", "y") // must not panic
	tr.Emitf(1, "x", "%d", 3)
	if tr.Events() != nil {
		t.Fatal("nil tracer retains events")
	}
	if err := tr.WriteText(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
}

func TestTracerEncoders(t *testing.T) {
	tr := NewTracer(8)
	span := tr.Begin()
	tr.Emit(span, "graphcheck.pass", "nodes=17")

	var text strings.Builder
	if err := tr.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text.String(), "graphcheck.pass nodes=17") {
		t.Fatalf("text journal: %q", text.String())
	}

	var js strings.Builder
	if err := tr.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var evs []Event
	if err := json.Unmarshal([]byte(js.String()), &evs); err != nil {
		t.Fatalf("journal JSON does not round-trip: %v", err)
	}
	if len(evs) != 1 || evs[0].Kind != "graphcheck.pass" {
		t.Fatalf("decoded events: %+v", evs)
	}
}
