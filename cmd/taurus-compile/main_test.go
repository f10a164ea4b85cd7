package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"taurus/internal/cgra"
	"taurus/internal/graphcheck"
	mr "taurus/internal/mapreduce"
	"taurus/internal/sched"
)

func neuron(t *testing.T, weight int32) *mr.Graph {
	t.Helper()
	b := mr.NewBuilder("neuron")
	x := b.Input("x", 4)
	b.Output(b.DotProduct(b.Const("w", []int32{weight, weight, weight, weight}), x))
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestCheckErr pins -check's exit decision, which no flag can reach in full: a
// graph that verifies but does not schedule fails, like a rejected graph and a
// mistranslated tape, and only a graph both gates accept passes.
func TestCheckErr(t *testing.T) {
	g := neuron(t, 3)
	rep := graphcheck.Verify(g)
	p, err := sched.CompileUnverified(g, cgra.DefaultGrid())
	if err != nil {
		t.Fatal(err)
	}
	if err := checkErr(rep, sched.Verify(p), nil); err != nil {
		t.Errorf("clean graph, faithful tape: %v", err)
	}
	noMU := errors.New("sched: grid has no MUs")
	if err := checkErr(rep, nil, noMU); !errors.Is(err, noMU) {
		t.Errorf("graph that verifies but does not schedule: %v, want an error wrapping the scheduler's", err)
	}
	p.Code()[0].Op = sched.OpSqDist
	if err := checkErr(rep, sched.Verify(p), nil); !errors.Is(err, sched.ErrBadTape) {
		t.Errorf("mistranslated tape: %v, want ErrBadTape", err)
	}
	if err := checkErr(graphcheck.Verify(neuron(t, 1<<30)), sched.Verify(p), nil); !errors.Is(err, graphcheck.ErrBadGraph) {
		t.Errorf("saturating graph: %v, want ErrBadGraph", err)
	}
}

// TestRunCheckOutput: one depth and one II per model — the list schedule's,
// on the line that heads its bundle listing — in text mode, and the same
// verdict from the JSON document.
func TestRunCheckOutput(t *testing.T) {
	var text, doc bytes.Buffer
	if err := runCheck(&text, neuron(t, 3), false); err != nil {
		t.Fatalf("-check: %v", err)
	}
	out := text.String()
	for _, word := range []string{"depth ", " II "} {
		if n := strings.Count(out, word); n != 1 {
			t.Errorf("%d mentions of %q, want 1:\n%s", n, word, out)
		}
	}
	if !strings.Contains(out, "\nschedule: depth ") || !strings.Contains(out, "\n  t0: ") {
		t.Errorf("no schedule listing:\n%s", out)
	}
	for _, gone := range []string{"estimate", "WARNING", "critical path"} {
		if strings.Contains(out, gone) {
			t.Errorf("output still says %q:\n%s", gone, out)
		}
	}

	if err := runCheck(&doc, neuron(t, 1<<30), true); !errors.Is(err, graphcheck.ErrBadGraph) {
		t.Fatalf("-check -json on a saturating graph: %v, want ErrBadGraph", err)
	}
	var got struct {
		Graph, Tape map[string]any
		TapeError   string `json:"tape_error"`
	}
	if err := json.Unmarshal(doc.Bytes(), &got); err != nil || got.Graph == nil || got.Tape == nil || got.TapeError != "" {
		t.Fatalf("JSON document (err %v):\n%s", err, doc.String())
	}
}
