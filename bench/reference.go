package main

import "fmt"

// The reference checker. Expected decisions come from Graph.Eval — the
// specification the tape is validated against, never the tape — on the
// quantised feature codes, plus one rule per packet class. The register file
// is modelled per warm flow (the generator guarantees no two flows share a
// slot), starting from the state the warm-up batch leaves.

// reference computes expected decisions for one graph.
type reference struct {
	g         *Graph
	inQ       Quantizer
	threshold int32
	codes     []int32
}

func newReference(g *Graph, inQ Quantizer, numFeatures int) *reference {
	return &reference{g: g, inQ: inQ, threshold: scoreThreshold(numFeatures), codes: make([]int32, numFeatures)}
}

// infer is the rule for a packet that reaches the model with the given
// register contents.
func (r *reference) infer(features []float32) (Decision, error) {
	for i, f := range features {
		r.codes[i] = int32(r.inQ.Quantize(f))
	}
	out, err := r.g.Eval(r.codes)
	if err != nil {
		return Decision{}, err
	}
	d := Decision{MLScore: out[0][0], Verdict: Forward}
	if d.MLScore-r.threshold >= 0 {
		d.Verdict = Flag
	}
	return d, nil
}

// expect returns the decisions the program must produce for ps.ins[lo:hi]
// processed in order on a pipeline that has just processed ps.warm.
func (r *reference) expect(ps *packetSet, lo, hi int) ([]Decision, error) {
	regs := make([][]float32, len(ps.warm))
	for f, in := range ps.warm {
		regs[f] = in.Features
	}
	want := make([]Decision, 0, hi-lo)
	for i := lo; i < hi; i++ {
		var d Decision
		switch ps.class[i] {
		case clsFeat, clsWarm:
			if ps.class[i] == clsFeat {
				regs[ps.flow[i]] = ps.ins[i].Features
			}
			var err error
			if d, err = r.infer(regs[ps.flow[i]]); err != nil {
				return nil, err
			}
		case clsBypass, clsUnseen:
			d = Decision{Bypassed: true, Verdict: Forward}
		case clsTrunc:
			d = Decision{Verdict: Drop}
		}
		want = append(want, d)
	}
	return want, nil
}

// mismatches counts the decisions that differ from the reference in any of
// the three fields a user of the device sees.
func mismatches(got, want []Decision) int {
	bad := 0
	for i := range want {
		g, w := got[i], want[i]
		if g.Bypassed != w.Bypassed || g.Verdict != w.Verdict || (!w.Bypassed && g.MLScore != w.MLScore) {
			bad++
		}
	}
	return bad
}

// The conservation laws every device registry must satisfy at a batch
// boundary.
var laws = []struct {
	name string
	ok   func(c map[string]int64) bool
}{
	{"processed = ml_inferences + bypassed + parse_errors", func(c map[string]int64) bool {
		return c["taurus.device.processed"] ==
			c["taurus.device.ml_inferences"]+c["taurus.device.bypassed"]+c["taurus.device.parse_errors"]
	}},
	{"forwarded + flagged + dropped = processed - parse_errors", func(c map[string]int64) bool {
		return c["taurus.device.forwarded"]+c["taurus.device.flagged"]+c["taurus.device.dropped"] ==
			c["taurus.device.processed"]-c["taurus.device.parse_errors"]
	}},
	{"tape_fallbacks = 0", func(c map[string]int64) bool { return c["taurus.device.tape_fallbacks"] == 0 }},
	{"processed > 0", func(c map[string]int64) bool { return c["taurus.device.processed"] > 0 }},
}

// brokenLaws lists the conservation laws the counters violate.
func brokenLaws(counters map[string]int64) []string {
	var broken []string
	for _, l := range laws {
		if !l.ok(counters) {
			broken = append(broken, l.name)
		}
	}
	return broken
}

// tally counts operations attempted and failed across a run. A packet whose
// decision differs from the reference, a broken conservation law, and an
// install, push or retrain that errors each count as one failed operation.
type tally struct {
	attempted, failed int
	notes             []string // first few failures, for the human reader
}

func (t *tally) add(attempted, failed int, what string) {
	t.attempted += attempted
	t.failed += failed
	if failed > 0 && len(t.notes) < 8 {
		t.notes = append(t.notes, fmt.Sprintf("%s: %d of %d failed", what, failed, attempted))
	}
}

func (t *tally) op(err error, what string) {
	if err != nil {
		t.add(1, 1, fmt.Sprintf("%s: %v", what, err))
		return
	}
	t.add(1, 0, what)
}

// batcher is the part of Pipeline and Device the checker drives.
type batcher func(ins []PacketIn, out []Decision) error

// check replays the warm-up batch, which puts the registers into the state
// the reference starts from, then ps.ins[lo:hi], compares every decision of
// the latter with the reference, and audits the counters.
func (t *tally) check(what string, run batcher, reg *Registry, ref *reference, ps *packetSet, lo, hi int) {
	want, err := ref.expect(ps, lo, hi)
	if err != nil {
		t.op(err, what+": reference")
		return
	}
	got := make([]Decision, max(len(ps.warm), len(want)))
	if err := run(ps.warm, got); err != nil {
		t.op(err, what+": warm-up batch")
		return
	}
	if err := run(ps.ins[lo:hi], got); err != nil {
		t.op(err, what+": check batch")
		return
	}
	t.add(len(want), mismatches(got, want), what+": decisions")
	t.add(len(laws), len(brokenLaws(registrySums(reg))), what+": conservation laws")
}
