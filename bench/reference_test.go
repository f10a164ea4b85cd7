package main

import "testing"

// A wrong decision and a wrong counter must each surface as failed
// operations, or a clean run proves nothing.
func TestCheckerCountsCorruption(t *testing.T) {
	w, err := findWorkload("mixed-edge")
	if err != nil {
		t.Fatal(err)
	}
	e, err := setUp(w, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	ref := newReference(e.g, e.m.inQ, e.m.numFeatures())
	run := pipeRun(e.pl1, w.batch)

	var clean tally
	clean.check("clean", run, e.reg1, ref, e.ps, 0, setBatch)
	if clean.failed != 0 || clean.attempted != setBatch+len(laws) {
		t.Fatalf("clean check: %d of %d failed: %v", clean.failed, clean.attempted, clean.notes)
	}

	// One decision of the check batch comes back with a different score.
	victim := -1
	for i, c := range e.ps.class[:setBatch] {
		if c == clsWarm {
			victim = i
			break
		}
	}
	corrupt := func(ins []PacketIn, out []Decision) error {
		err := run(ins, out)
		if len(ins) == setBatch {
			out[victim].MLScore++
		}
		return err
	}
	var bad tally
	bad.check("corrupt decision", corrupt, e.reg1, ref, e.ps, 0, setBatch)
	if bad.failed != 1 {
		t.Errorf("one corrupted decision counted as %d failed operations: %v", bad.failed, bad.notes)
	}

	// One counter drifts: a packet counted as processed that no class
	// counter accounts for breaks both sums it appears in.
	e.reg1.Counter("taurus.device.processed").Add(1)
	var drift tally
	drift.check("corrupt counter", run, e.reg1, ref, e.ps, 0, setBatch)
	if drift.failed != 2 {
		t.Errorf("one corrupted counter counted as %d failed operations: %v", drift.failed, drift.notes)
	}
}

// Every class's rule, on the workload that has them all.
func TestReferenceRules(t *testing.T) {
	w, _ := findWorkload("mixed-edge")
	e, err := setUp(w, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	want, err := newReference(e.g, e.m.inQ, e.m.numFeatures()).expect(e.ps, 0, setBatch)
	if err != nil {
		t.Fatal(err)
	}
	scores := map[int32]bool{}
	for i, d := range want {
		switch c := e.ps.class[i]; c {
		case clsBypass, clsUnseen:
			if !d.Bypassed || d.Verdict != Forward {
				t.Fatalf("packet %d (%s): %+v", i, className[c], d)
			}
		case clsTrunc:
			if d.Bypassed || d.Verdict != Drop {
				t.Fatalf("packet %d (%s): %+v", i, className[c], d)
			}
		default:
			if d.Bypassed || d.Verdict == Drop {
				t.Fatalf("packet %d (%s): %+v", i, className[c], d)
			}
			scores[d.MLScore] = true
		}
	}
	if len(scores) < 8 {
		t.Errorf("only %d distinct model scores in a block: the check would not notice a stuck model", len(scores))
	}
}
