package main

import "testing"

var className = [numClasses]string{"feat", "warm", "bypass", "unseen", "trunc"}

// mixCounts is the class histogram of the whole set.
func (ps *packetSet) mixCounts() [numClasses]int {
	var n [numClasses]int
	for _, c := range ps.class {
		n[c]++
	}
	return n
}

func generated(t *testing.T, name string, seed int64) *packetSet {
	t.Helper()
	w, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	e, err := setUp(w, seed)
	if err != nil {
		t.Fatal(err)
	}
	e.close()
	return e.ps
}

// One seed gives a byte-identical packet set and mix; two seeds differ.
func TestSeededGenerator(t *testing.T) {
	for _, w := range workloads {
		a, b, c := generated(t, w.name, 11), generated(t, w.name, 11), generated(t, w.name, 12)
		if a.hash() != b.hash() || a.mixCounts() != b.mixCounts() {
			t.Errorf("%s: seed 11 generated two different packet sets", w.name)
		}
		if a.hash() == c.hash() {
			t.Errorf("%s: seeds 11 and 12 generated the same packet set", w.name)
		}
		if len(a.ins) != setSize || len(a.warm) != warmFlows {
			t.Errorf("%s: %d packets, %d warm flows", w.name, len(a.ins), len(a.warm))
		}
	}
}

func TestMixedEdgeMix(t *testing.T) {
	got := generated(t, "mixed-edge", 11).mixCounts()
	// Per 4096-packet block: 55% bypass-class (plus the two packets rounding
	// leaves over), 15% never-seen flows, 5% truncated, 25% warm.
	want := [numClasses]int{clsWarm: 1024, clsBypass: 2254, clsUnseen: 614, clsTrunc: 204}
	for c := range want {
		if got[c] != want[c]*setBlocks {
			t.Errorf("class %s: %d packets, want %d", className[c], got[c], want[c]*setBlocks)
		}
	}
}

// dnn-small is dnn-bulk's packets cut smaller, not a different set.
func TestSmallIsBulkCutSmaller(t *testing.T) {
	if generated(t, "dnn-small", 5).hash() != generated(t, "dnn-bulk", 5).hash() {
		t.Error("dnn-small and dnn-bulk generate different packets from one seed")
	}
}
