package sched_test

import (
	"reflect"
	"sync"
	"testing"

	"taurus/internal/sched"
)

// poolCases are programs of different sizes, clean and rejected, for the
// tests of Verify's pooled workspace.
func poolCases(t *testing.T) map[string]*sched.Program {
	cases := map[string]*sched.Program{"zoo": compile(t, zooGraph(t)), "big-dnn": compile(t, bigDNNGraph(t))}
	for name, g := range modelGraphs(t) {
		cases[name] = compile(t, g)
	}
	flipped := compile(t, zooGraph(t))
	flipped.Code()[findPC(t, flipped, sched.OpAdd)].Op = sched.OpSub
	cases["zoo-flipped"] = flipped
	return cases
}

// TestVerifyConcurrent runs Verify from 8 goroutines over programs of
// different sizes, each in its own order, and requires every Report to equal
// a serial run's: pooled workspaces must never be shared in flight.
func TestVerifyConcurrent(t *testing.T) {
	cases := poolCases(t)
	var names []string
	want := map[string]*sched.Report{}
	for name, p := range cases {
		names = append(names, name)
		want[name] = sched.Verify(p)
	}
	if want["zoo-flipped"].OK() {
		t.Fatal("the flipped zoo verifies clean: no findings to compare")
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 4; round++ {
				for k := range names {
					name := names[(k*(w+1)+round)%len(names)]
					if got := sched.Verify(cases[name]); !reflect.DeepEqual(got, want[name]) {
						errs <- name
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for name := range errs {
		t.Errorf("%s: a concurrent Verify differs from the serial one", name)
	}
}

// TestReportDoesNotAlias verifies a rejected program, then a larger one, and
// requires the first Report — findings, rendered expressions and tape
// mnemonics — to be unchanged: nothing a Report holds may point into the
// pooled workspace the next Verify reuses. The pool is warmed with the large
// program first, so the small one runs in a workspace already big enough for
// it and the large one reuses it rather than growing a new one.
func TestReportDoesNotAlias(t *testing.T) {
	p1 := compile(t, zooGraph(t))
	p1.Code()[findPC(t, p1, sched.OpAdd)].Op = sched.OpSub
	p2 := compile(t, bigDNNGraph(t))
	sched.Verify(p2)
	r1 := sched.Verify(p1)
	if r1.OK() || len(r1.Findings) == 0 {
		t.Fatalf("fixture does not exercise findings:\n%s", r1)
	}
	snap := *r1
	snap.Tape = append([]string(nil), r1.Tape...)
	snap.Findings = append([]sched.Finding(nil), r1.Findings...)
	sched.Verify(p2)
	if !reflect.DeepEqual(*r1, snap) {
		t.Fatalf("a later Verify rewrote an earlier Report:\nbefore: %+v\nafter:  %+v", snap, *r1)
	}
}

// TestPooledCellsStartUndefined: an output lane no instruction computes is
// bounds()'s finding, never equiv's, also when the workspace's arena cells
// last held a larger program's expressions — equiv must not read them as
// computed.
func TestPooledCellsStartUndefined(t *testing.T) {
	sched.Verify(compile(t, bigDNNGraph(t)))
	p := compile(t, zooGraph(t))
	ins := findLayer(t, p, false)
	ins.Rows = []sched.Operand{ins.Rows[0], ins.Rows[1], ins.Rows[3], ins.Rows[4]}
	ins.W = 2
	rep := sched.Verify(p)
	if rep.OK() {
		t.Fatalf("a dropped matvec row verifies clean:\n%s", rep)
	}
	for _, f := range rep.Findings {
		if f.Check == sched.CheckEquiv {
			t.Errorf("equiv reads a lane nothing computes: %s", f)
		}
	}
}
