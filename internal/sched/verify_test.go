package sched_test

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"taurus/internal/cgra"
	"taurus/internal/fixed"
	"taurus/internal/graphcheck"
	mr "taurus/internal/mapreduce"
	"taurus/internal/ml"
	"taurus/internal/sched"
)

func compile(t testing.TB, g *mr.Graph) *sched.Program {
	t.Helper()
	p, err := sched.CompileUnverified(g, cgra.DefaultGrid())
	if err != nil {
		t.Fatalf("Compile(%s): %v", g.Name, err)
	}
	return p
}

func build(t testing.TB, name string, f func(b *mr.Builder)) *mr.Graph {
	t.Helper()
	b := mr.NewBuilder(name)
	f(b)
	g, err := b.Build()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return g
}

func mustMult(t testing.TB, f float64) fixed.Multiplier {
	t.Helper()
	m, err := fixed.NewMultiplier(f)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// zooGraph compiles to a tape exercising every instruction family the
// verifier special-cases: a materialised add (multi-consumer), a sub, a
// plain dot, a const-window dot (through a slice), a bias-folded dot+add,
// requant, scale, LUT, relu, a concat with one genuine copy, a dense
// layer (three bias-dots gathered by a concat: one matvec) whose second row
// and whose biases are windows of larger constants, and a second layer of two
// rows that carries its ReLU and requant as an epilogue.
func zooGraph(t testing.TB) *mr.Graph {
	mult := mustMult(t, 0.03)
	lut := &mr.LUT{Mult: mustMult(t, 1.0/64)}
	for i := range lut.Table {
		lut.Table[i] = int8(i % 120)
	}
	return build(t, "zoo", func(b *mr.Builder) {
		x := b.Input("x", 8)
		w := b.Const("w", []int32{0, 1, 2, 3, 4, 1, -2, 3, -4, 5, -6, 7, -8, 9, -10, 11})
		win := b.Slice(w, 4, 8)
		sum := b.Map(mr.MAdd, x, win)                      // OpAdd, four consumers
		diff := b.Map(mr.MSub, x, win)                     // OpSub
		dotSelf := b.Reduce(mr.RAdd, b.Map(mr.MMul, x, x)) // OpDot (no bias consumer)
		dotW := b.Reduce(mr.RAdd, b.Map(mr.MMul, x, win))  // OpDot with const-window B
		neuron := b.Map(mr.MAdd,
			b.Reduce(mr.RAdd, b.Map(mr.MMul, x, b.Const("nw", []int32{1, 2, 3, 4, 5, 6, 7, 8}))),
			b.Scalar("bias", 9)) // OpDotAdd
		rows := []mr.Value{
			b.Const("l0", []int32{1, -1, 2, -2, 3, -3, 4, -4}),
			b.Slice(b.Const("l1", []int32{9, 8, 7, 6, 5, 4, 3, 2, 1, 0}), 1, 8),
			b.Const("l2", []int32{5, 5, 5, 5, -5, -5, -5, -5}),
		}
		lb := b.Const("lb", []int32{10, 20, 30, 40})
		layer := make([]mr.Value, len(rows))
		for r, w := range rows {
			layer[r] = b.Map(mr.MAdd, b.DotProduct(w, x), b.Slice(lb, r, 1))
		}
		hidden := b.Concat(
			b.DotProduct(b.Const("h0", []int32{3, 1, -4, 1, -5, 9, -2, 6}), x),
			b.DotProduct(b.Const("h1", []int32{2, -7, 1, 8, -2, 8, 1, -8}), x))
		b.Output(
			b.Concat(b.Requant(sum, mult), b.Scale(sum, mult), b.ApplyLUT(sum, lut),
				b.Unary(mr.UReLU, sum), x), // trailing input forces one OpCopy
			diff, dotSelf, dotW, neuron,
			b.Concat(layer...), // OpMatVec
			b.Requant(b.Unary(mr.UReLU, hidden), mustMult(t, 0.11))) // OpMatVec with an epilogue
	})
}

func findPC(t *testing.T, p *sched.Program, op sched.Opcode) int {
	t.Helper()
	for pc := range p.Code() {
		if p.Code()[pc].Op == op {
			return pc
		}
	}
	t.Fatalf("tape has no %s instruction", op)
	return -1
}

// findLayer returns the zoo's matvec that carries an epilogue, or the one
// that does not.
func findLayer(t *testing.T, p *sched.Program, epilogue bool) *sched.Instr {
	t.Helper()
	for pc := range p.Code() {
		ins := &p.Code()[pc]
		if ins.Op == sched.OpMatVec && (ins.Act != sched.OpNone) == epilogue {
			return ins
		}
	}
	t.Fatalf("tape has no matvec with epilogue = %v", epilogue)
	return nil
}

// constID returns the id of the zoo's const node of the given name.
func constID(t *testing.T, p *sched.Program, name string) mr.NodeID {
	t.Helper()
	for _, n := range p.Graph().Nodes {
		if n.Kind == mr.KConst && n.Name == name {
			return n.ID
		}
	}
	t.Fatalf("graph has no const %q", name)
	return -1
}

// TestMutationKill hand-seeds distinct miscompilations into legitimately
// compiled tapes — fusion bugs, operand swaps, weight-addressing violations,
// arena corruption, schedule lies — and demands each is rejected with a finding
// from the right analysis, anchored to the offending instruction.
func TestMutationKill(t *testing.T) {
	cases := []struct {
		name   string
		check  sched.Analysis
		wantPC bool // finding must name an instruction (PC >= 0)
		mutate func(t *testing.T, p *sched.Program)
	}{
		{"opcode-swap-add-to-sub", sched.CheckEquiv, true, func(t *testing.T, p *sched.Program) {
			p.Code()[findPC(t, p, sched.OpAdd)].Op = sched.OpSub
		}},
		{"fusion-dropped-bias", sched.CheckEquiv, true, func(t *testing.T, p *sched.Program) {
			p.Code()[findPC(t, p, sched.OpDotAdd)].Op = sched.OpDot
		}},
		{"fusion-dot-to-sqdist", sched.CheckEquiv, true, func(t *testing.T, p *sched.Program) {
			p.Code()[findPC(t, p, sched.OpDot)].Op = sched.OpSqDist
		}},
		{"operand-swap-sub", sched.CheckEquiv, true, func(t *testing.T, p *sched.Program) {
			ins := &p.Code()[findPC(t, p, sched.OpSub)]
			ins.A, ins.B = ins.B, ins.A
		}},
		{"weight-window-off-by-one", sched.CheckEquiv, true, func(t *testing.T, p *sched.Program) {
			// dotW reads const lanes w[4:12] through the slice; shift the
			// window one lane left — still inside the const, so only the
			// symbolic check can see it.
			for pc := range p.Code() {
				ins := &p.Code()[pc]
				if ins.Op == sched.OpDot && ins.B.Const {
					ins.B.Off--
					return
				}
			}
			t.Fatal("no const-window dot on the tape")
		}},
		{"operand-stride-skew", sched.CheckBounds, true, func(t *testing.T, p *sched.Program) {
			p.Code()[findPC(t, p, sched.OpRelu)].A.Stride++
		}},
		{"arena-clobber", sched.CheckBounds, true, func(t *testing.T, p *sched.Program) {
			add := p.Code()[findPC(t, p, sched.OpAdd)]
			relu := &p.Code()[findPC(t, p, sched.OpRelu)]
			relu.Dst, relu.DStride = add.Dst, add.DStride
		}},
		{"write-into-input-window", sched.CheckBounds, true, func(t *testing.T, p *sched.Program) {
			in := p.InputOperand(0)
			relu := &p.Code()[findPC(t, p, sched.OpRelu)]
			relu.Dst, relu.DStride = in.Off, in.Stride
		}},
		{"width-truncated", sched.CheckBounds, true, func(t *testing.T, p *sched.Program) {
			p.Code()[findPC(t, p, sched.OpAdd)].W--
		}},
		{"alias-detached-weights", sched.CheckAlias, true, func(t *testing.T, p *sched.Program) {
			// A window past the image's last lane: weights no push can set.
			for pc := range p.Code() {
				ins := &p.Code()[pc]
				if ins.Op == sched.OpDot && ins.B.Const {
					ins.B.Off = len(p.Image().Lanes())
					return
				}
			}
			t.Fatal("no const-window dot on the tape")
		}},
		{"alias-detached-multiplier", sched.CheckEquiv, true, func(t *testing.T, p *sched.Program) {
			// The requant reads the scale node's multiplier: an index the
			// image holds, and another node's slot.
			p.Code()[findPC(t, p, sched.OpRequant)].Slot = p.Code()[findPC(t, p, sched.OpScale)].Slot
		}},
		{"alias-detached-lut", sched.CheckAlias, true, func(t *testing.T, p *sched.Program) {
			// A table index naming none of the image's tables.
			p.Code()[findPC(t, p, sched.OpLUT)].Slot = sched.Verify(p).LUTs
		}},
		// The dense layer: rows 0..2 then biases 0..2 in Rows.
		{"matvec-rows-swapped", sched.CheckEquiv, true, func(t *testing.T, p *sched.Program) {
			rows := findLayer(t, p, false).Rows
			rows[0], rows[2] = rows[2], rows[0]
		}},
		{"matvec-row-dropped", sched.CheckBounds, false, func(t *testing.T, p *sched.Program) {
			// Row 2 and its bias removed: the layer's last lane is never computed.
			ins := findLayer(t, p, false)
			ins.Rows = []sched.Operand{ins.Rows[0], ins.Rows[1], ins.Rows[3], ins.Rows[4]}
			ins.W = 2
		}},
		{"matvec-row-duplicated", sched.CheckEquiv, true, func(t *testing.T, p *sched.Program) {
			rows := findLayer(t, p, false).Rows
			rows[2] = rows[0]
		}},
		{"matvec-row-one-lane-off", sched.CheckEquiv, true, func(t *testing.T, p *sched.Program) {
			// Row 1 is l1[1:9]; l1[2:10] is still inside the constant, so
			// only the symbolic check can see it.
			findLayer(t, p, false).Rows[1].Off++
		}},
		{"matvec-bias-skewed", sched.CheckEquiv, true, func(t *testing.T, p *sched.Program) {
			// Bias 0 reads its neighbour's scalar, lb[1].
			findLayer(t, p, false).Rows[3].Off++
		}},
		{"matvec-wrong-dstride", sched.CheckBounds, true, func(t *testing.T, p *sched.Program) {
			findLayer(t, p, false).DStride--
		}},
		{"matvec-wrong-dst", sched.CheckBounds, true, func(t *testing.T, p *sched.Program) {
			findLayer(t, p, false).Dst--
		}},
		{"matvec-input-narrowed-to-broadcast", sched.CheckBounds, true, func(t *testing.T, p *sched.Program) {
			findLayer(t, p, false).A.W = 1
		}},
		{"matvec-row-aliases-other-const", sched.CheckEquiv, true, func(t *testing.T, p *sched.Program) {
			// nw is another 8-lane constant: in range, pushed like any other,
			// and the wrong weights.
			ins := findLayer(t, p, false)
			ins.Rows[0].Off = p.Code()[findPC(t, p, sched.OpDotAdd)].B.Off
		}},
		{"matvec-row-detached", sched.CheckAlias, true, func(t *testing.T, p *sched.Program) {
			// Two const nodes laid out over the same lanes: an image build
			// writes l2's weights over l0's, and row 2 reads lanes no node owns.
			layout := p.Tape().Layout()
			layout[constID(t, p, "l2")] = layout[constID(t, p, "l0")]
		}},
		// The second layer's epilogue: relu, then a requant by its own multiplier.
		{"matvec-epilogue-dropped", sched.CheckEquiv, true, func(t *testing.T, p *sched.Program) {
			findLayer(t, p, true).Quant = sched.OpNone
		}},
		{"matvec-epilogue-wrong-activation", sched.CheckEquiv, true, func(t *testing.T, p *sched.Program) {
			findLayer(t, p, true).Act = sched.OpAbs
		}},
		{"matvec-epilogue-wrong-multiplier", sched.CheckEquiv, true, func(t *testing.T, p *sched.Program) {
			// The standalone requant's multiplier: in the image, another node's.
			findLayer(t, p, true).Slot = p.Code()[findPC(t, p, sched.OpRequant)].Slot
		}},
		{"matvec-epilogue-slot-out-of-range", sched.CheckAlias, true, func(t *testing.T, p *sched.Program) {
			findLayer(t, p, true).Slot = sched.Verify(p).Mults
		}},
		{"matvec-epilogue-bad-opcode", sched.CheckBounds, true, func(t *testing.T, p *sched.Program) {
			findLayer(t, p, true).Act = sched.OpRequant
		}},
		// Row sums: the image's, at the index the instruction names.
		{"matvec-sum-index-out-of-range", sched.CheckBounds, true, func(t *testing.T, p *sched.Program) {
			findLayer(t, p, true).Sum = sched.Verify(p).Sums - 1
		}},
		{"matvec-sum-understated", sched.CheckSums, true, func(t *testing.T, p *sched.Program) {
			// One less than the weights add up to: a guard that passes a
			// product it should not.
			p.Image().Sums()[findLayer(t, p, false).Sum+1]--
		}},
		{"matvec-sum-of-other-row", sched.CheckSums, true, func(t *testing.T, p *sched.Program) {
			// In range, and every row reads its neighbour's sum — or the
			// other layer's.
			for pc := range p.Code() {
				if ins := &p.Code()[pc]; ins.Op == sched.OpMatVec && ins.Sum == 0 {
					ins.Sum++
					return
				}
			}
			t.Fatal("no matvec owns row sum 0")
		}},
		{"schedule-claims-low-ii", sched.CheckPlan, false, func(t *testing.T, p *sched.Program) {
			p.Schedule().II = 0
		}},
		{"schedule-claims-low-depth", sched.CheckPlan, false, func(t *testing.T, p *sched.Program) {
			p.Schedule().Depth = 0
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := compile(t, zooGraph(t))
			if rep := sched.Verify(p); !rep.OK() {
				t.Fatalf("zoo tape dirty before mutation:\n%s", rep)
			}
			tc.mutate(t, p)
			rep := sched.Verify(p)
			if rep.OK() {
				t.Fatalf("mutation not rejected; report:\n%s", rep)
			}
			for _, f := range rep.Findings {
				if f.Severity != graphcheck.SevError || f.Check != tc.check {
					continue
				}
				if tc.wantPC && f.PC < 0 {
					continue
				}
				t.Logf("killed by: %s", f)
				return
			}
			t.Fatalf("no %s error finding (wantPC=%v); report:\n%s", tc.check, tc.wantPC, rep)
		})
	}
}

// TestFlippedOpIsEquivFinding: a min against a huge constant is harmless, the
// same operands multiplied saturate. The tape has no interval analysis to say
// so and needs none: the flipped opcode is a mistranslation, named by the
// equivalence analysis at the instruction that was flipped.
func TestFlippedOpIsEquivFinding(t *testing.T) {
	g := build(t, "minbig", func(b *mr.Builder) {
		x := b.Input("x", 4)
		c := b.Const("c", []int32{1 << 30, 1 << 30, 1 << 30, 1 << 30})
		b.Output(b.Map(mr.MMin, x, c))
	})
	p := compile(t, g)
	if rep := sched.Verify(p); !rep.OK() {
		t.Fatalf("dirty before mutation:\n%s", rep)
	}
	pc := findPC(t, p, sched.OpMin)
	p.Code()[pc].Op = sched.OpMul
	rep := sched.Verify(p)
	for _, f := range rep.Findings {
		if f.Check == sched.CheckEquiv && f.Severity == graphcheck.SevError && f.PC == pc {
			return
		}
	}
	t.Fatalf("no equiv error finding at pc %d:\n%s", pc, rep)
}

// TestWarningDoesNotReject: warning-severity findings (here a cost-model
// bookkeeping mismatch in the schedule) are reported but do not reject.
func TestWarningDoesNotReject(t *testing.T) {
	p := compile(t, zooGraph(t))
	p.Schedule().CUIssues++
	rep := sched.Verify(p)
	if !rep.OK() {
		t.Fatalf("warning rejected the tape:\n%s", rep)
	}
	found := false
	for _, f := range rep.Findings {
		if f.Severity == graphcheck.SevWarning && f.Check == sched.CheckPlan {
			found = true
		}
	}
	if !found {
		t.Fatalf("no warning finding:\n%s", rep)
	}
	if err := rep.Err(); err != nil {
		t.Fatalf("Err() on a warning-only report: %v", err)
	}
}

// TestNilAndForeignPrograms: the verifier degrades to findings, never
// panics, on degenerate programs.
func TestNilAndForeignPrograms(t *testing.T) {
	if rep := sched.Verify(nil); rep.OK() {
		t.Fatal("nil program accepted")
	} else if !errors.Is(rep.Err(), sched.ErrBadTape) {
		t.Fatalf("Err() does not wrap ErrBadTape: %v", rep.Err())
	}
}

// TestInheritedSaturationDoesNotGate: a graph that can saturate on its own
// still compiles, finding-free — the tape is a faithful translation, and
// refusing it would make Compile refuse Validate-accepted graphs Graph.Eval
// happily runs. Naming the saturation is graphcheck's business, on the push
// path, and it does. With TestModelFamiliesVerifyClean and mapreduce's
// schedDifferential this pins the install gate to the report: wherever
// sched.Compile succeeds, Verify finds no error, and the other way round.
func TestInheritedSaturationDoesNotGate(t *testing.T) {
	g := build(t, "sat", func(b *mr.Builder) {
		x := b.Input("x", 4)
		c := b.Const("c", []int32{1 << 30, -(1 << 30), 1 << 29, 1 << 28})
		b.Output(b.Reduce(mr.RAdd, b.Map(mr.MMul, x, c)))
	})
	p, err := sched.Compile(g, cgra.DefaultGrid()) // gate active, must pass
	if err != nil {
		t.Fatalf("Compile rejects inherited saturation: %v", err)
	}
	if rep := sched.Verify(p); len(rep.Findings) != 0 {
		t.Fatalf("findings on a faithful tape:\n%s", rep)
	}
	if err := graphcheck.Check(g); !errors.Is(err, graphcheck.ErrBadGraph) || !strings.Contains(err.Error(), "saturate") {
		t.Fatalf("graphcheck does not name the saturation: %v", err)
	}
}

// TestSlicedConstOutputVerifies: a declared output that is a window of a
// constant (a slice of a slice of a KConst) is const-backed on the tape, inside
// that KConst's slot of the image — a faithful translation the audit must accept,
// now that a refused tape is an install error rather than a slower engine.
func TestSlicedConstOutputVerifies(t *testing.T) {
	g := build(t, "const-window-out", func(b *mr.Builder) {
		x := b.Input("x", 4)
		w := b.Const("w", []int32{9, 8, 7, 6, 5, 4, 3, 2, 1, 0})
		win := b.Slice(w, 3, 4)
		b.Output(b.Reduce(mr.RAdd, b.Map(mr.MMul, x, win)), b.Slice(win, 1, 2))
	})
	p, err := sched.Compile(g, cgra.DefaultGrid())
	if err != nil {
		t.Fatalf("gated Compile rejects a const-window output: %v", err)
	}
	if got := p.Out(1); len(got) != 2 || got[0] != 5 || got[1] != 4 {
		t.Fatalf("output 1 = %v, want w[4:6] = [5 4]", got)
	}
}

// TestReportRendering pins the report surfaces taurus-compile prints.
func TestReportRendering(t *testing.T) {
	p := compile(t, zooGraph(t))
	p.Code()[findPC(t, p, sched.OpAdd)].Op = sched.OpSub
	rep := sched.Verify(p)
	s := rep.String()
	for _, want := range []string{"REJECTED", `"zoo"`, "[equiv]", "pc "} {
		if !strings.Contains(s, want) {
			t.Errorf("report lacks %q:\n%s", want, s)
		}
	}
	if err := rep.Err(); !errors.Is(err, sched.ErrBadTape) {
		t.Fatalf("Err() does not wrap ErrBadTape: %v", err)
	}
}

// --- model-family acceptance: every shipped lowering verifies clean, fast.

// verifyCost reports what one sched.Verify(p) allocates: heap objects
// and heap bytes, the machine-independent units the verifier's budgets are
// pinned in (its wall time is a row of the benchmark's ledger, not a test).
// It is the cheapest of ten calls after one to warm up: the cost of a call
// that finds the workspace pool stocked, which a GC — or, under -race,
// sync.Pool on purpose — may empty.
func verifyCost(p *sched.Program) (allocs, bytes uint64) {
	sched.Verify(p)
	allocs, bytes = math.MaxUint64, math.MaxUint64
	var before, after runtime.MemStats
	for range 10 {
		runtime.ReadMemStats(&before)
		sched.Verify(p)
		runtime.ReadMemStats(&after)
		allocs = min(allocs, after.Mallocs-before.Mallocs)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
	}
	return allocs, bytes
}

// TestModelFamiliesVerifyClean: dnn, svm, kmeans and lstm tapes all clear
// the validator, each within the allocation budget of the largest family
// (lstm: 729 allocations, 762 KB per verify when the budget was set).
func TestModelFamiliesVerifyClean(t *testing.T) {
	for name, g := range modelGraphs(t) {
		t.Run(name, func(t *testing.T) {
			p, err := sched.Compile(g, cgra.DefaultGrid()) // through the live gate
			if err != nil {
				t.Fatalf("Compile: %v", err)
			}
			if rep := sched.Verify(p); len(rep.Findings) != 0 {
				t.Fatalf("findings on a shipped lowering:\n%s", rep)
			}
			if allocs, bytes := verifyCost(p); allocs > 800 || bytes > 840_000 {
				t.Errorf("Verify(%d instrs) allocates %d objects / %d bytes, budget 800 / 840000",
					len(p.Code()), allocs, bytes)
			}
		})
	}
}

// bigDNNGraph is the ~1400-node 64-128-64-8 MLP from graphcheck's budget
// test — the largest DNN shape any lowering ships.
func bigDNNGraph(tb testing.TB) *mr.Graph {
	tb.Helper()
	rng := rand.New(rand.NewSource(42))
	lut, err := ml.NewQuantLUT(ml.ReLU, 1.0/4096, fixed.NewQuantizer(1))
	if err != nil {
		tb.Fatal(err)
	}
	var table mr.LUT
	table.Mult = lut.IdxMult
	copy(table.Table[:], lut.Table[:])

	b := mr.NewBuilder("big-dnn")
	layer := b.Input("x", 64)
	for li, width := range []int{128, 64, 8} {
		neurons := make([]mr.Value, width)
		for i := range neurons {
			w := make([]int8, layer.Width())
			for j := range w {
				w[j] = int8(rng.Intn(256) - 128)
			}
			wv := b.ConstInt8(fmt.Sprintf("w%d_%d", li, i), w)
			acc := b.DotProduct(wv, layer)
			acc = b.Map(mr.MAdd, acc, b.Scalar(fmt.Sprintf("b%d_%d", li, i), int32(rng.Intn(2048)-1024)))
			neurons[i] = acc
		}
		z := b.Concat(neurons...)
		layer = b.ApplyLUT(z, &table)
	}
	b.Output(layer)
	g, err := b.Build()
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// TestVerifyLargestDNNBudget pins the cost of the full pass on the ~1400-node
// DNN tape in allocations and bytes, on warm calls (29 / 28 KB when the budget
// was set; 1043 / 1.65 MB before the equivalence analysis ran in a pooled
// workspace) — a verifier that starts allocating per node, per lane or per
// batch slot fails here on any host, fast or slow.
func TestVerifyLargestDNNBudget(t *testing.T) {
	p := compile(t, bigDNNGraph(t))
	rep := sched.Verify(p) // warm-up + sanity
	if !rep.OK() {
		t.Fatalf("big DNN tape rejected:\n%s", rep)
	}
	allocs, bytes := verifyCost(p)
	t.Logf("Verify(%d instrs) allocates %d objects / %d bytes", len(p.Code()), allocs, bytes)
	if allocs > 32 || bytes > 32<<10 {
		t.Errorf("Verify(%d instrs) allocates %d objects / %d bytes, budget 32 / %d",
			len(p.Code()), allocs, bytes, 32<<10)
	}
}

func BenchmarkTapeVerify(b *testing.B) {
	p := compile(b, bigDNNGraph(b))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rep := sched.Verify(p); !rep.OK() {
			b.Fatalf("rejected:\n%s", rep)
		}
	}
}
