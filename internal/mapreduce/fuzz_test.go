package mapreduce_test

import (
	"slices"
	"testing"

	"taurus/internal/cgra"
	"taurus/internal/fixed"
	"taurus/internal/graphcheck"
	mr "taurus/internal/mapreduce"
	"taurus/internal/sched"
)

// fuzzReader consumes the fuzz input byte stream, yielding zero once
// exhausted so every input decodes to some graph deterministically.
type fuzzReader struct {
	data []byte
	pos  int
}

func (r *fuzzReader) byte() byte {
	if r.pos >= len(r.data) {
		return 0
	}
	b := r.data[r.pos]
	r.pos++
	return b
}

func (r *fuzzReader) int32() int32 {
	return int32(r.byte()) | int32(r.byte())<<8 | int32(r.byte())<<16 | int32(r.byte())<<24
}

// graphFromBytes decodes the input into a hand-assembled graph — widths,
// wiring, operators, multipliers and tables all attacker-chosen, bypassing
// the Builder's checks entirely. Most decodes fail Validate; the property
// under test is that every decode that passes Validate is safe downstream.
func graphFromBytes(data []byte) *mr.Graph {
	r := &fuzzReader{data: data}
	n := 1 + int(r.byte())%24
	g := &mr.Graph{Name: "fuzz"}
	for i := 0; i < n; i++ {
		node := &mr.Node{
			ID:    mr.NodeID(i),
			Kind:  mr.Kind(int(r.byte()) % 10),
			Width: int(r.byte()) % 9, // 0 is invalid on purpose
		}
		nargs := int(r.byte()) % 3
		for a := 0; a < nargs; a++ {
			// Mostly-topological references, occasionally out of range.
			node.Args = append(node.Args, mr.NodeID(int(r.byte())%(i+2)-1))
		}
		switch node.Kind {
		case mr.KConst:
			for v := 0; v < int(r.byte())%9; v++ {
				node.Const = append(node.Const, r.int32())
			}
		case mr.KMap:
			node.Map = mr.MapOp(int(r.byte()) % 5)
		case mr.KUnary:
			node.Unary = mr.UnaryOp(int(r.byte()) % 4)
		case mr.KReduce:
			node.Reduce = mr.ReduceOp(int(r.byte()) % 5)
		case mr.KRequant, mr.KScale:
			node.Mult = fixed.Multiplier{M0: r.int32(), Shift: int(r.byte()) % 70}
		case mr.KLUT:
			lut := &mr.LUT{Mult: fixed.Multiplier{M0: r.int32(), Shift: int(r.byte()) % 70}}
			for t := range lut.Table {
				lut.Table[t] = int8(r.byte())
			}
			node.LUT = lut
		case mr.KSlice:
			node.Start = int(r.byte()) % 9
		case mr.KInput:
			node.Name = "in"
		}
		g.Nodes = append(g.Nodes, node)
		if node.Kind == mr.KInput {
			g.Inputs = append(g.Inputs, node.ID)
		}
	}
	for o := 0; o < 1+int(r.byte())%2; o++ {
		g.Outputs = append(g.Outputs, mr.NodeID(int(r.byte())%(n+1)))
	}
	return g
}

// fuzzSeedDNN decodes to a miniature DNN neuron: input·weights summed, plus
// a bias constant, through a ReLU — the dot+bias+activation shape the
// compiled tape's opDotAdd fusion targets.
var fuzzSeedDNN = []byte{
	6,       // 7 nodes
	0, 4, 0, // n0 input w4
	1, 4, 0, // n1 const w4 (each value is gated by its own count byte)
	8, 2, 0, 0, 0, 8, 254, 255, 255, 255, 8, 3, 0, 0, 0, 8, 1, 0, 0, 0, 4,
	2, 4, 2, 1, 2, 2, // n2 map mul (n0, n1)
	4, 1, 1, 3, 0, // n3 reduce add (n2)
	1, 1, 0, 8, 5, 0, 0, 0, 1, // n4 const bias w1
	2, 1, 2, 4, 5, 0, // n5 map add (n3, n4)
	3, 1, 1, 6, 0, // n6 relu (n5)
	0, 6, // one output: n6
}

// fuzzSeedKMeans decodes to one squared-distance chain of the KMeans
// lowering: sub, self-multiply, sum — the opSqDist fusion shape.
var fuzzSeedKMeans = []byte{
	4,       // 5 nodes
	0, 4, 0, // n0 input w4
	1, 4, 0, // n1 const centroid w4
	8, 3, 0, 0, 0, 8, 253, 255, 255, 255, 8, 0, 0, 0, 0, 8, 7, 0, 0, 0, 4,
	2, 4, 2, 1, 2, 1, // n2 map sub (n0, n1)
	2, 4, 2, 3, 3, 2, // n3 map mul (n2, n2)
	4, 1, 1, 4, 0, // n4 reduce add (n3)
	0, 4, // one output: n4
}

// fuzzSeedSVM decodes to a linear decision function: input·weights summed
// and requantised — the dot shape of the SVM lowering plus a requant stage.
var fuzzSeedSVM = []byte{
	4,       // 5 nodes
	0, 4, 0, // n0 input w4
	1, 4, 0, // n1 const weights w4
	8, 1, 0, 0, 0, 8, 255, 255, 255, 255, 8, 7, 0, 0, 0, 8, 2, 0, 0, 0, 4,
	2, 4, 2, 1, 2, 2, // n2 map mul (n0, n1)
	4, 1, 1, 3, 0, // n3 reduce add (n2)
	6, 1, 1, 4, 64, 1, 0, 0, 8, // n4 requant (n3), M0=320 shift=8
	0, 4, // one output: n4
}

// fuzzSeedLayer decodes to a two-neuron dense layer: two constant rows dotted
// with one input, gathered by a concat, through a ReLU — the shape the
// compiled tape fuses into one OpMatVec.
var fuzzSeedLayer = []byte{
	8,       // 9 nodes
	0, 4, 0, // n0 input w4
	1, 4, 0, // n1 const row w4
	8, 2, 0, 0, 0, 8, 254, 255, 255, 255, 8, 3, 0, 0, 0, 8, 1, 0, 0, 0, 4,
	2, 4, 2, 2, 1, 2, // n2 map mul (n1, n0)
	4, 1, 1, 3, 0, // n3 reduce add (n2)
	1, 4, 0, // n4 const row w4
	8, 5, 0, 0, 0, 8, 1, 0, 0, 0, 8, 255, 255, 255, 255, 8, 2, 0, 0, 0, 4,
	2, 4, 2, 5, 1, 2, // n5 map mul (n4, n0)
	4, 1, 1, 6, 0, // n6 reduce add (n5)
	5, 2, 2, 4, 7, // n7 concat (n3, n6)
	3, 2, 1, 8, 0, // n8 relu (n7)
	0, 8, // one output: n8
}

// fuzzSeedSharedAct is fuzzSeedLayer with a requant behind the ReLU and the
// ReLU declared an output beside it: the activation has two readers, so it
// rides on the matvec and the requant must stay an instruction of its own.
var fuzzSeedSharedAct = append(append([]byte{9}, // 10 nodes
	fuzzSeedLayer[1:len(fuzzSeedLayer)-2]...), // n0..n8 as above
	6, 2, 1, 9, 64, 1, 0, 0, 8, // n9 requant (n8), M0=320 shift=8
	1, 8, 9, // two outputs: n8, n9
)

// fuzzSeedDeadDot decodes to a dot product no declared output reads, beside a
// ReLU one does. Flipped to a squared distance the dead lane saturates
// ((x−3145776)² leaves int32) where the dot cannot — the one shape an interval
// analysis of the tape would refuse and the equivalence analysis certifies,
// rightly: no output can tell (TestTapeMutationSeeds pins it).
var fuzzSeedDeadDot = []byte{
	4,       // 5 nodes
	0, 4, 0, // n0 input w4
	1, 4, 0, // n1 const w4: 12336, -53200, 48, 3145776
	8, 48, 48, 0, 0, 8, 48, 48, 255, 255, 8, 48, 0, 0, 0, 8, 48, 0, 48, 0, 4,
	2, 4, 2, 1, 2, 2, // n2 map mul (n0, n1)
	4, 1, 1, 3, 0, // n3 reduce add (n2): dead
	3, 4, 1, 1, 0, // n4 relu (n0)
	0, 4, // one output: n4
}

// fuzzSeeds are the model-shaped corpus seeds, by name.
var fuzzSeeds = map[string][]byte{
	"dnn": fuzzSeedDNN, "kmeans": fuzzSeedKMeans, "svm": fuzzSeedSVM,
	"layer": fuzzSeedLayer, "shared-act": fuzzSeedSharedAct,
	"dead-dot": fuzzSeedDeadDot,
}

// fuzzInputs derives deterministic, magnitude-diverse input vectors from the
// fuzz data so the differential check exercises saturation paths, not just
// zeros. salt varies the vectors per batch slot.
func fuzzInputs(g *mr.Graph, data []byte, salt int) [][]int32 {
	ins := make([][]int32, len(g.Inputs))
	for i, id := range g.Inputs {
		ins[i] = make([]int32, g.Node(id).Width)
		for k := range ins[i] {
			b := byte(7*i + 13*k + 31*salt)
			if len(data) > 0 {
				b ^= data[(i+k+salt)%len(data)]
			}
			ins[i][k] = int32(int8(b)) << (uint(b) % 17)
		}
	}
	return ins
}

// FuzzGraph checks the static-gate contract end to end: any graph
// Graph.Validate accepts must survive Encode, Clone, Eval on zero inputs,
// and the graphcheck verifier without panicking — Validate is the only
// shield between untrusted graph bytes and the push paths. On top of that
// it runs the compiler differential: every Validate-accepted graph must
// list-schedule on the default grid, and sched.Program.Run/RunBatch must
// reproduce Graph.Eval bit-for-bit.
func FuzzGraph(f *testing.F) {
	// Seed with a valid two-node program (input -> reduce -> output) and a
	// few structured mutations of it, so coverage starts past Validate.
	f.Add([]byte{2, 0, 3, 0, 4, 1, 1, 0, 0, 1})
	f.Add([]byte{1, 0, 1, 0, 0, 0})
	f.Add([]byte{3, 0, 2, 0, 1, 2, 2, 0, 2, 4, 1, 1, 1, 0, 2})
	f.Add([]byte{0xff, 0x00, 0x10, 0x80, 0x7f})
	// Model-family shapes (miniature dnn/svm/kmeans kernels) so the corpus
	// starts inside the fusion patterns the compiled tape special-cases.
	for _, seed := range fuzzSeeds {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		g := graphFromBytes(data)
		if g.Validate() != nil {
			return
		}
		enc := mr.Encode(g)
		if len(enc) == 0 {
			t.Fatal("Encode returned nothing for a valid graph")
		}
		clone := g.Clone()
		if err := clone.Validate(); err != nil {
			t.Fatalf("clone of a valid graph fails Validate: %v", err)
		}
		if string(mr.Encode(clone)) != string(enc) {
			t.Fatal("clone encodes differently from the original")
		}
		ins := make([][]int32, len(g.Inputs))
		for i, id := range g.Inputs {
			ins[i] = make([]int32, g.Node(id).Width)
		}
		// Eval may legitimately error (an undeclared KInput is unbound) but
		// must not panic.
		_, _ = g.Eval(ins...)
		// The verifier runs on every push path; it must never panic either.
		_ = graphcheck.Verify(g)
		schedDifferential(t, g, data)
	})
}

// fuzzSlots is the number of distinct batch slots the differential fills.
const fuzzSlots = 3

// evalRefs runs the interpreter on fuzzSlots distinct input vectors,
// returning false when Eval legitimately errors (undeclared inputs).
func evalRefs(g *mr.Graph, data []byte) ([][][]int32, bool) {
	refs := make([][][]int32, fuzzSlots)
	for j := 0; j < fuzzSlots; j++ {
		outs, err := g.Eval(fuzzInputs(g, data, j)...)
		if err != nil {
			return nil, false
		}
		refs[j] = outs
	}
	return refs, true
}

// diffProgram asserts the tape reproduces the interpreter's outputs
// bit-for-bit, single-packet and across distinct batch slots.
func diffProgram(t *testing.T, g *mr.Graph, p *sched.Program, data []byte, refs [][][]int32, ctx string) {
	t.Helper()
	// Single-packet Run on slot 0's inputs.
	for i := range g.Inputs {
		copy(p.In(i), fuzzInputs(g, data, 0)[i])
	}
	p.Run()
	for oi := range g.Outputs {
		for k, want := range refs[0][oi] {
			if got := p.Out(oi)[k]; got != want {
				t.Fatalf("%sRun: output %d lane %d = %d, interpreter says %d", ctx, oi, k, got, want)
			}
		}
	}
	// Batched RunBatch with a different vector per slot.
	for j := 0; j < fuzzSlots; j++ {
		jin := fuzzInputs(g, data, j)
		for i := range g.Inputs {
			copy(p.InAt(i, j), jin[i])
		}
	}
	p.RunBatch(fuzzSlots)
	for j := 0; j < fuzzSlots; j++ {
		for oi := range g.Outputs {
			for k, want := range refs[j][oi] {
				if got := p.OutAt(oi, j)[k]; got != want {
					t.Fatalf("%sRunBatch slot %d: output %d lane %d = %d, interpreter says %d", ctx, j, oi, k, got, want)
				}
			}
		}
	}
}

// schedDifferential asserts the compiled tape agrees with the interpreter.
// Graphs whose Eval legitimately errors (undeclared inputs) are skipped;
// everything else must compile — through the tape gate Compile closes with —
// and match bit-for-bit.
func schedDifferential(t *testing.T, g *mr.Graph, data []byte) {
	refs, ok := evalRefs(g, data)
	if !ok {
		return
	}
	p, err := sched.Compile(g, cgra.DefaultGrid())
	if err != nil {
		t.Fatalf("sched.Compile rejects a Validate-accepted graph: %v", err)
	}
	// Compile's gate already ran; pin the stronger invariant behind it: a
	// faithful compile carries no findings at all, whatever the graph's own
	// ranges (saturation a tape inherits is graphcheck's to name).
	for _, fd := range sched.Verify(p).Findings {
		t.Fatalf("tapecheck %s finding on a faithfully compiled graph: %s", fd.Check, fd)
	}
	diffProgram(t, g, p, data, refs, "")
}

// mutationKinds is the number of corruption classes mutateTape knows.
const mutationKinds = 14

// mutateTape applies one hand-corruption class to instruction k of the tape:
// swapped operands, shifted destination or source slots (a constant source
// moves within the weight image, into a neighbouring node's lanes or past the
// last), a flipped opcode, a narrowed lane width, a skewed bias/weight window,
// on a matvec two rows exchanged, a row duplicated over its neighbour, or one
// row or bias window moved a lane, a multiplier/table index naming the next
// payload of the image (or none), two weight-owning nodes laid out over
// the same image slot, or on a matvec half of the epilogue dropped, its
// activation flipped (or invented), its multiplier index moved to a
// neighbour's, or its row sums read from one row along: the miscompilation
// shapes tapecheck's analyses exist to catch. Returns false when the tape has
// nothing to mutate.
func mutateTape(p *sched.Program, kind, k int) bool {
	code := p.Code()
	if len(code) == 0 {
		return false
	}
	ins := &code[k%len(code)]
	// Which row operand a matvec class touches also comes from k.
	row := 0
	if len(ins.Rows) > 0 {
		row = k / len(code) % len(ins.Rows)
	}
	switch kind % mutationKinds {
	case 0: // swapped operands (neutral only for commutative ops)
		ins.A, ins.B = ins.B, ins.A
	case 1: // off-by-one destination slot
		ins.Dst++
	case 2: // off-by-one source slot
		ins.A.Off++
	case 3: // flipped opcode
		switch ins.Op {
		case sched.OpAdd:
			ins.Op = sched.OpSub
		case sched.OpSub:
			ins.Op = sched.OpAdd
		case sched.OpMul:
			ins.Op = sched.OpMax
		case sched.OpRelu:
			ins.Op = sched.OpNeg
		case sched.OpSum:
			ins.Op = sched.OpRedMax
		case sched.OpDot:
			ins.Op = sched.OpSqDist
		case sched.OpDotAdd:
			ins.Op = sched.OpDot // dropped bias
		default:
			ins.Dst++
		}
	case 4: // narrowed width: the last lane is never written
		if ins.W > 1 {
			ins.W--
		} else {
			ins.A.Off++
		}
	case 5: // skewed third operand (bias / second source window)
		if ins.C.W > 0 {
			ins.C.Off++
		} else {
			ins.Dst++
		}
	case 6: // matvec rows (or biases) exchanged, or one copied over the next
		if len(ins.Rows) == 0 {
			ins.DStride++
			break
		}
		if next := (row + 1) % len(ins.Rows); k%2 == 0 {
			ins.Rows[row], ins.Rows[next] = ins.Rows[next], ins.Rows[row]
		} else {
			ins.Rows[next] = ins.Rows[row]
		}
	case 7: // matvec row or bias window one lane off
		if len(ins.Rows) > 0 {
			ins.Rows[row].Off++
		} else {
			ins.DStride++
		}
	case 8: // payload index one off: the next node's multiplier or table, or none
		switch ins.Op {
		case sched.OpRequant, sched.OpScale, sched.OpLUT:
			ins.Slot++
		default:
			ins.Dst++
		}
	case 9: // the k-th weight-owning node laid out over the next one's slot
		layout := p.Tape().Layout()
		var owners []int
		for id, at := range layout {
			if at >= 0 {
				owners = append(owners, id)
			}
		}
		if len(owners) < 2 {
			ins.Dst++
			break
		}
		layout[owners[k%len(owners)]] = layout[owners[(k+1)%len(owners)]]
	case 10: // matvec epilogue dropped: the activation, or the rescale
		switch {
		case ins.Op != sched.OpMatVec || (ins.Act == sched.OpNone && ins.Quant == sched.OpNone):
			ins.Dst++
		case ins.Quant == sched.OpNone || (ins.Act != sched.OpNone && k/len(code)%2 == 0):
			ins.Act = sched.OpNone
		default:
			ins.Quant = sched.OpNone
		}
	case 11: // matvec epilogue activation flipped, or one invented
		switch {
		case ins.Op != sched.OpMatVec:
			ins.Dst++
		case ins.Act == sched.OpRelu:
			ins.Act = sched.OpNeg
		default:
			ins.Act = sched.OpRelu
		}
	case 12: // matvec epilogue multiplier index one off, either way
		if ins.Op != sched.OpMatVec || ins.Quant == sched.OpNone {
			ins.Dst++
			break
		}
		ins.Slot += 1 - 2*(k/len(code)%2)
	case 13: // matvec row sums read from a neighbouring row's index on
		if ins.Op != sched.OpMatVec {
			ins.Dst++
			break
		}
		ins.Sum += 1 - 2*(k/len(code)%2)
	}
	return true
}

// reimage rebuilds a certified mutant's weight image through its (possibly
// mutated) layout, so a layout the verifier wrongly passed shows up as wrong
// weights in the differential.
func reimage(t *testing.T, p *sched.Program, g *mr.Graph) {
	t.Helper()
	img, err := p.Tape().NewImage(g)
	if err != nil {
		t.Fatalf("image of the tape's own graph: %v", err)
	}
	p.SetImage(img)
}

// FuzzTapeMutation fuzzes the verifier's soundness: corrupt one instruction
// of a faithfully compiled tape, then demand that tapecheck either rejects
// the mutant or — when it certifies the mutation harmless (a commutative
// operand swap, a shift into an equivalent slot) — the mutant still matches
// the interpreter bit-for-bit. A lying verifier loses either way.
func FuzzTapeMutation(f *testing.F) {
	for _, seed := range fuzzSeeds {
		for kind := byte(0); kind < mutationKinds; kind++ {
			f.Add(append([]byte{kind, 0}, seed...))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		kind, k := int(data[0]), int(data[1])
		g := graphFromBytes(data[2:])
		if g.Validate() != nil {
			return
		}
		refs, ok := evalRefs(g, data)
		if !ok {
			return
		}
		p, err := sched.CompileUnverified(g, cgra.DefaultGrid())
		if err != nil {
			return
		}
		if !mutateTape(p, kind, k) {
			return
		}
		if !sched.Verify(p).OK() {
			return // caught — the expected outcome for a harmful mutation
		}
		reimage(t, p, g)
		diffProgram(t, g, p, data, refs, "certified mutant: ")
	})
}

// TestTapeMutationSeeds pins the checked-in mutation corpus: over the model
// seeds and every mutation class, each mutant must be rejected or verifiably
// neutral, and the rejections must collectively exercise the translation-
// validation analyses (equivalence, bounds) — proving the corpus actually
// reaches the finding classes it exists to cover.
func TestTapeMutationSeeds(t *testing.T) {
	classes := map[sched.Analysis]int{}
	rejected := 0
	for name, seed := range fuzzSeeds {
		g := graphFromBytes(seed)
		if err := g.Validate(); err != nil {
			t.Fatalf("%s seed invalid: %v", name, err)
		}
		refs, ok := evalRefs(g, seed)
		if !ok {
			t.Fatalf("%s seed does not evaluate", name)
		}
		code, _ := sched.CompileUnverified(g, cgra.DefaultGrid())
		// k runs past the tape length so that the matvec classes reach
		// every row and bias operand, not only the first.
		for kind := 0; kind < mutationKinds; kind++ {
			for k := 0; k < 4*len(code.Code()); k++ {
				p, err := sched.CompileUnverified(g, cgra.DefaultGrid())
				if err != nil {
					t.Fatalf("%s seed does not compile: %v", name, err)
				}
				mutateTape(p, kind, k)
				rep := sched.Verify(p)
				if rep.OK() {
					reimage(t, p, g)
					diffProgram(t, g, p, seed, refs,
						name+" certified mutant kind "+string(rune('0'+kind))+": ")
					continue
				}
				rejected++
				for _, fd := range rep.Findings {
					if fd.Severity == graphcheck.SevError {
						classes[fd.Check]++
					}
				}
			}
		}
	}
	if rejected == 0 {
		t.Fatal("no mutant was rejected: the mutation corpus is inert")
	}

	// The dead lane: a dot no declared output reads, flipped to a squared
	// distance that saturates, must be among the mutants the loop above
	// certified (and so diffed against Graph.Eval) — nothing observable changed.
	p, err := sched.CompileUnverified(graphFromBytes(fuzzSeedDeadDot), cgra.DefaultGrid())
	if err != nil {
		t.Fatal(err)
	}
	pc := slices.IndexFunc(p.Code(), func(ins sched.Instr) bool { return ins.Op == sched.OpDot })
	if pc < 0 {
		t.Fatal("dead-dot seed compiles to no dot")
	}
	mutateTape(p, 3, pc)
	if rep := sched.Verify(p); p.Code()[pc].Op != sched.OpSqDist || !rep.OK() {
		t.Fatalf("dead dot flipped to %s is not certified:\n%s", p.Code()[pc].Op, rep)
	}
	for _, want := range []sched.Analysis{sched.CheckEquiv, sched.CheckBounds} {
		if classes[want] == 0 {
			t.Errorf("mutation corpus never fired the %s analysis (fired: %v)", want, classes)
		}
	}
}

// TestFuzzSeeds pins the model-shaped corpus seeds: each must decode to a
// Validate-accepted graph (otherwise the fuzzer silently skips them and the
// corpus quietly rots) and survive the compiler differential.
func TestFuzzSeeds(t *testing.T) {
	for name, seed := range fuzzSeeds {
		g := graphFromBytes(seed)
		if err := g.Validate(); err != nil {
			t.Fatalf("%s seed decodes to an invalid graph: %v", name, err)
		}
		schedDifferential(t, g, seed)
	}
	// The layer seeds are in the corpus for the tapes they compile to: one
	// matvec carrying the ReLU, and — the ReLU having a second reader — the
	// same followed by the requant it could not take.
	for _, tc := range []struct {
		seed []byte
		want []string
	}{
		{fuzzSeedLayer, []string{"matvec+relu"}},
		{fuzzSeedSharedAct, []string{"matvec+relu", "requant"}},
	} {
		p, err := sched.Compile(graphFromBytes(tc.seed), cgra.DefaultGrid())
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for i := range p.Code() {
			got = append(got, p.Code()[i].Mnemonic())
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("layer seed compiles to %v, want %v", got, tc.want)
		}
	}
}
