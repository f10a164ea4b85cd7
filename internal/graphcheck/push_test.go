package graphcheck_test

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"taurus/internal/fixed"
	"taurus/internal/graphcheck"
	mr "taurus/internal/mapreduce"
)

// pushSeeds are the installed graphs the push differential mutates: the
// 6-12-6-3-1 and 8-64-32-1 DNNs, the SVM, KMeans and the LSTM step. Each
// verifies clean, as an install requires.
func pushSeeds(tb testing.TB) []*mr.Graph {
	seeds := []*mr.Graph{
		dnnGraph(tb), untrainedDNN(tb, []int{8, 64, 32, 1}), svmGraph(tb), kmeansGraph(tb), lstmGraph(tb),
	}
	for _, g := range seeds {
		if err := graphcheck.Check(g); err != nil {
			tb.Fatalf("seed %q does not install: %v", g.Name, err)
		}
	}
	return seeds
}

// The payload classes a mutation record addresses.
const (
	classConst = iota
	classMult  // a KRequant's or KScale's multiplier
	classLUT
	numClasses
)

// mutationLen is the size of one mutation record: class, node (2 bytes),
// op, shift, value (4 bytes).
const mutationLen = 9

// mutation encodes one record for mutatePayloads.
func mutation(class int, node uint16, op, shift byte, v int32) []byte {
	rec := []byte{byte(class), byte(node), byte(node >> 8), op, shift, 0, 0, 0, 0}
	binary.LittleEndian.PutUint32(rec[5:], uint32(v))
	return rec
}

// mutatePayloads rewrites g's payloads — never its structure — as data
// directs, one mutationLen-byte record at a time: a class of payload node,
// which node of that class, an op byte that picks the field and the kind of
// value, a shift and a 32-bit value. Constants take weight-sized values,
// anything up to ±2³¹, or a negated vector; multipliers take any M0 (zero and
// negative included) and shifts from 0 to 69, or a nudge of the calibrated
// M0; tables take single entries or a filled tail.
func mutatePayloads(g *mr.Graph, data []byte) {
	var byClass [numClasses][]*mr.Node
	for _, n := range g.Nodes {
		switch n.Kind {
		case mr.KConst:
			byClass[classConst] = append(byClass[classConst], n)
		case mr.KRequant, mr.KScale:
			byClass[classMult] = append(byClass[classMult], n)
		case mr.KLUT:
			byClass[classLUT] = append(byClass[classLUT], n)
		}
	}
	for ; len(data) >= mutationLen; data = data[mutationLen:] {
		nodes := byClass[int(data[0])%numClasses]
		if len(nodes) == 0 {
			continue
		}
		n := nodes[int(binary.LittleEndian.Uint16(data[1:]))%len(nodes)]
		op, shift := data[3], int(data[4])%70
		v := int32(binary.LittleEndian.Uint32(data[5:]))
		switch n.Kind {
		case mr.KConst:
			lane := int(op>>2) % len(n.Const)
			switch op & 3 {
			case 0:
				n.Const[lane] = int32(int8(v))
			case 1:
				n.Const[lane] = v
			case 2:
				n.Const[lane] = v >> 12
			case 3:
				for i := range n.Const {
					n.Const[i] = -n.Const[i]
				}
			}
		case mr.KRequant, mr.KScale:
			n.Mult = mutateMult(n.Mult, op, shift, v)
		case mr.KLUT:
			switch op & 3 {
			case 0:
				n.LUT.Mult = mutateMult(n.LUT.Mult, op>>2, shift, v)
			case 1:
				n.LUT.Table[int(uint32(v)%mr.LUTSize)] = int8(op >> 2)
			default:
				for i := int(uint32(v) % mr.LUTSize); i < mr.LUTSize; i++ {
					n.LUT.Table[i] = int8(v >> 24)
				}
			}
		}
	}
}

// mutateMult returns m rewritten as op's low two bits say: any M0 with the
// given shift, a positive M0 with it, a nudged M0, or the shift alone.
func mutateMult(m fixed.Multiplier, op byte, shift int, v int32) fixed.Multiplier {
	switch op & 3 {
	case 0:
		return fixed.Multiplier{M0: v, Shift: shift}
	case 1:
		return fixed.Multiplier{M0: v&math.MaxInt32 | 1, Shift: shift}
	case 2:
		m.M0 += int32(int8(v))
	default:
		m.Shift = shift
	}
	return m
}

// requirePushOracle pushes g onto installed through CheckPush and fails
// unless its verdict is the oracle's on g — the same error text, so the same
// first finding — and the push gate's own Report matches the oracle's
// Validate or range findings (witnesses included) and its Ranges. VerifyWith
// is held to the oracle on g as well.
func requirePushOracle(t *testing.T, installed, g *mr.Graph, opts graphcheck.Options) {
	t.Helper()
	if err := graphcheck.Compatible(installed, g); err != nil {
		t.Fatalf("a payload mutation changed the structure: %v", err)
	}
	want := graphcheck.OracleVerifyWith(g, opts)
	verdict, wantErr := graphcheck.CheckPush(installed, g, opts), want.Err()
	if fmt.Sprint(verdict) != fmt.Sprint(wantErr) || errors.Is(verdict, graphcheck.ErrBadGraph) != (wantErr != nil) {
		t.Fatalf("%s: CheckPush = %v, the oracle's verdict %v", g.Name, verdict, wantErr)
	}
	var findings []graphcheck.Finding
	for _, f := range want.Findings {
		if f.Check == graphcheck.CheckValidate || f.Check == graphcheck.CheckRange {
			findings = append(findings, f)
		}
	}
	got := graphcheck.PushReport(g, opts)
	if got.Valid != want.Valid || !reflect.DeepEqual(got.Findings, findings) || !reflect.DeepEqual(got.Ranges, want.Ranges) {
		t.Fatalf("%s: the push gate differs from the oracle walk\ngot:  valid %v findings %v\n      ranges %v\nwant: valid %v findings %v\n      ranges %v",
			g.Name, got.Valid, got.Findings, got.Ranges, want.Valid, findings, want.Ranges)
	}
	requireOracle(t, g.Name+" (full verify)", g, opts)
}

// FuzzPushGateOracle is the push gate's differential: any payload-only
// mutation of an installed model must get, from CheckPush, the verdict of a
// full verify by the oracle walk, and from the push gate's walk the oracle's
// range findings and Ranges — under the default seed and one narrowed or
// widened by the input's last byte. Each model is seeded with a push of its
// own weights and with every kind of payload edit, clean and bad.
func FuzzPushGateOracle(f *testing.F) {
	seeds := pushSeeds(f)
	edits := [][]byte{
		nil,
		mutation(classConst, 0, 0, 0, 77), // a clean new weight
		mutation(classConst, 1, 1, 0, math.MinInt32), // a constant at -2³¹
		append(mutation(classConst, 2, 3, 0, 0), mutation(classConst, 5, 2, 0, 1<<30)...),
		mutation(classMult, 0, 0, 12, 0),      // M0 = 0
		mutation(classMult, 1, 1, 63, 1<<30),  // Shift 63
		mutation(classMult, 0, 2, 0, -3),      // a nudged M0
		mutation(classLUT, 0, 0, 0, 1<<20),    // a LUT index shift of 0
		mutation(classLUT, 0, 1<<2|1, 0, 300), // one table entry
		mutation(classLUT, 0, 2, 0, 5<<24|7),  // a filled table tail
	}
	for i := range seeds {
		for _, data := range edits {
			f.Add(uint8(i), data)
		}
	}
	f.Fuzz(func(t *testing.T, model uint8, data []byte) {
		installed := seeds[int(model)%len(seeds)]
		g := installed.Clone()
		mutatePayloads(g, data)
		requirePushOracle(t, installed, g, graphcheck.Options{})
		if len(data) > 0 {
			requirePushOracle(t, installed, g, narrowOpts(int64(1)<<(data[len(data)-1]%40)))
		}
	})
}

// TestLUTMemoIsPerCall rewrites a table in place between verifies — the same
// *LUT, new contents, as a trainer that reuses its graph pushes it — and
// requires both gates to see the new contents: the whole-table memo lives in
// the pooled workspace but must not outlive the call that filled it.
func TestLUTMemoIsPerCall(t *testing.T) {
	m, err := fixed.NewMultiplier(8) // int8 inputs span the whole table
	if err != nil {
		t.Fatal(err)
	}
	lut := &mr.LUT{Mult: m}
	b := mr.NewBuilder("lut-memo")
	b.Output(b.ApplyLUT(b.Input("x", 2), lut))
	g := mustBuild(t, b)
	installed := g.Clone()
	for _, v := range []int8{3, -7, 3} {
		for i := range lut.Table {
			lut.Table[i] = v
		}
		requireOracle(t, fmt.Sprintf("table of %d", v), g, graphcheck.Options{})
		requirePushOracle(t, installed, g, graphcheck.Options{})
		if got := graphcheck.PushReport(g, graphcheck.Options{}).Ranges[1]; got != (graphcheck.Interval{Lo: int64(v), Hi: int64(v)}) {
			t.Fatalf("table of %d: the push gate's range is %v", v, got)
		}
	}
}
