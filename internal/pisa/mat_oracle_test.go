package pisa

import (
	"encoding/binary"
	"reflect"
	"sort"
	"testing"
)

// The oracle is the table the masked rows replaced: entries held by pointer
// and re-sorted by priority on every insert, and a per-key switch on match
// kind. FuzzTable requires Table to report the same hit and leave the same
// PHV as the oracle on every table and PHV it tries.

type oracleTable struct {
	Keys    []Key
	Default *VLIWAction

	entries []*Entry
}

func (t *oracleTable) insert(e *Entry) {
	t.entries = append(t.entries, e)
	sort.SliceStable(t.entries, func(i, j int) bool {
		return t.entries[i].Priority > t.entries[j].Priority
	})
}

func (t *oracleTable) Lookup(phv *PHV) bool {
	var best *Entry
	for _, e := range t.entries {
		if t.matches(e, phv) {
			best = e
			break // sorted by priority
		}
	}
	if best == nil {
		if t.Default != nil {
			oracleApply(t.Default, phv)
		}
		return false
	}
	if best.Action != nil {
		oracleApply(best.Action, phv)
	}
	return true
}

func (t *oracleTable) matches(e *Entry, phv *PHV) bool {
	for i, k := range t.Keys {
		v := phv.Get(k.Field)
		switch k.Kind {
		case Exact:
			if v != e.Values[i] {
				return false
			}
		case Ternary:
			if v&e.Masks[i] != e.Values[i]&e.Masks[i] {
				return false
			}
		}
	}
	return true
}

func oracleApply(a *VLIWAction, phv *PHV) {
	for _, op := range a.Ops {
		phv.Set(op.Dst, op.Imm)
	}
}

// fuzzFields is the PHV width FuzzTable's tables key on and act on.
const fuzzFields = 4

// tableSpec is one FuzzTable case: a table, its entries and the PHVs looked
// up in it. encode and decodeTableSpec map it to and from fuzz bytes; decode
// reads zeros past the end, so every byte string is a case.
type tableSpec struct {
	keys    []Key
	dflt    *VLIWAction
	entries []*Entry
	phvs    [][fuzzFields]int32
}

type byteReader struct{ b []byte }

func (r *byteReader) u8() byte {
	if len(r.b) == 0 {
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

func (r *byteReader) i32() int32 {
	var w [4]byte
	for i := range w {
		w[i] = r.u8()
	}
	return int32(binary.BigEndian.Uint32(w[:]))
}

func (r *byteReader) action() *VLIWAction {
	n := int(r.u8() % 4)
	if n == 0 {
		return nil
	}
	a := &VLIWAction{Ops: make([]ActionOp, n)}
	for i := range a.Ops {
		a.Ops[i] = ActionOp{Dst: FieldID(r.u8() % fuzzFields), Imm: r.i32()}
	}
	return a
}

// decodeTableSpec: keys (1–3, each kind and field), an optional default,
// 0–8 entries (priority 0–15 so ties are common, values and masks per key,
// masks present or not, an action or nil), then PHVs until
// the bytes run out. A PHV's key fields may copy an entry's value with a few
// low bits flipped, so lookups hit, miss by a little and tie.
func decodeTableSpec(data []byte) tableSpec {
	r := &byteReader{b: data}
	var s tableSpec
	s.keys = make([]Key, 1+int(r.u8()%3))
	for i := range s.keys {
		s.keys[i] = Key{Kind: MatchKind(r.u8() % 2), Field: FieldID(r.u8() % fuzzFields)}
	}
	if r.u8()&1 == 1 {
		s.dflt = r.action()
	}
	s.entries = make([]*Entry, int(r.u8()%9))
	for i := range s.entries {
		e := &Entry{Priority: int(r.u8() & 15)}
		withMasks := r.u8()&1 == 1
		for range s.keys {
			e.Values = append(e.Values, r.i32())
			if m := r.i32(); withMasks {
				e.Masks = append(e.Masks, m)
			}
		}
		e.Action = r.action()
		s.entries[i] = e
	}
	for len(r.b) > 0 && len(s.phvs) < 16 {
		var v [fuzzFields]int32
		for f := range v {
			v[f] = r.i32()
		}
		for i, k := range s.keys {
			if sel := r.u8(); sel&1 == 1 && len(s.entries) > 0 {
				v[k.Field] = s.entries[int(sel>>1)%len(s.entries)].Values[i] ^ int32(r.u8()&7)
			}
		}
		s.phvs = append(s.phvs, v)
	}
	return s
}

type byteWriter struct{ b []byte }

func (w *byteWriter) u8(c byte) { w.b = append(w.b, c) }

func (w *byteWriter) i32(v int32) { w.b = binary.BigEndian.AppendUint32(w.b, uint32(v)) }

func (w *byteWriter) action(a *VLIWAction) {
	if a == nil {
		w.u8(0)
		return
	}
	w.u8(byte(len(a.Ops)))
	for _, op := range a.Ops {
		w.u8(byte(op.Dst))
		w.i32(op.Imm)
	}
}

// encode is decodeTableSpec's inverse for a spec within its ranges; PHVs
// are written as plain values.
func (s tableSpec) encode() []byte {
	w := &byteWriter{}
	w.u8(byte(len(s.keys) - 1))
	for _, k := range s.keys {
		w.u8(byte(k.Kind))
		w.u8(byte(k.Field))
	}
	if s.dflt != nil {
		w.u8(1)
		w.action(s.dflt)
	} else {
		w.u8(0)
	}
	w.u8(byte(len(s.entries)))
	for _, e := range s.entries {
		w.u8(byte(e.Priority))
		if e.Masks != nil {
			w.u8(1)
		} else {
			w.u8(0)
		}
		for i := range s.keys {
			w.i32(e.Values[i])
			if e.Masks != nil {
				w.i32(e.Masks[i])
			} else {
				w.i32(0)
			}
		}
		w.action(e.Action)
	}
	for _, v := range s.phvs {
		for _, x := range v {
			w.i32(x)
		}
		for range s.keys {
			w.u8(0)
		}
	}
	return w.b
}

// deviceTableSpecs are core.NewDevice's two tables over a four-field PHV: the
// preprocessing MAT (eth.type, ipv4.proto exact; one entry clearing bypass,
// a default setting it) and the verdict MAT (meta.score ternary on the sign
// bit; two prioritised entries, no default), each with PHVs that hit and
// miss.
func deviceTableSpecs() []tableSpec {
	set := func(dst FieldID, v int32) *VLIWAction {
		return &VLIWAction{Ops: []ActionOp{{Dst: dst, Imm: v}}}
	}
	const ethType, proto, bypass, score = 0, 1, 2, 3
	const verdict = ethType // four fields are all the fuzz PHV has
	pre := tableSpec{
		keys:    []Key{{Field: ethType, Kind: Exact}, {Field: proto, Kind: Exact}},
		dflt:    set(bypass, 1),
		entries: []*Entry{{Values: []int32{0x0800, 6}, Action: set(bypass, 0)}},
		phvs:    [][fuzzFields]int32{{0x0800, 6}, {0x0800, 17}, {0x0806, 0}, {0x0800, 6, 1}},
	}
	post := tableSpec{
		keys: []Key{{Field: score, Kind: Ternary}},
		entries: []*Entry{
			{Values: []int32{-0x80000000}, Masks: []int32{-0x80000000}, Priority: 10, Action: set(verdict, 0)},
			{Values: []int32{0}, Masks: []int32{0}, Priority: 1, Action: set(verdict, 1)},
		},
		phvs: [][fuzzFields]int32{{9, 9, 9, -1}, {9, 9, 9, 0}, {9, 9, 9, 63}, {9, 9, 9, -0x80000000}},
	}
	return []tableSpec{pre, post}
}

// FuzzTable builds one table two ways — compiled rows and the oracle — from
// the same entries and looks up the same PHVs in both: the hit bit and every
// field value must agree. An entry Insert refuses goes into neither.
func FuzzTable(f *testing.F) {
	for _, s := range deviceTableSpecs() {
		f.Add(s.encode())
	}
	// And a table whose rows Insert must reorder: a wildcard and an exact
	// row tied at priority 3, where only insertion order lets the wildcard
	// shadow the exact row, then a priority-5 row inserted last that must
	// match first.
	set := func(v int32) *VLIWAction { return &VLIWAction{Ops: []ActionOp{{Dst: 1, Imm: v}}} }
	ties := tableSpec{
		keys: []Key{{Field: 0, Kind: Ternary}},
		entries: []*Entry{
			{Values: []int32{0}, Masks: []int32{0}, Priority: 3, Action: set(1)},
			{Values: []int32{7}, Masks: []int32{-1}, Priority: 3, Action: set(3)},
			{Values: []int32{8}, Masks: []int32{-1}, Priority: 5, Action: set(4)},
		},
		phvs: [][fuzzFields]int32{{7}, {8}, {9}},
	}
	f.Add(ties.encode())
	layout := NewLayout("f0", "f1", "f2", "f3")
	got, want := NewPHV(layout), NewPHV(layout)
	f.Fuzz(func(t *testing.T, data []byte) {
		s := decodeTableSpec(data)
		tab := NewTable("fuzz", s.keys, 0)
		oracle := &oracleTable{Keys: s.keys}
		tab.Default, oracle.Default = s.dflt, s.dflt
		for _, e := range s.entries {
			if tab.Insert(e) == nil {
				oracle.insert(e)
			}
		}
		for _, v := range s.phvs {
			got.Reset()
			want.Reset()
			for id, x := range v {
				got.Set(FieldID(id), x)
				want.Set(FieldID(id), x)
			}
			hit, wantHit := tab.Lookup(got), oracle.Lookup(want)
			if hit != wantHit {
				t.Errorf("phv %v: hit %v, oracle %v", v, hit, wantHit)
			}
			for id := FieldID(0); id < fuzzFields; id++ {
				if got.Get(id) != want.Get(id) {
					t.Errorf("phv %v: field %d = %d, oracle %d", v, id, got.Get(id), want.Get(id))
				}
			}
		}
	})
}

// TestDeviceTableSpecsRoundTrip: the fuzz seeds decode to the tables they
// were written from, so the corpus does start from the device's two tables.
func TestDeviceTableSpecsRoundTrip(t *testing.T) {
	for i, s := range deviceTableSpecs() {
		if d := decodeTableSpec(s.encode()); !reflect.DeepEqual(d, s) {
			t.Errorf("table %d decoded %+v, wrote %+v", i, d, s)
		}
	}
}
