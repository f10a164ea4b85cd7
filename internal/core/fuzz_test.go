package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"taurus/internal/pisa"
)

// FieldSpec describes one extracted field within a header.
type FieldSpec struct {
	Name      string // PHV field to write
	Offset    int    // byte offset within the header
	WidthBits int    // 8, 16 or 32
}

// ParseState is one node of a parse graph: a header, the fields extracted
// from it, and the choice of the next state.
type ParseState struct {
	Name      string
	HeaderLen int // bytes consumed by this header
	Fields    []FieldSpec
	// Select chooses the next state: the value of SelectField (already
	// extracted) is looked up in Transitions; missing keys end parsing
	// (accept). An empty SelectField also accepts.
	SelectField string
	Transitions map[int32]string
}

// StandardParseGraph describes the Ethernet -> IPv4 -> TCP/UDP parse graph
// pisa.StandardParser is bound to: its start state and every state.
func StandardParseGraph() (start string, states []*ParseState) {
	eth := &ParseState{
		Name:        "ethernet",
		HeaderLen:   14,
		Fields:      []FieldSpec{{Name: "eth.type", Offset: 12, WidthBits: 16}},
		SelectField: "eth.type",
		Transitions: map[int32]string{0x0800: "ipv4"},
	}
	ipv4 := &ParseState{
		Name:      "ipv4",
		HeaderLen: 20,
		Fields: []FieldSpec{
			{Name: "ipv4.len", Offset: 2, WidthBits: 16},
			{Name: "ipv4.proto", Offset: 9, WidthBits: 8},
			{Name: "ipv4.src", Offset: 12, WidthBits: 32},
			{Name: "ipv4.dst", Offset: 16, WidthBits: 32},
		},
		SelectField: "ipv4.proto",
		Transitions: map[int32]string{6: "tcp", 17: "udp"},
	}
	tcp := &ParseState{
		Name:      "tcp",
		HeaderLen: 20,
		Fields: []FieldSpec{
			{Name: "l4.sport", Offset: 0, WidthBits: 16},
			{Name: "l4.dport", Offset: 2, WidthBits: 16},
			{Name: "tcp.flags", Offset: 13, WidthBits: 8},
		},
	}
	udp := &ParseState{
		Name:      "udp",
		HeaderLen: 8,
		Fields: []FieldSpec{
			{Name: "l4.sport", Offset: 0, WidthBits: 16},
			{Name: "l4.dport", Offset: 2, WidthBits: 16},
		},
	}
	return eth.Name, []*ParseState{eth, ipv4, tcp, udp}
}

// referenceParse walks a parse graph the way its description reads — states
// and fields looked up by name, transitions through the map, one step at a
// time. It is the specification FuzzParse holds pisa's parser to, down to
// the text of the error for a frame that ends inside a header. The graph
// must be acyclic, as the standard one is.
func referenceParse(layout *pisa.Layout, start string, states []*ParseState, data []byte, phv *pisa.PHV) (int, error) {
	byName := map[string]*ParseState{}
	for _, s := range states {
		byName[s.Name] = s
	}
	cur, off := start, 0
	for {
		st := byName[cur]
		if off+st.HeaderLen > len(data) {
			return off, fmt.Errorf("%w for header %q (%d bytes)", pisa.ErrShortPacket, st.Name, st.HeaderLen)
		}
		hdr := data[off : off+st.HeaderLen]
		for _, f := range st.Fields {
			var v int32
			switch f.WidthBits {
			case 8:
				v = int32(hdr[f.Offset])
			case 16:
				v = int32(binary.BigEndian.Uint16(hdr[f.Offset:]))
			case 32:
				v = int32(binary.BigEndian.Uint32(hdr[f.Offset:]))
			}
			phv.Set(layout.ID(f.Name), v)
		}
		off += st.HeaderLen
		if st.SelectField == "" {
			return off, nil
		}
		next, ok := st.Transitions[phv.Get(layout.ID(st.SelectField))]
		if !ok {
			return off, nil
		}
		cur = next
	}
}

// parseSeeds is the seed corpus: every prefix of a TCP, a UDP, an ICMP and
// an ARP frame, so that each run of the test alone cuts a frame inside every
// header and at every header boundary.
func parseSeeds() [][]byte {
	ipv4 := func(proto byte, l4 int) []byte {
		pkt := pisa.BuildTCPPacket(0x0a000001, 0x0a800001, 1234, 443, 0x10, 0)[:34+l4]
		pkt[23] = proto
		return pkt
	}
	arp := make([]byte, 14+28)
	arp[12], arp[13] = 0x08, 0x06
	var seeds [][]byte
	for _, frame := range [][]byte{
		pisa.BuildTCPPacket(0x0a000001, 0x0a800001, 1234, 443, 0x12, 16),
		ipv4(17, 8), // UDP
		ipv4(1, 8),  // ICMP
		arp,
	} {
		for n := 0; n <= len(frame); n++ {
			seeds = append(seeds, frame[:n])
		}
	}
	return seeds
}

// FuzzParse feeds arbitrary frame bytes — the one attacker-controlled input
// of the hot path — to the standard parser and to a device. The parser must
// agree with a reference walk of the graph's description on the PHV it
// fills, the bytes it consumes and the error it reports, word for word. The
// device must not panic or allocate, must drop and count a frame the parser
// refuses, and must treat the frame as its headers say: a TCP/IPv4 frame
// carrying features is inferred on (and the same frame without features
// reads them back), any other well-formed frame bypasses.
func FuzzParse(f *testing.F) {
	for _, seed := range parseSeeds() {
		f.Add(seed)
	}
	start, states := StandardParseGraph()
	layout := pisa.NewLayout(pisa.StandardLayoutFields()...)
	parser, err := pisa.StandardParser(layout)
	if err != nil {
		f.Fatal(err)
	}
	got, want := pisa.NewPHV(layout), pisa.NewPHV(layout)
	dev, _, gen := buildAnomalyDevice(f)
	features := gen.Record().Features

	f.Fuzz(func(t *testing.T, data []byte) {
		want.Reset()
		got.Reset()
		wantN, wantErr := referenceParse(layout, start, states, data, want)
		n, err := parser.Parse(data, got)
		if n != wantN {
			t.Errorf("Parse consumed %d bytes, reference consumed %d", n, wantN)
		}
		if fmt.Sprint(err) != fmt.Sprint(wantErr) || (err != nil && !errors.Is(err, pisa.ErrShortPacket)) {
			t.Errorf("Parse error %v, reference %v", err, wantErr)
		}
		for _, name := range pisa.StandardLayoutFields() {
			if id := layout.ID(name); got.Get(id) != want.Get(id) {
				t.Errorf("field %s = %d, reference %d", name, got.Get(id), want.Get(id))
			}
		}

		ins := [2]PacketIn{{Data: data, Features: features}, {Data: data}}
		var out [2]Decision
		before := dev.Stats()
		var batchErr error
		// Ten runs, so that a stray allocation on one of the fuzzing engine's
		// own goroutines averages away and one per batch does not.
		const runs = 10
		if allocs := testing.AllocsPerRun(runs, func() { batchErr = dev.ProcessBatch(ins[:], out[:]) }); allocs != 0 {
			t.Errorf("ProcessBatch allocates %.0f times on this frame, want 0", allocs)
		}
		if batchErr != nil {
			t.Errorf("ProcessBatch: %v (malformed traffic is not a caller error)", batchErr)
		}
		after := dev.Stats()
		const calls = runs + 1 // AllocsPerRun warms up with one extra call
		if d := after.Processed - before.Processed; d != calls*len(ins) {
			t.Errorf("Processed grew by %d, want %d", d, calls*len(ins))
		}
		switch isTCP := want.Get(layout.ID("eth.type")) == 0x0800 && want.Get(layout.ID("ipv4.proto")) == 6; {
		case wantErr != nil:
			if out[0] != (Decision{Verdict: Drop}) || out[1] != out[0] {
				t.Errorf("unparseable frame decided %+v / %+v, want bare Drops", out[0], out[1])
			}
			if d := after.ParseErrors - before.ParseErrors; d != calls*len(ins) {
				t.Errorf("ParseErrors grew by %d, want %d", d, calls*len(ins))
			}
		case isTCP:
			if out[0].Bypassed || out[1] != out[0] {
				t.Errorf("TCP frame with features decided %+v, then %+v without: want the same inference twice", out[0], out[1])
			}
		default:
			if !out[0].Bypassed || out[0].Verdict != Forward || out[1] != out[0] {
				t.Errorf("bypass-class frame decided %+v / %+v, want forwarded bypasses", out[0], out[1])
			}
		}
		if wantErr == nil && after.ParseErrors != before.ParseErrors {
			t.Errorf("well-formed frame counted %d parse errors", after.ParseErrors-before.ParseErrors)
		}
	})
}
