package core

import (
	"encoding/binary"
	"errors"
	"testing"

	"taurus/internal/pisa"
)

// referenceParse walks a parse graph the way its description reads — states
// and fields looked up by name, transitions through the map, one step at a
// time — with none of the resolution pisa.NewParser does. It is the
// specification FuzzParse holds the compiled parser to.
func referenceParse(start string, states []*pisa.ParseState, data []byte, phv *pisa.PHV) (int, error) {
	byName := map[string]*pisa.ParseState{}
	for _, s := range states {
		byName[s.Name] = s
	}
	cur, off := start, 0
	for steps := 0; steps <= 64; steps++ {
		st := byName[cur]
		if off+st.HeaderLen > len(data) {
			return off, pisa.ErrShortPacket
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
			phv.SetName(f.Name, v)
		}
		off += st.HeaderLen
		if st.SelectField == "" {
			return off, nil
		}
		next, ok := st.Transitions[phv.GetName(st.SelectField)]
		if !ok {
			return off, nil
		}
		cur = next
	}
	return off, pisa.ErrParseLoop
}

// parseSeeds is the seed corpus: a TCP, a UDP, an ICMP and an ARP frame, each
// whole and cut at (and one byte short of) every header boundary.
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
		pisa.BuildTCPPacket(0x0a000001, 0x0a800001, 1234, 443, 0x10, 16),
		ipv4(17, 8), // UDP
		ipv4(1, 8),  // ICMP
		arp,
	} {
		seeds = append(seeds, frame)
		for _, cut := range []int{0, 14, 34, 42, 54} {
			if cut < len(frame) {
				seeds = append(seeds, frame[:cut])
			}
			if cut > 0 && cut-1 < len(frame) {
				seeds = append(seeds, frame[:cut-1])
			}
		}
	}
	return seeds
}

// FuzzParse feeds arbitrary frame bytes — the one attacker-controlled input
// of the hot path — to three parsers of the standard graph and to a device.
// The straight-line StandardParser and the graph walk NewParser builds must
// agree with a reference walk of the description on the PHV they fill, the
// bytes they consume and the class of error they report, and with each other
// on the error itself: the same state's error, word for word. The device must
// not panic or allocate, must drop and count a frame the parser refuses, and
// must treat the frame as its headers say: a TCP/IPv4 frame carrying features
// is inferred on (and the same frame without features reads them back), any
// other well-formed frame bypasses.
func FuzzParse(f *testing.F) {
	for _, seed := range parseSeeds() {
		f.Add(seed)
	}
	start, states := pisa.StandardParseGraph()
	layout := pisa.NewLayout(pisa.StandardLayoutFields()...)
	std, err := pisa.StandardParser(layout)
	if err != nil {
		f.Fatal(err)
	}
	walk, err := pisa.NewParser(layout, start, states...)
	if err != nil {
		f.Fatal(err)
	}
	parsers := []struct {
		name string
		p    *pisa.Parser
		phv  *pisa.PHV
	}{{"StandardParser", std, pisa.NewPHV(layout)}, {"NewParser", walk, pisa.NewPHV(layout)}}
	want := pisa.NewPHV(layout)
	dev, _, gen := buildAnomalyDevice(f)
	features := gen.Record().Features

	f.Fuzz(func(t *testing.T, data []byte) {
		want.Reset()
		wantN, wantErr := referenceParse(start, states, data, want)
		var errs [2]error
		for i, tc := range parsers {
			got := tc.phv
			got.Reset()
			n, err := tc.p.Parse(data, got)
			errs[i] = err
			if n != wantN {
				t.Errorf("%s consumed %d bytes, reference consumed %d", tc.name, n, wantN)
			}
			if (err == nil) != (wantErr == nil) || !errors.Is(err, wantErr) {
				t.Errorf("%s error %v, reference %v", tc.name, err, wantErr)
			}
			for id := pisa.FieldID(0); int(id) < layout.Len(); id++ {
				if got.Get(id) != want.Get(id) || got.Valid(id) != want.Valid(id) {
					t.Errorf("%s: field %s = %d (valid %v), reference %d (valid %v)",
						tc.name, layout.Name(id), got.Get(id), got.Valid(id), want.Get(id), want.Valid(id))
				}
			}
		}
		if (errs[0] == nil) != (errs[1] == nil) || (errs[0] != nil && errs[0].Error() != errs[1].Error()) {
			t.Errorf("StandardParser error %v, NewParser error %v", errs[0], errs[1])
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
		switch isTCP := want.GetName("eth.type") == 0x0800 && want.GetName("ipv4.proto") == 6; {
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
