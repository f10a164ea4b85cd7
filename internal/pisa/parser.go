package pisa

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// The programmable parser walks a parse graph (Gibb et al., cited as the
// PISA parser design in §4): each state extracts header fields into the PHV
// and selects the next state from a field value.

// FieldSpec describes one extracted field within a header.
type FieldSpec struct {
	Name      string // PHV field to write
	Offset    int    // byte offset within the header
	WidthBits int    // 8, 16 or 32
}

// ErrShortPacket is wrapped by the error Parse returns for a frame that ends
// before the header a parse state needs.
var ErrShortPacket = errors.New("pisa: packet too short")

// ParseState is one node of the parse graph.
type ParseState struct {
	Name      string
	HeaderLen int // bytes consumed by this header
	Fields    []FieldSpec
	// Select chooses the next state: the value of SelectField (already
	// extracted) is looked up in Transitions; missing keys end parsing
	// (accept). An empty SelectField also accepts.
	SelectField string
	Transitions map[int32]string

	// errShort is this state's short-packet error, built once by NewParser:
	// frame length is attacker-controlled, so the per-packet path must not
	// allocate to report it.
	errShort error
}

// Parser is a compiled parse graph.
type Parser struct {
	layout *Layout
	states map[string]*ParseState
	start  string
}

// NewParser builds a parser over the given layout, starting at start.
func NewParser(layout *Layout, start string, states ...*ParseState) (*Parser, error) {
	p := &Parser{layout: layout, states: map[string]*ParseState{}, start: start}
	for _, s := range states {
		if _, dup := p.states[s.Name]; dup {
			return nil, fmt.Errorf("pisa: duplicate parse state %q", s.Name)
		}
		for _, f := range s.Fields {
			if !layout.Has(f.Name) {
				return nil, fmt.Errorf("pisa: state %q extracts unknown field %q", s.Name, f.Name)
			}
			if f.WidthBits != 8 && f.WidthBits != 16 && f.WidthBits != 32 {
				return nil, fmt.Errorf("pisa: state %q field %q has width %d", s.Name, f.Name, f.WidthBits)
			}
			if f.Offset+f.WidthBits/8 > s.HeaderLen {
				return nil, fmt.Errorf("pisa: state %q field %q exceeds header length", s.Name, f.Name)
			}
		}
		s.errShort = fmt.Errorf("%w for header %q (%d bytes)", ErrShortPacket, s.Name, s.HeaderLen)
		p.states[s.Name] = s
	}
	if _, ok := p.states[start]; !ok {
		return nil, fmt.Errorf("pisa: start state %q not defined", start)
	}
	return p, nil
}

// Parse walks the packet bytes, extracting fields into phv. It returns the
// number of header bytes consumed; a truncated frame yields the offending
// state's prebuilt error (errors.Is ErrShortPacket) without allocating.
func (p *Parser) Parse(data []byte, phv *PHV) (int, error) {
	cur := p.start
	off := 0
	for steps := 0; ; steps++ {
		if steps > 64 {
			return off, fmt.Errorf("pisa: parse graph loop detected at %q", cur)
		}
		st := p.states[cur]
		if off+st.HeaderLen > len(data) {
			return off, st.errShort
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
			phv.Set(p.layout.ID(f.Name), v)
		}
		off += st.HeaderLen
		if st.SelectField == "" {
			return off, nil
		}
		sel := phv.Get(p.layout.ID(st.SelectField))
		next, ok := st.Transitions[sel]
		if !ok {
			return off, nil // accept
		}
		cur = next
	}
}

// StandardLayoutFields lists the header fields the standard TCP/IPv4 parser
// extracts.
func StandardLayoutFields() []string {
	return []string{
		"eth.type",
		"ipv4.proto", "ipv4.len", "ipv4.src", "ipv4.dst",
		"l4.sport", "l4.dport", "tcp.flags",
	}
}

// StandardParser builds an Ethernet -> IPv4 -> TCP/UDP parse graph over a
// layout containing StandardLayoutFields.
func StandardParser(layout *Layout) (*Parser, error) {
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
	return NewParser(layout, "ethernet", eth, ipv4, tcp, udp)
}

// BuildTCPPacket serialises a minimal Ethernet+IPv4+TCP packet for the
// standard parser — used by traffic generators and tests.
func BuildTCPPacket(srcIP, dstIP uint32, sport, dport uint16, flags byte, payloadLen int) []byte {
	pkt := make([]byte, 14+20+20+payloadLen)
	binary.BigEndian.PutUint16(pkt[12:], 0x0800)
	ip := pkt[14:]
	ip[0] = 0x45
	binary.BigEndian.PutUint16(ip[2:], uint16(20+20+payloadLen))
	ip[8] = 64
	ip[9] = 6
	binary.BigEndian.PutUint32(ip[12:], srcIP)
	binary.BigEndian.PutUint32(ip[16:], dstIP)
	tcp := ip[20:]
	binary.BigEndian.PutUint16(tcp[0:], sport)
	binary.BigEndian.PutUint16(tcp[2:], dport)
	tcp[12] = 5 << 4
	tcp[13] = flags
	return pkt
}
