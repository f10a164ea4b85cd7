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

// ErrParseLoop is what Parse returns for a frame that is still selecting a
// next state after maxParseSteps of them: the graph cycles through states
// that consume no bytes. It is prebuilt — the frame that triggers it is
// attacker-controlled, so reporting it must not allocate.
var ErrParseLoop = errors.New("pisa: parse graph loop detected")

// maxParseSteps bounds the states one frame may visit.
const maxParseSteps = 64

// ParseState is one node of the parse graph, as the caller describes it.
// NewParser reads it and keeps nothing of it.
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

// Parser is a compiled parse graph: the wired form of the ParseStates it was
// built from. Names are resolved once, in NewParser — states to pointers,
// fields to FieldIDs, each transition map to a short key list — the way the
// hardware parser's TCAM and extract units are configured when the program
// is installed, so Parse does no string or map lookup per packet.
type Parser struct {
	start *parseNode
	// std, set by StandardParser, is the standard graph bound to straight-line
	// code; Parse runs it instead of walking the nodes.
	std *stdParser
}

// parseNode is one resolved state.
type parseNode struct {
	headerLen int
	fields    []parseField
	// sel is the PHV field whose value picks the next state; next is empty
	// for a state that always accepts.
	sel  FieldID
	next []parseEdge
	// errShort is this state's short-packet error, built once: frame length
	// is attacker-controlled, so the per-packet path must not allocate to
	// report it.
	errShort error
}

type parseField struct {
	id     FieldID
	offset int
	bytes  int // 1, 2 or 4
}

type parseEdge struct {
	key int32
	to  *parseNode
}

// NewParser compiles the parse graph rooted at start over the given layout.
// Everything a packet cannot change is checked and resolved here: field and
// select names against the layout, extraction windows against the header
// length, transition targets against the set of states. Parse then walks the
// resolved graph; it is the engine for any graph.
func NewParser(layout *Layout, start string, states ...*ParseState) (*Parser, error) {
	p, _, err := compileGraph(layout, start, states)
	return p, err
}

// compileGraph is NewParser, also returning the resolved nodes by state name.
func compileGraph(layout *Layout, start string, states []*ParseState) (*Parser, map[string]*parseNode, error) {
	nodes := make(map[string]*parseNode, len(states))
	for _, s := range states {
		if _, dup := nodes[s.Name]; dup {
			return nil, nil, fmt.Errorf("pisa: duplicate parse state %q", s.Name)
		}
		if s.HeaderLen < 0 {
			return nil, nil, fmt.Errorf("pisa: state %q has header length %d", s.Name, s.HeaderLen)
		}
		nodes[s.Name] = &parseNode{
			headerLen: s.HeaderLen,
			errShort:  fmt.Errorf("%w for header %q (%d bytes)", ErrShortPacket, s.Name, s.HeaderLen),
		}
	}
	for _, s := range states {
		n := nodes[s.Name]
		for _, f := range s.Fields {
			if !layout.Has(f.Name) {
				return nil, nil, fmt.Errorf("pisa: state %q extracts unknown field %q", s.Name, f.Name)
			}
			if f.WidthBits != 8 && f.WidthBits != 16 && f.WidthBits != 32 {
				return nil, nil, fmt.Errorf("pisa: state %q field %q has width %d", s.Name, f.Name, f.WidthBits)
			}
			if f.Offset < 0 || f.Offset+f.WidthBits/8 > s.HeaderLen {
				return nil, nil, fmt.Errorf("pisa: state %q field %q exceeds header length", s.Name, f.Name)
			}
			n.fields = append(n.fields, parseField{id: layout.ID(f.Name), offset: f.Offset, bytes: f.WidthBits / 8})
		}
		if s.SelectField == "" {
			continue
		}
		if !layout.Has(s.SelectField) {
			return nil, nil, fmt.Errorf("pisa: state %q selects on unknown field %q", s.Name, s.SelectField)
		}
		n.sel = layout.ID(s.SelectField)
		for key, name := range s.Transitions {
			to, ok := nodes[name]
			if !ok {
				return nil, nil, fmt.Errorf("pisa: state %q transitions to undefined state %q", s.Name, name)
			}
			n.next = append(n.next, parseEdge{key: key, to: to})
		}
	}
	p := &Parser{start: nodes[start]}
	if p.start == nil {
		return nil, nil, fmt.Errorf("pisa: start state %q not defined", start)
	}
	return p, nodes, nil
}

// Parse extracts the packet's header fields into phv. It returns the number
// of header bytes consumed; a truncated frame yields the offending state's
// prebuilt error (errors.Is ErrShortPacket) and a frame that never reaches an
// accepting state ErrParseLoop, neither allocating.
//
// hotpath: zero-alloc
func (p *Parser) Parse(data []byte, phv *PHV) (int, error) {
	if p.std != nil {
		return p.std.parse(data, phv)
	}
	return p.walk(data, phv)
}

// walk interprets the resolved graph one state at a time.
//
// hotpath: zero-alloc
func (p *Parser) walk(data []byte, phv *PHV) (int, error) {
	st, off := p.start, 0
	for steps := 0; steps <= maxParseSteps; steps++ {
		end := off + st.headerLen
		if end > len(data) {
			return off, st.errShort
		}
		hdr := data[off:end]
		for i := range st.fields {
			f := &st.fields[i]
			var v int32
			switch f.bytes {
			case 1:
				v = int32(hdr[f.offset])
			case 2:
				v = int32(binary.BigEndian.Uint16(hdr[f.offset:]))
			case 4:
				v = int32(binary.BigEndian.Uint32(hdr[f.offset:]))
			}
			phv.Set(f.id, v)
		}
		off = end
		var to *parseNode
		if len(st.next) > 0 {
			sel := phv.Get(st.sel)
			for i := range st.next {
				if st.next[i].key == sel {
					to = st.next[i].to
					break
				}
			}
		}
		if to == nil {
			return off, nil // accept
		}
		st = to
	}
	return off, ErrParseLoop
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

// StandardParser compiles the standard parse graph over a layout containing
// StandardLayoutFields, and binds it to straight-line code: one length check
// per header, fixed-offset loads into the resolved FieldIDs, one compare on
// eth.type and one switch on ipv4.proto. A truncated frame gets the prebuilt
// error of the state it ended in, the same value the resolved graph holds.
func StandardParser(layout *Layout) (*Parser, error) {
	start, states := StandardParseGraph()
	p, nodes, err := compileGraph(layout, start, states)
	if err != nil {
		return nil, err
	}
	p.std = &stdParser{
		ethType:  layout.ID("eth.type"),
		ipLen:    layout.ID("ipv4.len"),
		ipProto:  layout.ID("ipv4.proto"),
		ipSrc:    layout.ID("ipv4.src"),
		ipDst:    layout.ID("ipv4.dst"),
		sport:    layout.ID("l4.sport"),
		dport:    layout.ID("l4.dport"),
		tcpFlags: layout.ID("tcp.flags"),
		errEth:   nodes["ethernet"].errShort,
		errIPv4:  nodes["ipv4"].errShort,
		errTCP:   nodes["tcp"].errShort,
		errUDP:   nodes["udp"].errShort,
	}
	return p, nil
}

// Header lengths of the standard parse graph.
const (
	ethHeaderLen  = 14
	ipv4HeaderLen = 20
	tcpHeaderLen  = 20
	udpHeaderLen  = 8
)

// stdParser is the standard parse graph resolved to its fields and errors.
type stdParser struct {
	ethType, ipLen, ipProto, ipSrc, ipDst, sport, dport, tcpFlags FieldID
	errEth, errIPv4, errTCP, errUDP                               error
}

// parse is StandardParseGraph as straight-line code. It writes the same
// fields, consumes the same bytes and returns the same error as walk on that
// graph (FuzzParse holds it to both).
//
// hotpath: zero-alloc
func (s *stdParser) parse(data []byte, phv *PHV) (int, error) {
	const l4 = ethHeaderLen + ipv4HeaderLen
	if len(data) < ethHeaderLen {
		return 0, s.errEth
	}
	ethType := int32(binary.BigEndian.Uint16(data[12:14]))
	phv.Set(s.ethType, ethType)
	if ethType != 0x0800 {
		return ethHeaderLen, nil
	}
	if len(data) < l4 {
		return ethHeaderLen, s.errIPv4
	}
	ip := data[ethHeaderLen:l4]
	proto := int32(ip[9])
	phv.Set(s.ipLen, int32(binary.BigEndian.Uint16(ip[2:4])))
	phv.Set(s.ipProto, proto)
	phv.Set(s.ipSrc, int32(binary.BigEndian.Uint32(ip[12:16])))
	phv.Set(s.ipDst, int32(binary.BigEndian.Uint32(ip[16:20])))
	switch proto {
	case 6:
		if len(data) < l4+tcpHeaderLen {
			return l4, s.errTCP
		}
		tcp := data[l4 : l4+tcpHeaderLen]
		phv.Set(s.sport, int32(binary.BigEndian.Uint16(tcp[0:2])))
		phv.Set(s.dport, int32(binary.BigEndian.Uint16(tcp[2:4])))
		phv.Set(s.tcpFlags, int32(tcp[13]))
		return l4 + tcpHeaderLen, nil
	case 17:
		if len(data) < l4+udpHeaderLen {
			return l4, s.errUDP
		}
		udp := data[l4 : l4+udpHeaderLen]
		phv.Set(s.sport, int32(binary.BigEndian.Uint16(udp[0:2])))
		phv.Set(s.dport, int32(binary.BigEndian.Uint16(udp[2:4])))
		return l4 + udpHeaderLen, nil
	}
	return l4, nil
}

// StandardParseGraph describes the Ethernet -> IPv4 -> TCP/UDP parse graph
// StandardParser compiles: its start state and every state.
func StandardParseGraph() (start string, states []*ParseState) {
	eth := &ParseState{
		Name:        "ethernet",
		HeaderLen:   ethHeaderLen,
		Fields:      []FieldSpec{{Name: "eth.type", Offset: 12, WidthBits: 16}},
		SelectField: "eth.type",
		Transitions: map[int32]string{0x0800: "ipv4"},
	}
	ipv4 := &ParseState{
		Name:      "ipv4",
		HeaderLen: ipv4HeaderLen,
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
		HeaderLen: tcpHeaderLen,
		Fields: []FieldSpec{
			{Name: "l4.sport", Offset: 0, WidthBits: 16},
			{Name: "l4.dport", Offset: 2, WidthBits: 16},
			{Name: "tcp.flags", Offset: 13, WidthBits: 8},
		},
	}
	udp := &ParseState{
		Name:      "udp",
		HeaderLen: udpHeaderLen,
		Fields: []FieldSpec{
			{Name: "l4.sport", Offset: 0, WidthBits: 16},
			{Name: "l4.dport", Offset: 2, WidthBits: 16},
		},
	}
	return eth.Name, []*ParseState{eth, ipv4, tcp, udp}
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
