package pisa

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// The parser is the device's one parse graph, Ethernet -> IPv4 -> TCP/UDP
// (the PISA parser of Gibb et al., cited in §4), bound to straight-line code
// the way the hardware parser's TCAM and extract units are configured when
// the program is installed: one length check per header, fixed-offset loads
// into FieldIDs resolved once, one compare on eth.type and one switch on
// ipv4.proto.

// ErrShortPacket is wrapped by the error Parse returns for a frame that ends
// before the header it is in.
var ErrShortPacket = errors.New("pisa: packet too short")

// Header lengths of the standard parse graph.
const (
	ethHeaderLen  = 14
	ipv4HeaderLen = 20
	tcpHeaderLen  = 20
	udpHeaderLen  = 8
)

// Parser is the standard parse graph resolved to its fields and errors.
type Parser struct {
	ethType, ipLen, ipProto, ipSrc, ipDst, sport, dport, tcpFlags FieldID
	// One short-packet error per header, built once: frame length is
	// attacker-controlled, so the per-packet path must not allocate to
	// report it.
	errEth, errIPv4, errTCP, errUDP error
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

// StandardParser binds the standard parse graph to a layout containing
// StandardLayoutFields.
func StandardParser(layout *Layout) (*Parser, error) {
	for _, name := range StandardLayoutFields() {
		if _, ok := layout.index[name]; !ok {
			return nil, fmt.Errorf("pisa: layout lacks parsed field %q", name)
		}
	}
	short := func(header string, n int) error {
		return fmt.Errorf("%w for header %q (%d bytes)", ErrShortPacket, header, n)
	}
	return &Parser{
		ethType:  layout.ID("eth.type"),
		ipLen:    layout.ID("ipv4.len"),
		ipProto:  layout.ID("ipv4.proto"),
		ipSrc:    layout.ID("ipv4.src"),
		ipDst:    layout.ID("ipv4.dst"),
		sport:    layout.ID("l4.sport"),
		dport:    layout.ID("l4.dport"),
		tcpFlags: layout.ID("tcp.flags"),
		errEth:   short("ethernet", ethHeaderLen),
		errIPv4:  short("ipv4", ipv4HeaderLen),
		errTCP:   short("tcp", tcpHeaderLen),
		errUDP:   short("udp", udpHeaderLen),
	}, nil
}

// Parse extracts the packet's header fields into phv. It returns the number
// of header bytes consumed; a frame that ends inside a header yields that
// header's prebuilt error (errors.Is ErrShortPacket) without allocating.
// A frame that is not IPv4, or IPv4 carrying neither TCP nor UDP, is
// accepted after the last header the graph knows.
//
// hotpath: zero-alloc
func (p *Parser) Parse(data []byte, phv *PHV) (int, error) {
	const l4 = ethHeaderLen + ipv4HeaderLen
	if len(data) < ethHeaderLen {
		return 0, p.errEth
	}
	ethType := int32(binary.BigEndian.Uint16(data[12:14]))
	phv.Set(p.ethType, ethType)
	if ethType != 0x0800 {
		return ethHeaderLen, nil
	}
	if len(data) < l4 {
		return ethHeaderLen, p.errIPv4
	}
	ip := data[ethHeaderLen:l4]
	proto := int32(ip[9])
	phv.Set(p.ipLen, int32(binary.BigEndian.Uint16(ip[2:4])))
	phv.Set(p.ipProto, proto)
	phv.Set(p.ipSrc, int32(binary.BigEndian.Uint32(ip[12:16])))
	phv.Set(p.ipDst, int32(binary.BigEndian.Uint32(ip[16:20])))
	switch proto {
	case 6:
		if len(data) < l4+tcpHeaderLen {
			return l4, p.errTCP
		}
		tcp := data[l4 : l4+tcpHeaderLen]
		phv.Set(p.sport, int32(binary.BigEndian.Uint16(tcp[0:2])))
		phv.Set(p.dport, int32(binary.BigEndian.Uint16(tcp[2:4])))
		phv.Set(p.tcpFlags, int32(tcp[13]))
		return l4 + tcpHeaderLen, nil
	case 17:
		if len(data) < l4+udpHeaderLen {
			return l4, p.errUDP
		}
		udp := data[l4 : l4+udpHeaderLen]
		phv.Set(p.sport, int32(binary.BigEndian.Uint16(udp[0:2])))
		phv.Set(p.dport, int32(binary.BigEndian.Uint16(udp[2:4])))
		return l4 + udpHeaderLen, nil
	}
	return l4, nil
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
