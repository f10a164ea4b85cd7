package pisa

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"
)

func stdLayout() *Layout {
	return NewLayout(StandardLayoutFields()...)
}

func TestLayout(t *testing.T) {
	l := NewLayout("a", "b")
	if l.Len() != 2 || l.ID("a") != 0 || l.ID("b") != 1 {
		t.Error("layout basics broken")
	}
	defer func() {
		if recover() == nil {
			t.Error("unknown field should panic")
		}
	}()
	l.ID("nope")
}

func TestLayoutDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate field should panic")
		}
	}()
	NewLayout("a", "a")
}

func TestPHV(t *testing.T) {
	l := NewLayout("x", "y")
	x, y := l.ID("x"), l.ID("y")
	p := NewPHV(l)
	if p.Get(x) != 0 || p.Get(y) != 0 {
		t.Error("fresh PHV should read zeros")
	}
	p.Set(x, 42)
	if p.Get(x) != 42 || p.Get(y) != 0 {
		t.Error("Set/Get broken")
	}
	p.Reset()
	if p.Get(x) != 0 {
		t.Error("Reset broken")
	}
}

func TestStandardParserTCP(t *testing.T) {
	l := stdLayout()
	parser, err := StandardParser(l)
	if err != nil {
		t.Fatal(err)
	}
	pkt := BuildTCPPacket(0x0a000001, 0x0a000002, 1234, 443, 0x02, 10)
	phv := NewPHV(l)
	n, err := parser.Parse(pkt, phv)
	if err != nil {
		t.Fatal(err)
	}
	if n != 54 {
		t.Errorf("consumed %d bytes, want 54", n)
	}
	get := func(name string) int32 { return phv.Get(l.ID(name)) }
	if get("ipv4.src") != 0x0a000001 {
		t.Errorf("src = %x", get("ipv4.src"))
	}
	if get("ipv4.dst") != 0x0a000002 {
		t.Errorf("dst = %x", get("ipv4.dst"))
	}
	if get("l4.sport") != 1234 || get("l4.dport") != 443 {
		t.Errorf("ports = %d/%d", get("l4.sport"), get("l4.dport"))
	}
	if get("tcp.flags") != 0x02 {
		t.Errorf("flags = %x", get("tcp.flags"))
	}
	if get("ipv4.len") != 50 {
		t.Errorf("len = %d", get("ipv4.len"))
	}
}

// TestParserShortPacket: a frame cut inside each header in turn reports that
// header's error, whose text names the header and its length, after
// consuming the headers before it — and reporting it does not allocate:
// frame length is attacker-controlled.
func TestParserShortPacket(t *testing.T) {
	l := stdLayout()
	parser, _ := StandardParser(l)
	phv := NewPHV(l)
	tcp := BuildTCPPacket(1, 2, 3, 4, 0x10, 64)
	udp := BuildTCPPacket(1, 2, 3, 4, 0, 0)
	udp[23] = 17
	for _, tc := range []struct {
		frame []byte
		n     int
		err   string
	}{
		{tcp[:0], 0, `pisa: packet too short for header "ethernet" (14 bytes)`},
		{tcp[:13], 0, `pisa: packet too short for header "ethernet" (14 bytes)`},
		{tcp[:14], 14, `pisa: packet too short for header "ipv4" (20 bytes)`},
		{tcp[:33], 14, `pisa: packet too short for header "ipv4" (20 bytes)`},
		{tcp[:34], 34, `pisa: packet too short for header "tcp" (20 bytes)`},
		{tcp[:53], 34, `pisa: packet too short for header "tcp" (20 bytes)`},
		{udp[:34], 34, `pisa: packet too short for header "udp" (8 bytes)`},
		{udp[:41], 34, `pisa: packet too short for header "udp" (8 bytes)`},
	} {
		n, err := parser.Parse(tc.frame, phv)
		if !errors.Is(err, ErrShortPacket) || err.Error() != tc.err || n != tc.n {
			t.Errorf("frame cut to %d bytes: (%d, %v), want (%d, %s)", len(tc.frame), n, err, tc.n, tc.err)
		}
		if allocs := testing.AllocsPerRun(100, func() { _, _ = parser.Parse(tc.frame, phv) }); allocs != 0 {
			t.Errorf("frame cut to %d bytes: Parse allocates %.0f times, want 0", len(tc.frame), allocs)
		}
	}
}

func TestParserNonIPAccepts(t *testing.T) {
	l := stdLayout()
	parser, _ := StandardParser(l)
	pkt := BuildTCPPacket(1, 2, 3, 4, 0x10, 0)
	pkt[12], pkt[13] = 0x08, 0x06 // ARP
	phv := NewPHV(l)
	src := l.ID("ipv4.src")
	phv.Set(src, -1)
	n, err := parser.Parse(pkt, phv)
	if err != nil {
		t.Fatal(err)
	}
	if n != 14 {
		t.Errorf("consumed %d", n)
	}
	if phv.Get(src) != -1 {
		t.Error("should not extract IPv4 from ARP")
	}
}

// TestParserValidation: the parser is bound to a layout once, so a layout
// that lacks a field it extracts is an error at StandardParser, not a panic
// on the first packet.
func TestParserValidation(t *testing.T) {
	fields := StandardLayoutFields()
	for i, missing := range fields {
		rest := append(append([]string{}, fields[:i]...), fields[i+1:]...)
		if _, err := StandardParser(NewLayout(rest...)); err == nil {
			t.Errorf("layout without %q accepted", missing)
		}
	}
}

// TestParsersDoNotShareState: two parsers over layouts that number the
// fields differently each extract into their own layout, and each
// truncation error names the header of the frame that raised it.
func TestParsersDoNotShareState(t *testing.T) {
	fields := StandardLayoutFields()
	forward := NewLayout(fields...)
	reversed := make([]string, len(fields))
	for i, f := range fields {
		reversed[len(fields)-1-i] = f
	}
	backward := NewLayout(reversed...)
	pf, err := StandardParser(forward)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := StandardParser(backward)
	if err != nil {
		t.Fatal(err)
	}

	pkt := BuildTCPPacket(0x0a000001, 0x0a000002, 1234, 443, 0x12, 0)
	for _, tc := range []struct {
		p *Parser
		l *Layout
	}{{pf, forward}, {pb, backward}, {pf, forward}} {
		phv := NewPHV(tc.l)
		if _, err := tc.p.Parse(pkt, phv); err != nil {
			t.Fatal(err)
		}
		get := func(name string) int32 { return phv.Get(tc.l.ID(name)) }
		if get("ipv4.src") != 0x0a000001 || get("l4.dport") != 443 || get("tcp.flags") != 0x12 {
			t.Errorf("parser over layout with eth.type at %d extracted src %#x dport %d flags %#x",
				tc.l.ID("eth.type"), get("ipv4.src"), get("l4.dport"), get("tcp.flags"))
		}
	}
	_, errF := pf.Parse(pkt[:20], NewPHV(forward))
	_, errB := pb.Parse(pkt[:40], NewPHV(backward))
	if !errors.Is(errF, ErrShortPacket) || !strings.Contains(errF.Error(), "ipv4") {
		t.Errorf("forward parser, frame cut in IPv4: %v", errF)
	}
	if !errors.Is(errB, ErrShortPacket) || !strings.Contains(errB.Error(), "tcp") {
		t.Errorf("backward parser, frame cut in TCP: %v", errB)
	}
}

// walkHeader is one header of the standard parse graph as its description
// reads: its length, the fields it extracts (offset and width in bytes), and
// the field whose value picks the next header, if any.
type walkHeader struct {
	name        string
	length      int
	fields      []walkField
	selectField string
	next        map[int32]string
}

// walkField is a header field: its name, and its offset and width in bytes.
type walkField struct {
	name       string
	off, width int
}

// walk parses data one header at a time by looking the headers and fields
// up by name: the specification the straight-line Parse is held to.
func walk(l *Layout, data []byte, phv *PHV) (int, error) {
	graph := map[string]walkHeader{
		"ethernet": {"ethernet", ethHeaderLen, []walkField{{"eth.type", 12, 2}}, "eth.type", map[int32]string{0x0800: "ipv4"}},
		"ipv4": {"ipv4", ipv4HeaderLen, []walkField{{"ipv4.len", 2, 2}, {"ipv4.proto", 9, 1}, {"ipv4.src", 12, 4}, {"ipv4.dst", 16, 4}},
			"ipv4.proto", map[int32]string{6: "tcp", 17: "udp"}},
		"tcp": {"tcp", tcpHeaderLen, []walkField{{"l4.sport", 0, 2}, {"l4.dport", 2, 2}, {"tcp.flags", 13, 1}}, "", nil},
		"udp": {"udp", udpHeaderLen, []walkField{{"l4.sport", 0, 2}, {"l4.dport", 2, 2}}, "", nil},
	}
	off, cur := 0, "ethernet"
	for {
		h := graph[cur]
		if off+h.length > len(data) {
			return off, fmt.Errorf("%w for header %q (%d bytes)", ErrShortPacket, h.name, h.length)
		}
		for _, fd := range h.fields {
			var v uint32
			for _, b := range data[off+fd.off : off+fd.off+fd.width] {
				v = v<<8 | uint32(b)
			}
			phv.Set(l.ID(fd.name), int32(v))
		}
		off += h.length
		if h.selectField == "" {
			return off, nil
		}
		next, ok := h.next[phv.Get(l.ID(h.selectField))]
		if !ok {
			return off, nil
		}
		cur = next
	}
}

// TestStandardParserMatchesWalk: on every prefix of a TCP, a UDP, an ICMP and
// an ARP frame, the straight-line parser fills the same PHV, consumes the
// same bytes and reports the same error text as a by-name walk of the graph.
func TestStandardParserMatchesWalk(t *testing.T) {
	l := stdLayout()
	p, err := StandardParser(l)
	if err != nil {
		t.Fatal(err)
	}
	withProto := func(proto byte, n int) []byte {
		pkt := BuildTCPPacket(0x0a000001, 0x0a800001, 1234, 443, 0x10, 0)[:n]
		pkt[23] = proto
		return pkt
	}
	arp := make([]byte, 42)
	arp[12], arp[13] = 0x08, 0x06
	frames := [][]byte{BuildTCPPacket(0x0a000001, 0x0a800001, 1234, 443, 0x12, 8), withProto(17, 42), withProto(1, 42), arp}
	got, want := NewPHV(l), NewPHV(l)
	for _, frame := range frames {
		for n := 0; n <= len(frame); n++ {
			got.Reset()
			want.Reset()
			gotN, gotErr := p.Parse(frame[:n], got)
			wantN, wantErr := walk(l, frame[:n], want)
			if gotN != wantN || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Errorf("frame %x cut to %d: straight-line (%d, %v), walk (%d, %v)", frame[12:14], n, gotN, gotErr, wantN, wantErr)
			}
			if !slices.Equal(got.vals, want.vals) {
				t.Errorf("frame %x cut to %d: PHV %v, walk %v", frame[12:14], n, got.vals, want.vals)
			}
		}
	}
}

// TestVLIWAction: an action word stores its immediates in order, so a later
// store to the same field wins, and it touches no other field.
func TestVLIWAction(t *testing.T) {
	l := NewLayout("a", "b", "c")
	a, b, c := l.ID("a"), l.ID("b"), l.ID("c")
	p := NewPHV(l)
	p.Set(c, 10)
	act := &VLIWAction{Ops: []ActionOp{{Dst: a, Imm: 1}, {Dst: b, Imm: -2}, {Dst: a, Imm: 3}}}
	act.Apply(p)
	if p.Get(a) != 3 || p.Get(b) != -2 || p.Get(c) != 10 {
		t.Errorf("a, b, c = %d, %d, %d; want 3, -2, 10", p.Get(a), p.Get(b), p.Get(c))
	}
}

func TestTableExactMatch(t *testing.T) {
	l := NewLayout("port", "verdict")
	tab := NewTable("acl", []Key{{Field: l.ID("port"), Kind: Exact}}, 8)
	set1 := &VLIWAction{Ops: []ActionOp{{Dst: l.ID("verdict"), Imm: 1}}}
	if err := tab.Insert(&Entry{Values: []int32{443}, Action: set1}); err != nil {
		t.Fatal(err)
	}
	tab.Default = &VLIWAction{Ops: []ActionOp{{Dst: l.ID("verdict"), Imm: 9}}}
	p := NewPHV(l)
	p.Set(l.ID("port"), 443)
	if !tab.Lookup(p) || p.Get(l.ID("verdict")) != 1 {
		t.Errorf("hit path broken: verdict=%d", p.Get(l.ID("verdict")))
	}
	p.Reset()
	p.Set(l.ID("port"), 80)
	if tab.Lookup(p) || p.Get(l.ID("verdict")) != 9 {
		t.Errorf("default path broken: verdict=%d", p.Get(l.ID("verdict")))
	}
	if len(tab.rows) != 1 {
		t.Errorf("table holds %d rows, want 1", len(tab.rows))
	}
}

func TestTableTernaryPriority(t *testing.T) {
	l := NewLayout("f", "out")
	tab := NewTable("t", []Key{{Field: l.ID("f"), Kind: Ternary}}, 8)
	lowAct := &VLIWAction{Ops: []ActionOp{{Dst: l.ID("out"), Imm: 1}}}
	hiAct := &VLIWAction{Ops: []ActionOp{{Dst: l.ID("out"), Imm: 2}}}
	// Low priority: match anything (mask 0).
	if err := tab.Insert(&Entry{Values: []int32{0}, Masks: []int32{0}, Priority: 1, Action: lowAct}); err != nil {
		t.Fatal(err)
	}
	// High priority: match 0xAB exactly.
	if err := tab.Insert(&Entry{Values: []int32{0xAB}, Masks: []int32{-1}, Priority: 10, Action: hiAct}); err != nil {
		t.Fatal(err)
	}
	p := NewPHV(l)
	p.Set(l.ID("f"), 0xAB)
	tab.Lookup(p)
	if p.Get(l.ID("out")) != 2 {
		t.Errorf("priority broken: out=%d", p.Get(l.ID("out")))
	}
	p.Set(l.ID("f"), 0xCD)
	tab.Lookup(p)
	if p.Get(l.ID("out")) != 1 {
		t.Errorf("wildcard broken: out=%d", p.Get(l.ID("out")))
	}
}

func TestTableCapacity(t *testing.T) {
	l := NewLayout("f")
	tab := NewTable("t", []Key{{Field: l.ID("f"), Kind: Exact}}, 1)
	if err := tab.Insert(&Entry{Values: []int32{1}}); err != nil {
		t.Fatal(err)
	}
	if err := tab.Insert(&Entry{Values: []int32{2}}); err == nil {
		t.Error("full table should reject inserts")
	}
	if err := tab.Insert(&Entry{Values: []int32{1, 2}}); err == nil {
		t.Error("wrong key arity should fail")
	}
}

// TestTableInsertRejectsUnhonourable: an entry the table could never match as
// written is an error at Insert, not a rule that silently never hits.
func TestTableInsertRejectsUnhonourable(t *testing.T) {
	l := NewLayout("a", "out")
	a := l.ID("a")
	tern := NewTable("t", []Key{{Field: a, Kind: Ternary}}, 0)
	if err := tern.Insert(&Entry{Values: []int32{1}}); err == nil {
		t.Error("ternary entry without masks accepted")
	}
	long := &VLIWAction{Name: "long", Ops: make([]ActionOp, MaxVLIWOps+1)}
	exact := NewTable("acl", []Key{{Field: a, Kind: Exact}}, 0)
	if err := exact.Insert(&Entry{Values: []int32{1}, Action: long}); err == nil {
		t.Errorf("%d-op action accepted over the %d-op budget", len(long.Ops), MaxVLIWOps)
	}
	long.Ops = long.Ops[:MaxVLIWOps]
	if err := exact.Insert(&Entry{Values: []int32{1}, Action: long}); err != nil {
		t.Errorf("%d-op action: %v", len(long.Ops), err)
	}
	if len(tern.rows) != 0 || len(exact.rows) != 1 {
		t.Errorf("rejected entries were installed: rows %d, %d; want 0, 1", len(tern.rows), len(exact.rows))
	}
}

// TestTableCopiesEntry: Insert compiles the entry; editing the caller's Entry
// afterwards does not change what a lookup matches or does.
func TestTableCopiesEntry(t *testing.T) {
	l := NewLayout("f", "out")
	f, out := l.ID("f"), l.ID("out")
	tab := NewTable("t", []Key{{Field: f, Kind: Ternary}}, 0)
	e := &Entry{
		Values: []int32{0xAB}, Masks: []int32{0xFF},
		Action: &VLIWAction{Ops: []ActionOp{{Dst: out, Imm: 7}}},
	}
	if err := tab.Insert(e); err != nil {
		t.Fatal(err)
	}
	e.Values[0], e.Masks[0], e.Priority = 0xCD, 0, 99
	e.Action = nil
	p := NewPHV(l)
	p.Set(f, 0x1AB)
	if !tab.Lookup(p) || p.Get(out) != 7 {
		t.Errorf("0x1AB after editing the entry: out = %d, want the inserted rule's 7", p.Get(out))
	}
	p.Reset()
	p.Set(f, 0x1CD)
	if tab.Lookup(p) {
		t.Error("0x1CD hit: the edited values reached the table")
	}
}

// TestFastModMatchesRemainder: the multiply-only reduction equals x % d for
// divisors at the edges of the uint32 range and around powers of two, on
// boundary and random x.
func TestFastModMatchesRemainder(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for _, d := range []uint32{1, 2, 3, 4, 7, 4095, 4096, 4097, 1 << 31, math.MaxUint32} {
		m := NewFastMod(d)
		xs := []uint32{0, 1, d - 1, d, d + 1, 2*d - 1, 2 * d, math.MaxUint32 - 1, math.MaxUint32, 1<<31 - 1, 1 << 31}
		for range 20000 {
			xs = append(xs, rng.Uint32())
		}
		for _, x := range xs {
			if got := m.Mod(x); got != x%d {
				t.Fatalf("FastMod(%d).Mod(%d) = %d, want %d", d, x, got, x%d)
			}
		}
	}
	if got := NewFastMod(0).Mod(12345); got != 0 {
		t.Errorf("FastMod(0).Mod = %d, want 0", got)
	}
}

func TestRegisterArray(t *testing.T) {
	r := NewRegisterArray(4)
	r.WriteSlot(r.Slot(1), 10)
	if r.ReadSlot(r.Slot(1)) != 10 {
		t.Error("WriteSlot/ReadSlot broken")
	}
	// Index wrap: 5 and 1 address the same register.
	if r.Slot(5) != r.Slot(1) {
		t.Error("index should wrap")
	}
	if r.ReadSlot(r.Slot(5)) != 10 {
		t.Error("a wrapped index should read the same register")
	}
}

func TestRegisterArrayHighBitIndex(t *testing.T) {
	// Hash indices use the full uint32 range. Indexing must reduce in
	// uint32: converting to int first goes negative for idx >= 2^31 on
	// 32-bit platforms and panics on the negative modulus.
	r := NewRegisterArray(3)
	const idx = uint32(1)<<31 + 2 // 2147483650 % 3 == 1
	slot := r.Slot(idx)
	if slot != 1 {
		t.Fatalf("Slot(2^31+2) = %d, want 1", slot)
	}
	r.WriteSlot(slot, 7)
	if got := r.ReadSlot(r.Slot(1)); got != 7 {
		t.Errorf("high-bit index should reduce to slot 1, ReadSlot(Slot(1)) = %d", got)
	}
	// A key reduced once addresses the same register on any other array of
	// the same size.
	other := NewRegisterArray(3)
	other.WriteSlot(slot, 4)
	if got := other.ReadSlot(other.Slot(idx)); got != 4 {
		t.Errorf("WriteSlot(Slot(idx)) then ReadSlot(Slot(idx)) = %d, want 4", got)
	}
}
