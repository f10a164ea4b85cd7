package pisa

import (
	"errors"
	"math"
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"
)

func stdLayout() *Layout {
	return NewLayout(StandardLayoutFields()...)
}

func TestLayout(t *testing.T) {
	l := NewLayout("a", "b")
	if l.Len() != 2 || l.ID("b") != 1 || l.Name(0) != "a" {
		t.Error("layout basics broken")
	}
	if !l.Has("a") || l.Has("z") {
		t.Error("Has broken")
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
	p := NewPHV(l)
	if p.Valid(l.ID("x")) {
		t.Error("fresh PHV should have no valid fields")
	}
	p.SetName("x", 42)
	if p.GetName("x") != 42 || !p.Valid(l.ID("x")) {
		t.Error("Set/Get broken")
	}
	p.Reset()
	if p.GetName("x") != 0 || p.Valid(l.ID("x")) {
		t.Error("Reset broken")
	}
	if p.Layout() != l {
		t.Error("Layout accessor broken")
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
	if phv.GetName("ipv4.src") != 0x0a000001 {
		t.Errorf("src = %x", phv.GetName("ipv4.src"))
	}
	if phv.GetName("ipv4.dst") != 0x0a000002 {
		t.Errorf("dst = %x", phv.GetName("ipv4.dst"))
	}
	if phv.GetName("l4.sport") != 1234 || phv.GetName("l4.dport") != 443 {
		t.Errorf("ports = %d/%d", phv.GetName("l4.sport"), phv.GetName("l4.dport"))
	}
	if phv.GetName("tcp.flags") != 0x02 {
		t.Errorf("flags = %x", phv.GetName("tcp.flags"))
	}
	if phv.GetName("ipv4.len") != 50 {
		t.Errorf("len = %d", phv.GetName("ipv4.len"))
	}
}

func TestParserShortPacket(t *testing.T) {
	l := stdLayout()
	parser, _ := StandardParser(l)
	phv := NewPHV(l)
	// Cut a TCP frame inside each header in turn: every truncation point
	// reports the one sentinel, and none of them allocates — frame length is
	// attacker-controlled.
	full := BuildTCPPacket(1, 2, 3, 4, 0x10, 64)
	for _, n := range []int{0, 10, 14, 30, 34, 50} {
		frame := full[:n]
		if _, err := parser.Parse(frame, phv); !errors.Is(err, ErrShortPacket) {
			t.Errorf("frame cut to %d bytes: %v, want ErrShortPacket", n, err)
		}
		if allocs := testing.AllocsPerRun(100, func() { _, _ = parser.Parse(frame, phv) }); allocs != 0 {
			t.Errorf("frame cut to %d bytes: Parse allocates %.0f times, want 0", n, allocs)
		}
	}
}

func TestParserNonIPAccepts(t *testing.T) {
	l := stdLayout()
	parser, _ := StandardParser(l)
	pkt := make([]byte, 14)
	pkt[12], pkt[13] = 0x08, 0x06 // ARP
	phv := NewPHV(l)
	n, err := parser.Parse(pkt, phv)
	if err != nil {
		t.Fatal(err)
	}
	if n != 14 {
		t.Errorf("consumed %d", n)
	}
	if phv.Valid(l.ID("ipv4.src")) {
		t.Error("should not extract IPv4 from ARP")
	}
}

func TestParserValidation(t *testing.T) {
	l := NewLayout("f")
	if _, err := NewParser(l, "missing"); err == nil {
		t.Error("missing start state should fail")
	}
	// Everything Parse would otherwise trip over per packet is an error here.
	for what, bad := range map[string]*ParseState{
		"field exceeding header": {Name: "s", HeaderLen: 2, Fields: []FieldSpec{{Name: "f", Offset: 1, WidthBits: 16}}},
		"negative field offset":  {Name: "s", HeaderLen: 2, Fields: []FieldSpec{{Name: "f", Offset: -1, WidthBits: 8}}},
		"odd field width":        {Name: "s", HeaderLen: 4, Fields: []FieldSpec{{Name: "f", Offset: 0, WidthBits: 24}}},
		"unknown field":          {Name: "s", HeaderLen: 4, Fields: []FieldSpec{{Name: "zzz", Offset: 0, WidthBits: 8}}},
		"unknown select field":   {Name: "s", HeaderLen: 4, SelectField: "zzz"},
		"undefined next state":   {Name: "s", HeaderLen: 4, SelectField: "f", Transitions: map[int32]string{1: "nowhere"}},
		"negative header length": {Name: "s", HeaderLen: -1},
	} {
		if _, err := NewParser(l, "s", bad); err == nil {
			t.Errorf("%s should fail", what)
		}
	}
	s := &ParseState{Name: "s", HeaderLen: 1}
	if _, err := NewParser(l, "s", s, s); err == nil {
		t.Error("duplicate state should fail")
	}
}

func TestParserLoopDetected(t *testing.T) {
	l := NewLayout("f")
	s := &ParseState{
		Name: "s", HeaderLen: 0,
		SelectField: "f",
		Transitions: map[int32]string{0: "s"},
	}
	p, err := NewParser(l, "s", s)
	if err != nil {
		t.Fatal(err)
	}
	phv := NewPHV(l)
	frame := make([]byte, 4)
	if _, err := p.Parse(frame, phv); !errors.Is(err, ErrParseLoop) {
		t.Errorf("loop: %v, want ErrParseLoop", err)
	}
	// The frame that spins the graph is attacker-controlled: reporting it
	// must not allocate.
	if allocs := testing.AllocsPerRun(100, func() { _, _ = p.Parse(frame, phv) }); allocs != 0 {
		t.Errorf("loop detection allocates %.0f times, want 0", allocs)
	}
}

// TestParsersDoNotShareState: a Parser keeps nothing of the ParseStates it
// was compiled from, so two parsers built from one description — over layouts
// that number the fields differently — each extract into their own layout,
// and the description is left as the caller wrote it.
func TestParsersDoNotShareState(t *testing.T) {
	start, states := StandardParseGraph()
	fields := StandardLayoutFields()
	forward := NewLayout(fields...)
	reversed := make([]string, len(fields))
	for i, f := range fields {
		reversed[len(fields)-1-i] = f
	}
	backward := NewLayout(reversed...)

	_, before := StandardParseGraph()
	pf, err := NewParser(forward, start, states...)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := NewParser(backward, start, states...)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(states, before) {
		t.Error("NewParser modified the caller's ParseStates")
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
		if phv.GetName("ipv4.src") != 0x0a000001 || phv.GetName("l4.dport") != 443 || phv.GetName("tcp.flags") != 0x12 {
			t.Errorf("parser over layout starting %q extracted src %#x dport %d flags %#x",
				tc.l.Name(0), phv.GetName("ipv4.src"), phv.GetName("l4.dport"), phv.GetName("tcp.flags"))
		}
	}
	// Truncation errors name the state of the parser that raised them.
	_, errF := pf.Parse(pkt[:20], NewPHV(forward))
	_, errB := pb.Parse(pkt[:40], NewPHV(backward))
	if !errors.Is(errF, ErrShortPacket) || !strings.Contains(errF.Error(), "ipv4") {
		t.Errorf("forward parser, frame cut in IPv4: %v", errF)
	}
	if !errors.Is(errB, ErrShortPacket) || !strings.Contains(errB.Error(), "tcp") {
		t.Errorf("backward parser, frame cut in TCP: %v", errB)
	}
}

func TestVLIWAction(t *testing.T) {
	l := NewLayout("a", "b")
	p := NewPHV(l)
	p.SetName("a", 10)
	act := &VLIWAction{Ops: []ActionOp{
		{Op: OpSet, Dst: l.ID("b"), Src: l.ID("a")},
		{Op: OpAdd, Dst: l.ID("b"), Imm: 5, UseImm: true},
		{Op: OpShiftRight, Dst: l.ID("b"), Imm: 1, UseImm: true},
		{Op: OpMax, Dst: l.ID("b"), Imm: 3, UseImm: true},
		{Op: OpMin, Dst: l.ID("b"), Imm: 6, UseImm: true},
	}}
	act.Apply(p)
	// b = min(max((10+5)>>1, 3), 6) = 6.
	if got := p.GetName("b"); got != 6 {
		t.Errorf("b = %d, want 6", got)
	}
	sub := &VLIWAction{Ops: []ActionOp{
		{Op: OpSub, Dst: l.ID("b"), Imm: 2, UseImm: true},
		{Op: OpAnd, Dst: l.ID("b"), Imm: 0x5, UseImm: true},
	}}
	sub.Apply(p)
	if got := p.GetName("b"); got != 4 {
		t.Errorf("b = %d, want 4", got)
	}
}

func TestTableExactMatch(t *testing.T) {
	l := NewLayout("port", "verdict")
	tab := NewTable("acl", []Key{{Field: l.ID("port"), Kind: Exact}}, 8)
	set1 := &VLIWAction{Ops: []ActionOp{{Op: OpSet, Dst: l.ID("verdict"), Imm: 1, UseImm: true}}}
	if err := tab.Insert(&Entry{Values: []int32{443}, Action: set1}); err != nil {
		t.Fatal(err)
	}
	tab.Default = &VLIWAction{Ops: []ActionOp{{Op: OpSet, Dst: l.ID("verdict"), Imm: 9, UseImm: true}}}
	p := NewPHV(l)
	p.SetName("port", 443)
	if !tab.Lookup(p) || p.GetName("verdict") != 1 {
		t.Errorf("hit path broken: verdict=%d", p.GetName("verdict"))
	}
	p.Reset()
	p.SetName("port", 80)
	if tab.Lookup(p) || p.GetName("verdict") != 9 {
		t.Errorf("default path broken: verdict=%d", p.GetName("verdict"))
	}
	if tab.Len() != 1 {
		t.Errorf("Len = %d", tab.Len())
	}
	tab.Clear()
	if tab.Len() != 0 {
		t.Error("Clear broken")
	}
}

func TestTableTernaryPriority(t *testing.T) {
	l := NewLayout("f", "out")
	tab := NewTable("t", []Key{{Field: l.ID("f"), Kind: Ternary}}, 8)
	lowAct := &VLIWAction{Ops: []ActionOp{{Op: OpSet, Dst: l.ID("out"), Imm: 1, UseImm: true}}}
	hiAct := &VLIWAction{Ops: []ActionOp{{Op: OpSet, Dst: l.ID("out"), Imm: 2, UseImm: true}}}
	// Low priority: match anything (mask 0).
	if err := tab.Insert(&Entry{Values: []int32{0}, Masks: []int32{0}, Priority: 1, Action: lowAct}); err != nil {
		t.Fatal(err)
	}
	// High priority: match 0xAB exactly.
	if err := tab.Insert(&Entry{Values: []int32{0xAB}, Masks: []int32{-1}, Priority: 10, Action: hiAct}); err != nil {
		t.Fatal(err)
	}
	p := NewPHV(l)
	p.SetName("f", 0xAB)
	tab.Lookup(p)
	if p.GetName("out") != 2 {
		t.Errorf("priority broken: out=%d", p.GetName("out"))
	}
	p.SetName("f", 0xCD)
	tab.Lookup(p)
	if p.GetName("out") != 1 {
		t.Errorf("wildcard broken: out=%d", p.GetName("out"))
	}
}

func TestTableLPM(t *testing.T) {
	l := NewLayout("ip", "hop")
	tab := NewTable("rib", []Key{{Field: l.ID("ip"), Kind: LPM}}, 8)
	mk := func(hop int32) *VLIWAction {
		return &VLIWAction{Ops: []ActionOp{{Op: OpSet, Dst: l.ID("hop"), Imm: hop, UseImm: true}}}
	}
	// 10.0.0.0/8 -> 1; 10.1.0.0/16 -> 2.
	if err := tab.Insert(&Entry{Values: []int32{0x0a000000}, PrefixLen: 8, Action: mk(1)}); err != nil {
		t.Fatal(err)
	}
	if err := tab.Insert(&Entry{Values: []int32{0x0a010000}, PrefixLen: 16, Action: mk(2)}); err != nil {
		t.Fatal(err)
	}
	p := NewPHV(l)
	p.SetName("ip", 0x0a010203)
	tab.Lookup(p)
	if p.GetName("hop") != 2 {
		t.Errorf("LPM picked hop %d, want 2 (longest prefix)", p.GetName("hop"))
	}
	p.SetName("ip", 0x0a990203)
	tab.Lookup(p)
	if p.GetName("hop") != 1 {
		t.Errorf("LPM picked hop %d, want 1", p.GetName("hop"))
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
	l := NewLayout("a", "b", "out")
	a, b := l.ID("a"), l.ID("b")
	rib := NewTable("rib", []Key{{Field: a, Kind: LPM}}, 0)
	for _, plen := range []int{-1, 33} {
		if err := rib.Insert(&Entry{Values: []int32{0x0a000000}, PrefixLen: plen}); err == nil {
			t.Errorf("LPM prefix length %d accepted", plen)
		}
	}
	for _, plen := range []int{0, 32} {
		if err := rib.Insert(&Entry{Values: []int32{0x0a000000}, PrefixLen: plen}); err != nil {
			t.Errorf("LPM prefix length %d: %v", plen, err)
		}
	}
	twoLPM := NewTable("two", []Key{{Field: a, Kind: LPM}, {Field: b, Kind: LPM}}, 0)
	if err := twoLPM.Insert(&Entry{Values: []int32{1, 2}, PrefixLen: 8}); err == nil {
		t.Error("entry for a table with two LPM keys accepted: both would share one PrefixLen")
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
	if rib.Len() != 2 || twoLPM.Len() != 0 || exact.Len() != 1 {
		t.Errorf("rejected entries were installed: Len %d, %d, %d; want 2, 0, 1", rib.Len(), twoLPM.Len(), exact.Len())
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
		Action: &VLIWAction{Ops: []ActionOp{{Op: OpSet, Dst: out, Imm: 7, UseImm: true}}},
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

// TestStandardParserMatchesWalk: on every prefix of a TCP, a UDP, an ICMP and
// an ARP frame, the straight-line standard parser and the graph walk of the
// same Parser consume the same bytes, fill the same PHV and return the very
// same error value.
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
			wantN, wantErr := p.walk(frame[:n], want)
			if gotN != wantN || gotErr != wantErr {
				t.Errorf("frame %x cut to %d: straight-line (%d, %v), walk (%d, %v)", frame[12:14], n, gotN, gotErr, wantN, wantErr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("frame %x cut to %d: PHV %v, walk %v", frame[12:14], n, got.vals, want.vals)
			}
		}
	}
}

func TestRegisterArray(t *testing.T) {
	r := NewRegisterArray("cnt", 4)
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
	r := NewRegisterArray("cnt", 3)
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
	other := NewRegisterArray("other", 3)
	other.WriteSlot(slot, 4)
	if got := other.ReadSlot(other.Slot(idx)); got != 4 {
		t.Errorf("WriteSlot(Slot(idx)) then ReadSlot(Slot(idx)) = %d, want 4", got)
	}
}
