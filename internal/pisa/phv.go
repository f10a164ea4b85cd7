// Package pisa models the Protocol-Independent Switch Architecture
// components Taurus shares with conventional programmable switches (§3, §4):
// packet header vectors (PHVs), the parser of the device's one parse graph,
// match-action tables with VLIW actions and stateful register arrays.
// Figure 6's packet queues and round-robin merge are modelled in time by
// internal/netqueue.
package pisa

import "fmt"

// FieldID indexes a field within a PHV layout.
type FieldID int

// Layout names the fields a pipeline's PHVs carry (the "fixed-layout,
// structured format" of §3).
type Layout struct {
	index map[string]FieldID
}

// NewLayout builds a layout from field names (e.g. "ipv4.src").
func NewLayout(names ...string) *Layout {
	l := &Layout{index: make(map[string]FieldID, len(names))}
	for _, n := range names {
		if _, dup := l.index[n]; dup {
			panic(fmt.Sprintf("pisa: duplicate field %q", n))
		}
		l.index[n] = FieldID(len(l.index))
	}
	return l
}

// ID resolves a field name; it panics on unknown names (programming error).
func (l *Layout) ID(name string) FieldID {
	id, ok := l.index[name]
	if !ok {
		panic(fmt.Sprintf("pisa: unknown field %q", name))
	}
	return id
}

// Len returns the number of fields.
func (l *Layout) Len() int { return len(l.index) }

// PHV is one packet's header vector: parsed header fields plus metadata the
// pipeline computes (features, the ML verdict, the bypass flag...).
type PHV struct {
	vals []int32
}

// NewPHV allocates an empty PHV for the layout.
func NewPHV(l *Layout) *PHV {
	return &PHV{vals: make([]int32, l.Len())}
}

// Reset clears all fields for reuse (PHVs are pooled in the data plane).
func (p *PHV) Reset() { clear(p.vals) }

// Get reads a field (0 if never set).
func (p *PHV) Get(id FieldID) int32 { return p.vals[id] }

// Set writes a field.
func (p *PHV) Set(id FieldID, v int32) { p.vals[id] = v }
