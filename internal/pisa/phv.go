// Package pisa models the Protocol-Independent Switch Architecture
// components Taurus shares with conventional programmable switches (§3, §4):
// packet header vectors (PHVs), a programmable parser, match-action tables
// with VLIW actions and stateful register arrays. Figure 6's packet queues
// and round-robin merge are modelled in time by internal/netqueue.
package pisa

import "fmt"

// FieldID indexes a field within a PHV layout.
type FieldID int

// Layout names the fields a pipeline's PHVs carry (the "fixed-layout,
// structured format" of §3).
type Layout struct {
	names []string
	index map[string]FieldID
}

// NewLayout builds a layout from field names (e.g. "ipv4.src").
func NewLayout(names ...string) *Layout {
	l := &Layout{index: make(map[string]FieldID, len(names))}
	for _, n := range names {
		if _, dup := l.index[n]; dup {
			panic(fmt.Sprintf("pisa: duplicate field %q", n))
		}
		l.index[n] = FieldID(len(l.names))
		l.names = append(l.names, n)
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

// Has reports whether the layout contains the field.
func (l *Layout) Has(name string) bool {
	_, ok := l.index[name]
	return ok
}

// Len returns the number of fields.
func (l *Layout) Len() int { return len(l.names) }

// Name returns the field name for an ID.
func (l *Layout) Name(id FieldID) string { return l.names[id] }

// PHV is one packet's header vector: parsed header fields plus metadata the
// pipeline computes (features, the ML verdict, the bypass flag...).
type PHV struct {
	layout *Layout
	vals   []int32
	valid  []bool
}

// NewPHV allocates an empty PHV for the layout.
func NewPHV(l *Layout) *PHV {
	return &PHV{layout: l, vals: make([]int32, l.Len()), valid: make([]bool, l.Len())}
}

// Reset clears all fields for reuse (PHVs are pooled in the data plane).
func (p *PHV) Reset() {
	clear(p.vals)
	clear(p.valid)
}

// Layout returns the PHV's layout.
func (p *PHV) Layout() *Layout { return p.layout }

// Get reads a field (0 if never set).
func (p *PHV) Get(id FieldID) int32 { return p.vals[id] }

// Valid reports whether a field has been written since the last Reset.
func (p *PHV) Valid(id FieldID) bool { return p.valid[id] }

// Set writes a field.
func (p *PHV) Set(id FieldID, v int32) {
	p.vals[id] = v
	p.valid[id] = true
}

// GetName reads a field by name (convenience for tests and examples).
func (p *PHV) GetName(name string) int32 { return p.Get(p.layout.ID(name)) }

// SetName writes a field by name.
func (p *PHV) SetName(name string, v int32) { p.Set(p.layout.ID(name), v) }
