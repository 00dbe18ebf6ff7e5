// Package comp exercises every snapshotcheck verdict: a dropped
// mutable field, an externally written unencoded field, a delegated
// type's dropped field, a reasoned //xemem:nosnap exception, and the
// silent cases — immutable fields, covered fields, and an encoder that
// is never registered or delegated to.
package comp

import "fixture/internal/sim"

// Counter is the registered component.
type Counter struct {
	// ticks is mutable and encoded: silent.
	ticks uint64
	// drops is mutable but the encoder never writes it: flagged.
	drops uint64
	// cache is mutable and unencoded, with a reasoned exception.
	cache uint64 //xemem:nosnap -- fixture: derived from ticks, recomputed on the next Tick
	// Skew is written only by the driver package: the external-write
	// fact must still mark it mutable, and it is unencoded: flagged.
	Skew uint64
	// label is set only by the constructor: immutable, silent.
	label string
	// nested is the delegation edge: Counter's codec calls Nested's.
	nested *Nested
}

// NewCounter builds a counter; constructor writes do not count as
// mutations.
func NewCounter(label string) *Counter {
	return &Counter{label: label, nested: &Nested{}}
}

// Tick mutates the counted state.
func (c *Counter) Tick() {
	c.ticks++
	c.cache = c.ticks * 2
}

// Drop mutates the field the encoder forgot.
func (c *Counter) Drop() { c.drops++ }

// EncodeSnapshot writes everything but drops, cache, and Skew; the
// nested component is delegated.
func (c *Counter) EncodeSnapshot(w *sim.Writer) {
	w.U64(c.ticks)
	c.nested.EncodeSnapshot(w)
}

// Nested is never registered itself: it enters the snapshot graph
// through Counter's delegation.
type Nested struct {
	// depth is encoded: silent.
	depth uint64
	// lost is mutable but never encoded: flagged.
	lost uint64
}

// Bump mutates both nested fields.
func (n *Nested) Bump() {
	n.depth++
	n.lost++
}

// EncodeSnapshot writes depth only.
func (n *Nested) EncodeSnapshot(w *sim.Writer) { w.U64(n.depth) }

// Gauge is registered through a closure wrapper; its one mutable field
// is covered, so it stays silent.
type Gauge struct{ level uint64 }

// Set mutates the gauge.
func (g *Gauge) Set(v uint64) { g.level = v }

// EncodeSnapshot writes the level.
func (g *Gauge) EncodeSnapshot(w *sim.Writer) { w.U64(g.level) }

// Scratch has an encoder and a mutated field but is neither registered
// nor delegated to: outside the snapshot graph, silent.
type Scratch struct{ n uint64 }

// Inc mutates the scratch counter.
func (s *Scratch) Inc() { s.n++ }

// EncodeSnapshot exists but nothing reaches it.
func (s *Scratch) EncodeSnapshot(w *sim.Writer) { w.U64(s.n) }

// Register wires the two components: a method value for the counter, a
// closure wrapper for the gauge.
func Register(w *sim.World, c *Counter, g *Gauge) {
	w.AddSnapshotComponent("counter", c.EncodeSnapshot)
	w.AddSnapshotComponent("gauge", func(sw *sim.Writer) { g.EncodeSnapshot(sw) })
}
