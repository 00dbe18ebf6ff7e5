// Package snapshot is the little-endian encoder the simulator's
// per-component snapshot savers write their state with. sim.World feeds
// each saver's bytes into one SHA-256, the world's state hash at a cut
// (DESIGN.md §12); nothing decodes them.
//
// The package is deliberately pure: it imports nothing from the rest of
// the repository and knows nothing about worlds, actors, or memory.
//
// Determinism contract: encoders must emit canonical bytes — fixed-width
// little-endian integers, length-prefixed strings, and map contents
// collected and sorted before encoding (the maporder analyzer in
// cmd/xemem-vet enforces the latter). Two encodings of equal state are
// then byte-identical, which is what lets a replay verify itself by
// re-hashing, and what makes the state hash a stable artifact to pin in
// repro bundles.
package snapshot

import (
	"encoding/binary"
	"math"
)

// Enc accumulates a canonical binary encoding: fixed-width little-endian
// integers and length-prefixed byte strings. The zero value is ready to
// use.
type Enc struct {
	buf []byte
}

// Data returns the bytes encoded so far. The slice aliases the
// encoder's buffer.
func (e *Enc) Data() []byte { return e.buf }

// U64 appends a fixed-width little-endian uint64.
func (e *Enc) U64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }

// I64 appends a fixed-width little-endian int64 (two's complement).
func (e *Enc) I64(v int64) { e.U64(uint64(v)) }

// F64 appends an IEEE-754 bit pattern.
func (e *Enc) F64(v float64) { e.U64(math.Float64bits(v)) }

// Bool appends one byte, 0 or 1.
func (e *Enc) Bool(v bool) {
	if v {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

// Str appends a length-prefixed string.
func (e *Enc) Str(s string) {
	e.U64(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// Blob appends a length-prefixed byte string.
func (e *Enc) Blob(b []byte) {
	e.U64(uint64(len(b)))
	e.buf = append(e.buf, b...)
}
