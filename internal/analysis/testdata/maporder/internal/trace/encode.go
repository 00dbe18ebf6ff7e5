// Encoder cases for the maporder fixture: encoded state feeds golden
// digests, so encoders (Encode* methods, unexported encode* helpers) are
// exporter-feeding.
package trace

import "sort"

// Enc stands in for a byte encoder.
type Enc struct{ data []byte }

// U64 appends a value.
func (e *Enc) U64(v uint64) { e.data = append(e.data, byte(v)) }

// World is a fixture container with map-shaped state.
type World struct {
	frames map[uint64]uint64
	live   map[uint64]bool
}

// Encode ranges straight over a map while encoding: flagged.
func (w *World) Encode(e *Enc) {
	for f, v := range w.frames {
		e.U64(f)
		e.U64(v)
	}
}

// encodeSorted collects — with a tombstone filter — then sorts: silent.
func (w *World) encodeSorted(e *Enc) {
	keys := make([]uint64, 0, len(w.frames))
	for f := range w.frames {
		if w.live[f] {
			keys = append(keys, f)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, f := range keys {
		e.U64(f)
		e.U64(w.frames[f])
	}
}

// encodeExcused ranges over a map with a reasoned suppression: silent.
func (w *World) encodeExcused(e *Enc) {
	total := uint64(0)
	//xemem:allow maporder -- fixture: commutative sum, order cannot reach the encoding
	for _, v := range w.frames {
		total += v
	}
	e.U64(total)
}
