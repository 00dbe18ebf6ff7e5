// Package sim is a snapshotcheck fixture stub: just the snapshot
// registration and encoder-stream surface the analyzer keys on.
package sim

// Writer is the stub snapshot encoder stream.
type Writer struct{ buf []byte }

// U64 appends one value.
func (w *Writer) U64(v uint64) { w.buf = append(w.buf, byte(v)) }

// World registers snapshot components.
type World struct{ comps []func(*Writer) }

// AddSnapshotComponent registers one component's encoder.
func (w *World) AddSnapshotComponent(name string, enc func(*Writer)) {
	w.comps = append(w.comps, enc)
}
