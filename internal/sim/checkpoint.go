package sim

// This file is the engine half of world snapshots (DESIGN.md §12). A
// snapshot is taken at a quiesce point — an instant when no actor
// goroutine is mid-dispatch — and is a state hash: one SHA-256 over the
// engine's own state (actors, RNG cursors, the observer's watermark)
// plus one section per registered component saver.
//
// Nothing decodes a snapshot back into a world. A run is reproduced by
// rebuilding it from its recipe and seed and running to the same cut,
// which regenerates the hash — determinism is the serialization format,
// so actor goroutine stacks never need to be serialized.

import (
	"crypto/sha256"
	"encoding/hex"
	"hash"

	"xemem/internal/sim/snapshot"
)

// snapComponent is one registered snapshot section saver.
type snapComponent struct {
	name string
	save func(*snapshot.Enc)
}

// AddSnapshotComponent registers a named snapshot section saver. Savers
// run in registration order when SnapshotHash is called; builders
// register components as they construct them, so registration order —
// and therefore section order — is deterministic for a given recipe.
func (w *World) AddSnapshotComponent(name string, save func(*snapshot.Enc)) {
	w.snapComps = append(w.snapComps, snapComponent{name: name, save: save})
}

// SetCheckpoint arms a one-shot checkpoint: fn fires at the engine's
// first quiesce point at or past virtual time t: the instant the next
// dispatch would reach t — every dispatch strictly below t has executed
// and been observed, none at or past t has. A cut beyond the end of the
// run fires once at termination, after teardown. fn typically captures
// SnapshotHash.
func (w *World) SetCheckpoint(t Time, fn func()) {
	if w.running {
		panic("sim: SetCheckpoint while running")
	}
	w.ckptT = t
	w.ckptFn = fn
}

// fireCheckpoint runs the armed checkpoint exactly once. It executes
// under the engine's one-runnable-goroutine guarantee.
func (w *World) fireCheckpoint() {
	fn := w.ckptFn
	w.ckptFn = nil
	fn()
}

// SnapshotWatermarker is implemented by observers that can export their
// accumulated state as an opaque watermark (trace.Tracer). When the
// world's observer implements it, SnapshotHash covers an
// "obs/watermark" section, so the state hash also fingerprints the trace
// digest accumulated up to the cut.
type SnapshotWatermarker interface {
	SnapshotWatermark() []byte
}

// SnapshotHash fingerprints the world at a quiesce point: the hex
// SHA-256 over, in order, the engine scalars, every actor's
// schedule-relevant state, the observer watermark (when the observer
// supports it), and one section per registered component saver. Call it
// from a SetCheckpoint callback or between RunPhase/Run phases — never
// from inside a running actor.
//
// The cut it records is the armed checkpoint time when one was set,
// else the world's current clock (the RunPhase quiesce case).
func (w *World) SnapshotHash() string {
	h := sha256.New()
	writeSection(h, "sim/world", w.encodeWorld())
	writeSection(h, "sim/actors", w.encodeActors())
	if wm, ok := w.obs.(SnapshotWatermarker); ok {
		writeSection(h, "obs/watermark", wm.SnapshotWatermark())
	}
	for _, c := range w.snapComps {
		var e snapshot.Enc
		c.save(&e)
		writeSection(h, c.name, e.Data())
	}
	return hex.EncodeToString(h.Sum(nil))
}

// writeSection frames one section into h: its name, then its
// length-prefixed payload, so bytes cannot slide from one section into
// the next without changing the hash.
func writeSection(h hash.Hash, name string, data []byte) {
	var e snapshot.Enc
	e.Str(name)
	e.U64(uint64(len(data)))
	h.Write(e.Data())
	h.Write(data)
}

// encodeWorld is the "sim/world" section: the engine-global scalars.
func (w *World) encodeWorld() []byte {
	cut := w.ckptT
	if cut == 0 {
		cut = w.now
	}
	var e snapshot.Enc
	e.U64(w.seed)
	e.I64(int64(cut))
	e.I64(int64(w.now))
	e.U64(w.nextRNG)
	e.U64(uint64(len(w.actors)))
	return e.Data()
}

// encodeActors is the "sim/actors" section: per actor, in id order, the
// schedule-relevant state. Goroutine stacks are not captured (a replay
// re-runs the recipe); the RNG stream position is, so the hash
// fingerprints every noise draw taken before the cut.
func (w *World) encodeActors() []byte {
	var e snapshot.Enc
	for _, a := range w.actors {
		e.Str(a.name)
		e.I64(int64(a.now))
		e.U64(uint64(a.state))
		e.Bool(a.daemon)
		e.Str(a.blockReason)
		if a.rng != nil {
			e.Bool(true)
			state, spare, spareOK := a.rng.State()
			e.U64(state)
			e.F64(spare)
			e.Bool(spareOK)
		} else {
			e.Bool(false)
		}
	}
	return e.Data()
}
