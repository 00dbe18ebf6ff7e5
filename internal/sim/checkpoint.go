package sim

// This file is the engine half of world snapshots (DESIGN.md §12). A
// snapshot is taken at a quiesce point — an instant when no actor
// goroutine is mid-dispatch — and serializes the engine's own state
// (actors, RNG cursors, the observer's watermark) plus one section per
// registered component saver, into the versioned image format of
// internal/sim/snapshot.
//
// Snapshots are encode-only: they fingerprint a world at a cut (repro
// bundles hash the image), and nothing decodes one back into a world.
// A run is reproduced by rebuilding it from its recipe and seed and
// running to the same cut, which regenerates the image byte-for-byte —
// determinism is the serialization format, so actor goroutine stacks
// never need to be serialized.

import "xemem/internal/sim/snapshot"

// snapComponent is one registered snapshot section saver.
type snapComponent struct {
	name string
	save func(*snapshot.Enc)
}

// AddSnapshotComponent registers a named snapshot section saver. Savers
// run in registration order when SnapshotImage is called; builders
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
// SnapshotImage.
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
// world's observer implements it, SnapshotImage captures an
// "obs/watermark" section, so the image hash also fingerprints the trace
// digest accumulated up to the cut.
type SnapshotWatermarker interface {
	SnapshotWatermark() []byte
}

// SnapshotImage serializes the world at a quiesce point: the engine
// core, every actor's schedule-relevant state, the observer watermark
// (when the observer supports it), and one section per registered
// component saver. Call it from a SetCheckpoint callback
// or between RunPhase/Run phases — never from inside a running actor.
//
// The image's CutNs is the armed checkpoint time when one was set, else
// the world's current clock (the RunPhase quiesce case).
func (w *World) SnapshotImage() *snapshot.Image {
	cut := w.ckptT
	if cut == 0 {
		cut = w.now
	}
	// Recipe and Params are left empty: a repro bundle carries its recipe
	// beside the image hash, and empty fields keep every pinned hash.
	img := &snapshot.Image{
		Seed:  w.seed,
		CutNs: int64(cut),
		Kind:  "serial", // the engine kind field of the image format
	}
	img.Sections = append(img.Sections,
		snapshot.Section{Name: "sim/world", Data: w.encodeWorld()},
		snapshot.Section{Name: "sim/actors", Data: w.encodeActors()},
		snapshot.Section{Name: "sim/mailboxes", Data: emptyMailboxes()},
	)
	if wm, ok := w.obs.(SnapshotWatermarker); ok {
		img.Sections = append(img.Sections,
			snapshot.Section{Name: "obs/watermark", Data: wm.SnapshotWatermark()})
	}
	for _, c := range w.snapComps {
		var e snapshot.Enc
		c.save(&e)
		img.Sections = append(img.Sections, snapshot.Section{Name: c.name, Data: e.Data()})
	}
	return img
}

// encodeWorld is the "sim/world" section: the engine-global scalars.
func (w *World) encodeWorld() []byte {
	var e snapshot.Enc
	e.U64(w.seed)
	e.I64(int64(w.now))
	e.U64(w.nextRNG)
	e.U64(1) // partition count of the image format
	e.U64(uint64(len(w.actors)))
	return e.Data()
}

// encodeActors is the "sim/actors" section: per actor, in id order, the
// schedule-relevant state. Goroutine stacks are not captured (a replay
// re-runs the recipe); the RNG stream position is, so the image
// fingerprints every noise draw taken before the cut.
func (w *World) encodeActors() []byte {
	var e snapshot.Enc
	e.U64(uint64(len(w.actors)))
	for _, a := range w.actors {
		e.Str(a.name)
		e.U64(0) // partition label of the image format
		e.I64(int64(a.now))
		e.U64(uint64(a.state))
		e.Bool(a.daemon)
		e.Str(a.blockReason)
		e.U64(0) // mailbox send counter of the image format
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

// emptyMailboxes is the "sim/mailboxes" section: a zero mailbox count,
// kept so images stay byte-identical to the format's earlier writers.
func emptyMailboxes() []byte {
	var e snapshot.Enc
	e.U64(0)
	return e.Data()
}
