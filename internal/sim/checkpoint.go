package sim

// This file is the engine half of world checkpoint/restore (DESIGN.md
// §12). A snapshot is taken at a quiesce point — an instant when no
// actor goroutine is mid-dispatch — and serializes the engine's own
// state (actors, RNG cursors, the observer's watermark) plus
// one section per registered component saver, into the versioned image
// format of internal/sim/snapshot.
//
// Restore is recipe-driven rather than pointer-surgical: an image names
// the builder ("recipe") and seed that can reconstruct the world from
// scratch, and the restoring side re-runs that builder, then either
// replays deterministically to the cut (verifying the re-encoded state
// byte-matches the image) or overlays the few divergent fields for a
// warm fork. Actor goroutine stacks therefore never need to be
// serialized — determinism is the serialization format.

import (
	"fmt"
	"io"

	"xemem/internal/sim/snapshot"
)

// snapComponent is one registered snapshot section saver.
type snapComponent struct {
	name string
	save func(*snapshot.Enc)
}

// SetRecipe records the name and opaque parameter blob (conventionally
// JSON) of the builder that can reconstruct this world from scratch.
// Snapshot images embed the pair so a replay can rebuild the world
// without out-of-band knowledge.
func (w *World) SetRecipe(name string, params []byte) {
	w.recipe = name
	w.recipeParams = params
}

// Recipe reports the recipe name and parameter blob set by SetRecipe.
func (w *World) Recipe() (string, []byte) { return w.recipe, w.recipeParams }

// Seed reports the world's RNG seed.
func (w *World) Seed() uint64 { return w.seed }

// RNGCursor reports the creation-order RNG counter behind NewRNG.
// Snapshots record it; a forked world overlays it so streams created
// after the fork match the streams the snapshotted world would have
// created.
func (w *World) RNGCursor() uint64 { return w.nextRNG }

// SetRNGCursor overwrites the creation-order RNG counter (snapshot
// overlay only).
func (w *World) SetRNGCursor(v uint64) { w.nextRNG = v }

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
// SnapshotImage (and, on restore runs, re-encodes and verifies).
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
// accumulated state as an opaque watermark and later be rewound to it
// (trace.Tracer). When the world's observer implements it, SnapshotImage
// captures an "obs/watermark" section, which is what lets a forked run
// continue a golden digest exactly where the snapshot left off.
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
	img := &snapshot.Image{
		Recipe: w.recipe,
		Params: w.recipeParams,
		Seed:   w.seed,
		CutNs:  int64(cut),
		Kind:   "serial", // the engine kind field of the image format
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

// Snapshot writes the world's snapshot image to wr (see SnapshotImage).
func (w *World) Snapshot(wr io.Writer) error {
	_, err := w.SnapshotImage().WriteTo(wr)
	return err
}

// LoadWorldOverlay overlays the engine-global scalars from an image's
// "sim/world" section onto a rebuilt world (the warm-fork path): it
// verifies the seed and the actor count — the fork must have spawned one
// stand-in per snapshotted actor, or post-fork actor ids (and with them
// every dispatch-ordering tie-break and trace event) would shift — and
// overlays the RNG-creation cursor so streams created after the fork
// match the streams the snapshotted world would have created. The clock
// is not overlaid: it catches up at the first post-fork dispatch.
func (w *World) LoadWorldOverlay(data []byte) error {
	d := snapshot.NewDec(data)
	seed := d.U64()
	d.I64() // clock at the cut
	nextRNG := d.U64()
	d.U64() // partition count (always 1)
	nactors := d.U64()
	if err := d.Err(); err != nil {
		return err
	}
	if seed != w.seed {
		return fmt.Errorf("%w: snapshot of seed %d, world has seed %d", snapshot.ErrCorrupt, seed, w.seed)
	}
	if nactors != uint64(len(w.actors)) {
		return fmt.Errorf("%w: snapshot has %d actors, forked world has %d (stand-in mismatch)",
			snapshot.ErrCorrupt, nactors, len(w.actors))
	}
	w.nextRNG = nextRNG
	return nil
}

// Restore reads and integrity-checks a snapshot image from r. It
// returns the decoded image only — reconstruction is recipe-driven:
// rebuild the world named by img.Recipe with img.Seed, then replay to
// img.CutNs (verifying re-encoded sections against the image) or
// overlay the warm-fork fields. See internal/experiments for both
// drivers.
func Restore(r io.Reader) (*snapshot.Image, error) {
	return snapshot.Read(r)
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
// schedule-relevant state. Goroutine stacks are not captured (restore
// re-runs the recipe); the RNG stream position is, because noise draws
// are the one piece of actor state the re-run cannot reconstruct past
// the cut without it.
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
