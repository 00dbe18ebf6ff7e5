package experiments

// Repro bundles: a self-contained, replayable fingerprint of one
// experiment world. A bundle pins the recipe, its parameter blob, the
// seed, a snapshot cut, the world's state hash at that cut, and the
// end-of-run trace digest. Replaying re-runs the recipe from
// scratch and verifies both fingerprints: the hash proves the entire
// serialized mid-run state — allocators, page tables, protocol counters,
// name server, RNG cursors — is bit-identical, and the digest proves the
// remainder of the run unfolded identically too. A bundle that verifies
// on another machine (or another commit) is a machine-checked claim that
// the simulated behaviour reproduced exactly; one that fails names the
// first layer that drifted.

import (
	"encoding/json"
	"fmt"

	"xemem/internal/sim"
	"xemem/internal/sim/trace"
)

// Bundle is the repro bundle format (JSON on disk).
type Bundle struct {
	Recipe         string          `json:"recipe"`
	Params         json.RawMessage `json:"params,omitempty"`
	Seed           uint64          `json:"seed"`
	CutNs          int64           `json:"cut_ns"`
	SnapshotSHA256 string          `json:"snapshot_sha256"`
	Digest         trace.Digest    `json:"digest"`
}

// reproProbe observes one recipe run: it installs a digest-only tracer
// and — when armed — a checkpoint that takes the world's state hash at
// the cut.
type reproProbe struct {
	worlds int
	tr     *trace.Tracer
	hash   string
}

func (p *reproProbe) hook(cut sim.Time, armed bool) observeFn {
	return func(label string, w *sim.World) {
		p.worlds++
		if p.worlds > 1 {
			return // CaptureBundle/RunBundle reject this after the run
		}
		tr := trace.NewTracer(label)
		tr.SetKeepEvents(false)
		w.SetObserver(tr)
		p.tr = tr
		if armed {
			w.SetCheckpoint(cut, func() { p.hash = w.SnapshotHash() })
		}
	}
}

// runRecipe executes a registered recipe under a probe and returns it.
func runRecipe(name string, params json.RawMessage, seed uint64, cut sim.Time, armed bool) (*reproProbe, error) {
	fn, ok := recipes[name]
	if !ok {
		return nil, fmt.Errorf("unknown recipe %q (have: %s)", name, RecipeNames())
	}
	p := &reproProbe{}
	if err := fn(params, seed, p.hook(cut, armed)); err != nil {
		return nil, fmt.Errorf("recipe %s: %w", name, err)
	}
	if p.worlds != 1 {
		return nil, fmt.Errorf("recipe %s announced %d worlds; bundles need exactly one", name, p.worlds)
	}
	return p, nil
}

// CaptureBundle runs a recipe twice and packages the result: the first
// run measures the virtual duration, the second places the snapshot cut
// at its midpoint and records the state hash there. The two runs must
// produce the same digest — a recipe that fails that is not
// deterministic and cannot be bundled.
func CaptureBundle(recipe string, params json.RawMessage, seed uint64) (*Bundle, error) {
	ref, err := runRecipe(recipe, params, seed, 0, false)
	if err != nil {
		return nil, err
	}
	d := ref.tr.Digest()
	cut := sim.Time(d.FinalNs / 2)
	cutRun, err := runRecipe(recipe, params, seed, cut, true)
	if err != nil {
		return nil, err
	}
	if cd := cutRun.tr.Digest(); cd != d {
		return nil, fmt.Errorf("recipe %s is not deterministic: digest %s vs %s across identical runs",
			recipe, d.SHA256, cd.SHA256)
	}
	if cutRun.hash == "" {
		return nil, fmt.Errorf("recipe %s: checkpoint at %v never fired", recipe, cut)
	}
	return &Bundle{
		Recipe: recipe, Params: params, Seed: seed,
		CutNs: int64(cut), SnapshotSHA256: cutRun.hash, Digest: d,
	}, nil
}

// RunBundle replays a bundle: re-run its recipe and verify the snapshot
// hash at the pinned cut and the end-of-run digest. nil means the run
// reproduced the bundled behaviour bit-exactly.
func RunBundle(b *Bundle) error {
	p, err := runRecipe(b.Recipe, b.Params, b.Seed, sim.Time(b.CutNs), true)
	if err != nil {
		return err
	}
	if p.hash != b.SnapshotSHA256 {
		return fmt.Errorf("recipe %s: snapshot at cut %v hashes %s, bundle pinned %s — mid-run state diverged",
			b.Recipe, sim.Time(b.CutNs), p.hash, b.SnapshotSHA256)
	}
	if d := p.tr.Digest(); d != b.Digest {
		return fmt.Errorf("recipe %s: trace digest %+v, bundle pinned %+v — post-cut behaviour diverged",
			b.Recipe, d, b.Digest)
	}
	return nil
}
