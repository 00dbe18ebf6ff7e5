package experiments

// Phased Figure 9: the snapshot-forked sweep machinery behind
// BENCH_snapshot.json. A Figure 9 world is split into a bootstrap prefix
// (build every node's enclave substrate, run the composed workload for
// PrefixIters iterations with a clean retire of every XEMEM object) and
// a per-cell suffix (the remaining iterations under the cell's
// attachment model). Every cell of a sweep shares the identical prefix,
// so there are two ways to run a cell:
//
//   - bootstrap: rebuild the world and re-execute the prefix, then run
//     the suffix — the reference path;
//   - fork: decode a snapshot image of the quiesced prefix world,
//     re-run only the build recipe, overlay the handful of fields the
//     prefix advanced (allocator state, module counters, name server,
//     RNG cursors, address-space placement), verify the re-encoded
//     sections byte-match the image, and run the suffix.
//
// Both paths continue the same trace digest — the fork restores the
// tracer watermark the image carries — so equality of the end-to-end
// digests is a machine-checked proof that the fork is behaviorally
// indistinguishable from the bootstrap.
//
// The phase boundary itself is shared with the cluster tier
// (clusterphased.go): snapshotPhase and forkPhase run both sides of it,
// and each driver supplies only its build, prefix, stand-in and suffix
// bodies.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"

	"xemem/internal/cluster"
	"xemem/internal/insitu"
	"xemem/internal/sim"
	"xemem/internal/sim/snapshot"
	"xemem/internal/sim/trace"
)

// fig9PrefixParams is the recipe parameter blob embedded in a phased
// Figure 9 snapshot image: everything needed to rebuild the world and
// re-run (or fork past) its bootstrap prefix.
type fig9PrefixParams struct {
	Nodes        int  `json:"nodes"`
	MultiEnclave bool `json:"multi_enclave"`
	PrefixIters  int  `json:"prefix_iters"`
	// Recurring selects the prefix's attachment model. The recurring
	// model re-creates and re-attaches the data segment at every analysis
	// point, which is what makes a long prefix host-expensive — and a
	// fork that skips it worthwhile.
	Recurring bool `json:"recurring"`
}

// fig9Tail is one cell's suffix workload: the iterations that run on
// top of the shared prefix, under the cell's attachment model.
type fig9Tail struct {
	Recurring bool
	Iters     int
}

// fig9Outcome is a phased cell's simulated result — a pure function of
// (seed, prefix, tail), identical whether the cell bootstrapped or
// forked. The digest covers the full event stream from world build
// through the last suffix event.
type fig9Outcome struct {
	SimTimeNs int64        `json:"sim_time_ns"`
	Points    int          `json:"points"`
	Digest    trace.Digest `json:"digest"`
}

// phasedWorld is a world positioned at a prefix/suffix boundary: the
// quiesced engine, the tracer that observed everything so far, and the
// virtual time of the cut.
type phasedWorld struct {
	w   *sim.World
	tr  *trace.Tracer
	cut sim.Time
}

// fig9Phased is a Figure 9 world at the boundary, plus the per-node
// substrate handles the suffix wires into.
type fig9Phased struct {
	phasedWorld
	nodes []*fig9Node
	p     fig9PrefixParams
}

func fig9PhasedLabel(p fig9PrefixParams, seed uint64) string {
	return fmt.Sprintf("fig9phased/nodes=%d/multi=%v/prefix=%d/rec=%v/seed=%d",
		p.Nodes, p.MultiEnclave, p.PrefixIters, p.Recurring, seed)
}

// fig9Snapshot builds a Figure 9 world, runs the bootstrap prefix to
// quiescence, and returns the world positioned at the cut. SnapshotImage
// may be taken from it, and runSuffix continues it as the bootstrap path.
func fig9Snapshot(seed uint64, p fig9PrefixParams) (*fig9Phased, error) {
	nodes := make([]*fig9Node, p.Nodes)
	pw, err := snapshotPhase("fig9", fig9PhasedLabel(p, seed), seed, p, func(w *sim.World) error {
		costs := sim.DefaultCosts()
		bar := cluster.NewAllreduce(p.Nodes, fig9AllreduceNs)
		for i := range nodes {
			n, err := fig9BuildNode(w, costs, i, seed, p.MultiEnclave)
			if err != nil {
				return err
			}
			// The prefix retires every segment it creates (CleanExit), so the
			// quiesced world carries no live XEMEM state a fork would have to
			// reconstruct actors for.
			if _, err := fig9Insitu(w, n, i, p.MultiEnclave, p.Recurring, bar, p.PrefixIters, 0, true); err != nil {
				return err
			}
			nodes[i] = n
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &fig9Phased{phasedWorld: pw, nodes: nodes, p: p}, nil
}

// runSuffix attaches the tail workload at the cut and runs the world to
// completion, returning the cell's outcome.
func (ph *fig9Phased) runSuffix(tail fig9Tail) (fig9Outcome, error) {
	bar := cluster.NewAllreduce(len(ph.nodes), fig9AllreduceNs)
	gets := make([]func() *insitu.Result, len(ph.nodes))
	for i, n := range ph.nodes {
		get, err := fig9Insitu(ph.w, n, i, ph.p.MultiEnclave, tail.Recurring, bar, tail.Iters, ph.cut, false)
		if err != nil {
			return fig9Outcome{}, err
		}
		gets[i] = get
	}
	if err := ph.w.Run(); err != nil {
		return fig9Outcome{}, err
	}
	out := fig9Outcome{Digest: ph.tr.Digest()}
	for _, get := range gets {
		r := get()
		if t := int64(r.SimTime); t > out.SimTimeNs {
			out.SimTimeNs = t
		}
		out.Points += r.Points
	}
	return out, nil
}

// snapshotPhase is the snapshot side of a warm-fork driver: build a world
// for recipe name+"-prefix" with a digest-only tracer, let prefix build
// the substrate and spawn the warm-up actors, run them to quiescence
// (RunPhase is the fork primitive), and drain the daemon
// dispatches queued at that instant so the cut is a pure function of the
// prefix (forkPhase drains the same way on its side).
func snapshotPhase(name, label string, seed uint64, params any, prefix func(*sim.World) error) (phasedWorld, error) {
	w := sim.NewWorld(seed)
	blob, err := json.Marshal(params)
	if err != nil {
		return phasedWorld{}, err
	}
	w.SetRecipe(name+"-prefix", blob)
	tr := trace.NewTracer(label)
	tr.SetKeepEvents(false)
	w.SetObserver(tr)
	if err := prefix(w); err != nil {
		return phasedWorld{}, err
	}
	if err := w.RunPhase(); err != nil {
		return phasedWorld{}, err
	}
	if err := w.DrainDaemons(); err != nil {
		return phasedWorld{}, err
	}
	return phasedWorld{w: w, tr: tr, cut: w.Now()}, nil
}

// forkPhase is the fork side of a warm-fork driver. After checking img's
// recipe and engine kind and decoding its params, rebuild re-runs the
// build recipe under the image's seed and spawns one stand-in per prefix
// actor, holding their scheduler ids. The stand-ins run before the tracer
// is installed, and the drain removes bootstrap residue the prefix world
// executed long before the cut. The prefix-advanced state is then
// overlaid onto the components rebuild returned and verified against the
// image, leaving the world at the image's cut, ready for the suffix.
func forkPhase[P any](img *snapshot.Image, name string, label func(P, uint64) string,
	rebuild func(*sim.World, P) ([]sectionLoader, error)) (phasedWorld, P, error) {
	var p P
	if img.Recipe != name+"-prefix" {
		return phasedWorld{}, p, fmt.Errorf("%s fork: image recipe is %q", name, img.Recipe)
	}
	if img.Kind != "serial" {
		return phasedWorld{}, p, fmt.Errorf("%s fork: phase boundaries are a serial-engine construct, image is %q", name, img.Kind)
	}
	if err := json.Unmarshal(img.Params, &p); err != nil {
		return phasedWorld{}, p, fmt.Errorf("%s fork: params: %w", name, err)
	}
	w := sim.NewWorld(img.Seed)
	comps, err := rebuild(w, p)
	if err != nil {
		return phasedWorld{}, p, err
	}
	if err := w.RunPhase(); err != nil {
		return phasedWorld{}, p, err
	}
	if err := w.DrainDaemons(); err != nil {
		return phasedWorld{}, p, err
	}
	tr := trace.NewTracer(label(p, img.Seed))
	tr.SetKeepEvents(false)
	w.SetObserver(tr)
	if err := overlaySections(w, tr, img, comps); err != nil {
		return phasedWorld{}, p, fmt.Errorf("%s fork: %w", name, err)
	}
	if err := verifyFork(w, img); err != nil {
		return phasedWorld{}, p, fmt.Errorf("%s fork: %w", name, err)
	}
	return phasedWorld{w: w, tr: tr, cut: sim.Time(img.CutNs)}, p, nil
}

// sectionLoader pairs a component snapshot section name with the
// restore/overlay routine of the rebuilt component that owns it.
type sectionLoader struct {
	name string
	load func(*snapshot.Dec) error
}

// loaders returns this node's component loaders in the order the
// components registered their snapshot sections during construction —
// the order their sections appear in the image. overlaySections matches
// them positionally and rejects any drift by name.
func (n *fig9Node) loaders() []sectionLoader {
	pm := n.node.Phys()
	ls := []sectionLoader{
		{"phys/" + pm.Name(), pm.LoadSnapshot},
		{"os/" + n.oses[0].Name(), n.oses[0].LoadSnapshotOverlay},
		{"mod/" + n.mods[0].Name(), n.mods[0].LoadSnapshotOverlay},
	}
	if len(n.mods) > 1 {
		ls = append(ls,
			sectionLoader{"mod/" + n.mods[1].Name(), n.mods[1].LoadSnapshotOverlay},
			sectionLoader{"os/" + n.oses[1].Name(), n.oses[1].LoadSnapshotOverlay},
			sectionLoader{"mod/" + n.mods[2].Name(), n.mods[2].LoadSnapshotOverlay},
		)
	}
	return ls
}

// overlaySections walks the image's sections in order, dispatching each
// to its owner: the engine scalars and tracer watermark to the world and
// tracer, component sections positionally to comps. The actor section
// is skipped — the stand-ins already hold the prefix actors' scheduler
// slots — and the mailbox section must be the empty table this engine
// writes.
func overlaySections(w *sim.World, tr *trace.Tracer, img *snapshot.Image, comps []sectionLoader) error {
	ci := 0
	for _, s := range img.Sections {
		switch s.Name {
		case "sim/world":
			if err := w.LoadWorldOverlay(s.Data); err != nil {
				return fmt.Errorf("sim/world: %w", err)
			}
		case "sim/actors":
			// Stand-ins take the ids; prefix actors' final state is moot.
		case "sim/mailboxes":
			if d := snapshot.NewDec(s.Data); d.U64() != 0 || d.Err() != nil {
				return fmt.Errorf("%w: image carries mailbox state this engine cannot restore", snapshot.ErrCorrupt)
			}
		case "obs/watermark":
			if err := tr.RestoreWatermark(s.Data); err != nil {
				return fmt.Errorf("obs/watermark: %w", err)
			}
		default:
			if ci >= len(comps) || comps[ci].name != s.Name {
				have := "nothing"
				if ci < len(comps) {
					have = fmt.Sprintf("%q", comps[ci].name)
				}
				return fmt.Errorf("%w: image section %q where the rebuilt world registered %s",
					snapshot.ErrCorrupt, s.Name, have)
			}
			if err := comps[ci].load(snapshot.NewDec(s.Data)); err != nil {
				return fmt.Errorf("%s: %w", s.Name, err)
			}
			ci++
		}
	}
	if ci != len(comps) {
		return fmt.Errorf("%w: image has %d component sections, rebuilt world registered %d",
			snapshot.ErrCorrupt, ci, len(comps))
	}
	return nil
}

// forkVerifySkip reports whether a section is excluded from the fork's
// re-encode verification: the engine sections (stand-in actors have
// their own names, clocks, and — for the world scalars — a boot-time
// clock) and the OS sections, whose trailing core-scheduler statistics
// accumulate per executed dispatch and are observability, not behavior
// (their address-space state IS overlaid and its cursor checked by the
// suffix's placement determinism).
func forkVerifySkip(name string) bool {
	switch name {
	case "sim/world", "sim/actors", "sim/mailboxes":
		return true
	}
	return strings.HasPrefix(name, "os/")
}

// verifyFork re-encodes the forked world and byte-compares every
// verifiable section against the image: the physical memory, every
// enclave module (segments, permits, name server, router, counters),
// and the restored tracer watermark must be indistinguishable from the
// snapshotted world's. This is the restore-side half of the snapshot
// determinism contract — canonical encodings make divergence a byte
// inequality instead of a heisenbug three phases later.
func verifyFork(w *sim.World, img *snapshot.Image) error {
	re := w.SnapshotImage()
	if len(re.Sections) != len(img.Sections) {
		return fmt.Errorf("%w: fork re-encoded %d sections, image has %d",
			snapshot.ErrCorrupt, len(re.Sections), len(img.Sections))
	}
	for i := range img.Sections {
		a, b := &img.Sections[i], &re.Sections[i]
		if a.Name != b.Name {
			return fmt.Errorf("%w: section %d is %q in the image, %q re-encoded",
				snapshot.ErrCorrupt, i, a.Name, b.Name)
		}
		if forkVerifySkip(a.Name) {
			continue
		}
		if !bytes.Equal(a.Data, b.Data) {
			return fmt.Errorf("%w: forked world diverges from the image in section %q",
				snapshot.ErrCorrupt, a.Name)
		}
	}
	return nil
}

// fig9Fork reconstructs a phased Figure 9 world from a snapshot image
// (see forkPhase). The returned world is ready for runSuffix.
func fig9Fork(img *snapshot.Image) (*fig9Phased, error) {
	var nodes []*fig9Node
	pw, p, err := forkPhase(img, "fig9", fig9PhasedLabel, func(w *sim.World, p fig9PrefixParams) ([]sectionLoader, error) {
		costs := sim.DefaultCosts()
		nodes = make([]*fig9Node, p.Nodes)
		var comps []sectionLoader
		for i := range nodes {
			n, err := fig9BuildNode(w, costs, i, img.Seed, p.MultiEnclave)
			if err != nil {
				return nil, err
			}
			nodes[i] = n
			comps = append(comps, n.loaders()...)
			// Stand-ins in the prefix pair's spawn slots. The sim stand-in
			// waits for the node's enclaves to bootstrap — kernel daemons
			// only advance while a non-daemon is runnable, and the fork
			// needs the same registered identities and learned routes the
			// prefix world had before the overlay can verify against them.
			w.Spawn(n.simSide.Mod.Name()+"/sim", func(a *sim.Actor) {
				for _, m := range n.mods {
					m.WaitReady(a)
				}
			})
			w.Spawn(n.anSide.Mod.Name()+"/analytics", func(a *sim.Actor) {})
		}
		return comps, nil
	})
	if err != nil {
		return nil, err
	}
	return &fig9Phased{phasedWorld: pw, nodes: nodes, p: p}, nil
}
