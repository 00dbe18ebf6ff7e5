package experiments

// Repro bundles: a self-contained, replayable fingerprint of one
// experiment world. A bundle pins the recipe, its parameter blob, the
// seed, the cumulative trace digest at the end of each of 16 equal
// virtual-time windows of the run, and the end-of-run digest. Replaying
// re-runs the recipe from scratch, audits the world once it has ended
// (sim.World.Audit), and compares the windows in order. A bundle that
// verifies on another machine (or another commit) is a machine-checked
// claim that the simulated behaviour reproduced exactly; one that fails
// names the first window whose events differ, its virtual-time range,
// and the spans charged inside it.

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"

	"xemem/internal/sim"
	"xemem/internal/sim/trace"
)

// bundleWindows is how many equal virtual-time windows a bundle pins.
const bundleWindows = 16

// Bundle is the repro bundle format (JSON on disk). Window k covers
// [k·WindowNs, (k+1)·WindowNs); Windows[k] is the SHA-256 of the whole
// trace digest — counts, dispatches, final time and event hash — as it
// stood on the first dispatch at or past its end (the whole run, for a
// window the run never reaches past).
type Bundle struct {
	Recipe   string          `json:"recipe"`
	Params   json.RawMessage `json:"params,omitempty"`
	Seed     uint64          `json:"seed"`
	WindowNs int64           `json:"window_ns"`
	Windows  []string        `json:"windows"`
	Digest   trace.Digest    `json:"digest"`
}

// LoadBundle reads a bundle file strictly: an unknown field, a missing
// recipe or an empty window list is an error, so a file in an older
// format cannot verify only part of what it pins.
func LoadBundle(path string) (*Bundle, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(buf))
	dec.DisallowUnknownFields()
	var b Bundle
	if err := dec.Decode(&b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	switch {
	case b.Recipe == "":
		return nil, fmt.Errorf("%s: bundle names no recipe", path)
	case len(b.Windows) == 0 || b.WindowNs <= 0:
		return nil, fmt.Errorf("%s: bundle pins no windows", path)
	}
	return &b, nil
}

// windowTracer is the probe's observer: the tracer, plus a hash of the
// cumulative digest taken on the first dispatch at or past each window
// end, so a drift in dispatches or poll ticks alone shows up in the
// window where it happens. The
// tracer itself is untouched; when it keeps events, marks[k] is how many
// it held when window k closed.
type windowTracer struct {
	*trace.Tracer
	ends  []sim.Time
	sums  []string
	marks []int
}

// Dispatch implements sim.Observer: it closes every window ending at or
// before t, then forwards the dispatch.
func (o *windowTracer) Dispatch(a *sim.Actor, t sim.Time) {
	for len(o.sums) < len(o.ends) && t >= o.ends[len(o.sums)] {
		o.close()
	}
	o.Tracer.Dispatch(a, t)
}

// Unwrap returns the tracer, for code that reads a world's tracer off
// its observer (cellTracer).
func (o *windowTracer) Unwrap() *trace.Tracer { return o.Tracer }

func (o *windowTracer) close() {
	d, _ := json.Marshal(o.Digest()) // a struct of strings and ints: cannot fail
	o.sums = append(o.sums, fmt.Sprintf("%x", sha256.Sum256(d)))
	o.marks = append(o.marks, len(o.Events()))
}

// windowEnds is the end of each of n windows of width ns.
func windowEnds(n int, ns int64) []sim.Time {
	ends := make([]sim.Time, n)
	for k := range ends {
		ends[k] = sim.Time(int64(k+1) * ns)
	}
	return ends
}

// probe is one observed recipe run: its world and its windowed tracer.
type probe struct {
	worlds int
	w      *sim.World
	tr     *windowTracer
}

// runRecipe executes a registered recipe with a windowed tracer on its
// world (closing windows at ends; keep retains raw events) and returns
// the probe once the world has ended.
func runRecipe(name string, params json.RawMessage, seed uint64, ends []sim.Time, keep bool) (*probe, error) {
	fn, ok := recipes[name]
	if !ok {
		return nil, fmt.Errorf("unknown recipe %q (have: %s)", name, RecipeNames())
	}
	p := &probe{}
	hook := func(label string, w *sim.World) {
		p.worlds++
		if p.worlds > 1 {
			return // rejected below, after the run
		}
		tr := trace.NewTracer(label)
		tr.SetKeepEvents(keep)
		p.w, p.tr = w, &windowTracer{Tracer: tr, ends: ends}
		w.SetObserver(p.tr)
	}
	if err := fn(params, seed, hook); err != nil {
		return nil, fmt.Errorf("recipe %s: %w", name, err)
	}
	if p.worlds != 1 {
		return nil, fmt.Errorf("recipe %s announced %d worlds; bundles need exactly one", name, p.worlds)
	}
	for len(p.tr.sums) < len(ends) {
		p.tr.close() // a window the run ended before reaching
	}
	return p, nil
}

// CaptureBundle runs a recipe twice and packages the result: the first
// run measures the virtual duration, the second records the digest at
// the end of each of its 16 windows and audits the ended world. The two
// runs must produce the same digest — a recipe that fails that is not
// deterministic and cannot be bundled.
func CaptureBundle(recipe string, params json.RawMessage, seed uint64) (*Bundle, error) {
	ref, err := runRecipe(recipe, params, seed, nil, false)
	if err != nil {
		return nil, err
	}
	d := ref.tr.Digest()
	width := max(d.FinalNs/bundleWindows, 1)
	run, err := runRecipe(recipe, params, seed, windowEnds(bundleWindows, width), false)
	if err != nil {
		return nil, err
	}
	if rd := run.tr.Digest(); rd != d {
		return nil, fmt.Errorf("recipe %s is not deterministic: digest %s vs %s across identical runs",
			recipe, d.SHA256, rd.SHA256)
	}
	if err := run.w.Audit(); err != nil {
		return nil, fmt.Errorf("recipe %s: %w", recipe, err)
	}
	return &Bundle{
		Recipe: recipe, Params: params, Seed: seed,
		WindowNs: width, Windows: run.tr.sums, Digest: d,
	}, nil
}

// RunBundle replays a bundle: re-run its recipe, compare each window's
// digest in order and then the end-of-run digest, and audit the ended
// world. nil means the run reproduced the bundled behaviour bit-exactly
// and left its state consistent. The first window that differs is
// named with its time range and the spans charged in it, which a second
// run with events kept recovers.
func RunBundle(b *Bundle) error {
	ends := windowEnds(len(b.Windows), b.WindowNs)
	p, err := runRecipe(b.Recipe, b.Params, b.Seed, ends, false)
	if err != nil {
		return err
	}
	for k, want := range b.Windows {
		if got := p.tr.sums[k]; got != want {
			spans, err := windowSpans(b, ends, k)
			if err != nil {
				return err
			}
			return fmt.Errorf("recipe %s: window %d of %d [%v, %v) digests %.16s…, bundle pinned %.16s… — behaviour first diverged there; spans in it: %s",
				b.Recipe, k, len(ends), ends[k]-sim.Time(b.WindowNs), ends[k], got, want, spans)
		}
	}
	if d := p.tr.Digest(); d != b.Digest {
		return fmt.Errorf("recipe %s: trace digest %+v, bundle pinned %+v — behaviour diverged after the last window, past %v",
			b.Recipe, d, b.Digest, sim.Time(int64(len(ends))*b.WindowNs))
	}
	if err := p.w.Audit(); err != nil {
		return fmt.Errorf("recipe %s: %w", b.Recipe, err)
	}
	return nil
}

// windowSpans re-runs the bundle's recipe with events kept and lists,
// sorted, the distinct span names recorded in window k.
func windowSpans(b *Bundle, ends []sim.Time, k int) (string, error) {
	p, err := runRecipe(b.Recipe, b.Params, b.Seed, ends, true)
	if err != nil {
		return "", err
	}
	from := 0
	if k > 0 {
		from = p.tr.marks[k-1]
	}
	seen := make(map[string]bool)
	var names []string
	for _, e := range p.tr.Events()[from:p.tr.marks[k]] {
		if e.Kind == trace.EvSpan && !seen[e.Op] {
			seen[e.Op] = true
			names = append(names, e.Op)
		}
	}
	if len(names) == 0 {
		return "none", nil
	}
	sort.Strings(names)
	return strings.Join(names, ", "), nil
}
