package experiments

import (
	"fmt"
	"strings"

	"xemem/internal/sim"
	"xemem/internal/sim/trace"
)

// Observe, when non-nil, is invoked for every simulation world an
// experiment constructs, with a label identifying the configuration the
// world runs (e.g. "fig6/enclaves=2/size=1024MB"). Installing a
// sim.Observer on the world — typically trace.Set.Observe — captures
// that configuration's full event stream, and the set exports the worlds
// in run order. Leave nil for zero overhead; the simulated results are
// bit-identical either way. The hook is a package variable because
// experiments construct their worlds internally, one per configuration
// point; set it before an experiment starts and leave it alone until the
// experiment returns.
var Observe func(label string, w *sim.World)

// observeFn announces one world to whatever hook is installed; nil means
// no tracing.
type observeFn = func(label string, w *sim.World)

// announce invokes obs, falling back to the package Observe hook when
// obs is nil (the path for direct calls to per-cell run functions, e.g.
// from the golden-trace tests).
func announce(obs observeFn, label string, w *sim.World) {
	if obs == nil {
		obs = Observe
	}
	if obs != nil {
		obs(label, w)
	}
}

// cellTracer announces a sweep cell's world and returns the tracer its
// digest comes from: the one the installed hook put on the world, else a
// private digest-only tracer installed here.
func cellTracer(obs observeFn, label string, w *sim.World) *trace.Tracer {
	announce(obs, label, w)
	switch o := w.Observer().(type) {
	case *trace.Tracer:
		return o
	case interface{ Unwrap() *trace.Tracer }: // a repro probe's windowed tracer
		return o.Unwrap()
	}
	tr := trace.NewTracer(label)
	tr.SetKeepEvents(false)
	w.SetObserver(tr)
	return tr
}

// Breakdown renders, per traced configuration, where simulated time went:
// the top operations by charged time, every resource's busy/wait profile,
// and every receive queue's residency — the per-figure tables the
// -metrics flag prints.
func Breakdown(s *trace.Set) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Per-figure virtual-time breakdown (%d traced worlds)\n", len(s.Tracers()))
	for _, t := range s.Tracers() {
		b.WriteString(t.Summary())
	}
	return b.String()
}
