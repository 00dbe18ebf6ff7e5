package experiments

import (
	"fmt"
	"strings"

	"xemem/internal/sim"
	"xemem/internal/sim/trace"
)

// Observe is the observer Fig9Run and Table2 announce their worlds to,
// as every other run takes its observer as an argument (Grid.Run). It
// exists only because the benchmark/ module's composed workload
// installs its probe here and calls those two functions; nothing else
// should set it.
var Observe func(label string, w *sim.World)

// observeFn is what a world is announced to: a label and the world,
// right after creation (trace.Set.Observe installs the label's tracer).
type observeFn = func(label string, w *sim.World)

// cellTracer returns the tracer a sweep cell's digest comes from: the
// one its observer put on the world, else a private digest-only tracer
// installed here.
func cellTracer(label string, w *sim.World) *trace.Tracer {
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
