package experiments

import (
	"fmt"
	"strings"

	"xemem/internal/sim"
	"xemem/internal/sim/trace"
)

// Fig6Explanation decomposes the Figure 6 1→2 enclave throughput dip
// into the contention metrics the tracer exports. All times are per
// attachment (totals divided by enclaves·reps), so ObservedDeltaNs —
// the growth in mean attachment latency when a second enclave starts
// attaching concurrently — can be compared directly against
// ExplainedDeltaNs, the growth of the three contention components:
//
//   - Coherence: the mm-coherence counter, the per-page cache-line
//     coherence traffic Linux pays on its shared memory-map structures
//     once a second mapper is active (§5.3). Zero with one enclave.
//   - InboxWait: residency of XEMEM command messages in the Linux
//     kernel module's inbox — the core-0 IPI funnel serialization;
//     with one enclave a message is always handled immediately.
//   - Core0Wait: queueing for the core-0 execution resource itself
//     (IPI handlers and serve work colliding with other core-0 duty).
type Fig6Explanation struct {
	SizeMB int
	Reps   int

	// Mean per-attachment latency at 1 and 2 enclaves.
	Attach1Ns sim.Time
	Attach2Ns sim.Time
	// ObservedDeltaNs = Attach2Ns - Attach1Ns: the dip being explained.
	ObservedDeltaNs sim.Time

	// Per-attachment contention components at 1 and 2 enclaves.
	Coherence1Ns, Coherence2Ns sim.Time
	InboxWait1Ns, InboxWait2Ns sim.Time
	Core0Wait1Ns, Core0Wait2Ns sim.Time

	// ExplainedDeltaNs is the growth of the summed components.
	ExplainedDeltaNs sim.Time
}

// Coverage reports what fraction of the observed latency growth the
// exported contention metrics account for (1.0 = fully explained).
func (e *Fig6Explanation) Coverage() float64 {
	if e.ObservedDeltaNs == 0 {
		return 0
	}
	return float64(e.ExplainedDeltaNs) / float64(e.ObservedDeltaNs)
}

// Fig6Explain reruns the Figure 6 szMB point at 1 and 2 enclaves with a
// metrics-only tracer attached and decomposes the latency dip. The
// tracers are threaded per world, so it leaves the package Observe hook
// alone and adds nothing to a trace set installed there.
func Fig6Explain(seed uint64, szMB, reps int) (*Fig6Explanation, error) {
	run := func(enclaves int) (sim.Time, *trace.Tracer, error) {
		tr := trace.NewTracer(fmt.Sprintf("fig6/enclaves=%d/size=%dMB", enclaves, szMB))
		tr.SetKeepEvents(false)
		obs := func(label string, w *sim.World) { w.SetObserver(tr) }
		_, meanAttach, _, err := fig6Point(obs, seed, enclaves, szMB, reps)
		if err != nil {
			return 0, nil, err
		}
		return meanAttach, tr, nil
	}

	attach1, tr1, err := run(1)
	if err != nil {
		return nil, err
	}
	attach2, tr2, err := run(2)
	if err != nil {
		return nil, err
	}

	per := func(tr *trace.Tracer, enclaves int) (coh, inbox, core0 sim.Time) {
		n := sim.Time(enclaves * reps)
		coh = tr.Counter("mm-coherence") / n
		inbox = tr.Queue("inbox:node0/linux").WaitTime / n
		core0 = tr.Resource("node0/linux/core0").Wait / n
		return
	}

	e := &Fig6Explanation{
		SizeMB:          szMB,
		Reps:            reps,
		Attach1Ns:       attach1,
		Attach2Ns:       attach2,
		ObservedDeltaNs: attach2 - attach1,
	}
	e.Coherence1Ns, e.InboxWait1Ns, e.Core0Wait1Ns = per(tr1, 1)
	e.Coherence2Ns, e.InboxWait2Ns, e.Core0Wait2Ns = per(tr2, 2)
	e.ExplainedDeltaNs = (e.Coherence2Ns + e.InboxWait2Ns + e.Core0Wait2Ns) -
		(e.Coherence1Ns + e.InboxWait1Ns + e.Core0Wait1Ns)
	return e, nil
}

// String renders the decomposition as a small table.
func (e *Fig6Explanation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 6 dip decomposition: %d MB attachments, %d reps (per-attachment means)\n", e.SizeMB, e.Reps)
	fmt.Fprintf(&b, "%-24s %14s %14s %14s\n", "Component", "1 enclave", "2 enclaves", "delta")
	row := func(name string, a, b2 sim.Time) string {
		return fmt.Sprintf("%-24s %14s %14s %14s\n", name, a, b2, b2-a)
	}
	b.WriteString(row("attachment latency", e.Attach1Ns, e.Attach2Ns))
	b.WriteString(row("  mm coherence", e.Coherence1Ns, e.Coherence2Ns))
	b.WriteString(row("  inbox (IPI funnel)", e.InboxWait1Ns, e.InboxWait2Ns))
	b.WriteString(row("  core-0 queueing", e.Core0Wait1Ns, e.Core0Wait2Ns))
	fmt.Fprintf(&b, "explained: %s of %s (%.1f%%)\n",
		e.ExplainedDeltaNs, e.ObservedDeltaNs, 100*e.Coverage())
	return b.String()
}
