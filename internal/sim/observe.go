package sim

// Observer receives the engine's observability events: every cost charge
// (Actor.Charge), every resource acquisition with its queueing
// delay and depth, every receive-queue wait, and every scheduler
// dispatch. Implementations must be pure observers — they may record
// state of their own but must never call back into actors, resources, or
// the world, and must not mutate any simulated clock. Under that
// contract an installed observer has zero effect on simulated
// timestamps: every experiment produces bit-identical results with and
// without one (the tracer-off determinism tests assert exactly this).
//
// Observer methods are invoked under the world's one-runnable-goroutine
// guarantee, so implementations need no locking, and the event order
// itself is deterministic for a given seed.
type Observer interface {
	// Span reports a cost charge: actor a performed op for dur of virtual
	// time starting at start.
	Span(a *Actor, op string, start, dur Time)

	// AcquireRes reports a resource acquisition: actor a arrived at
	// arrival, began service at start (start-arrival is the queueing
	// delay), and occupied r for dur, labelled op ("" for untagged
	// acquisitions). depth is the number of queued acquirers — including
	// this one — observed when the actor first had to wait (0 when it
	// did not wait).
	AcquireRes(r *Resource, a *Actor, op string, arrival, start, dur Time, depth int)

	// QueueWait reports one dequeue from a named receive queue: the
	// delivery was enqueued at enqueued and dequeued by actor a at
	// dequeued; depth is the queue length remaining after the dequeue.
	QueueWait(queue string, a *Actor, enqueued, dequeued Time, depth int)

	// Count attributes d of virtual time to a named cause without a span
	// of its own — used when a cost component is folded into a larger
	// charge (e.g. the per-page mm-coherence penalty inside a map span)
	// but must stay separately accountable.
	Count(name string, a *Actor, d Time)

	// Dispatch reports a scheduler dispatch of actor a at virtual time t.
	Dispatch(a *Actor, t Time)
}

// SetObserver installs (or, with nil, removes) the world's observer.
// Installing one mid-run is allowed — events simply begin at that point.
func (w *World) SetObserver(o Observer) { w.obs = o }

// Observer reports the installed observer, nil when none.
func (w *World) Observer() Observer { return w.obs }

// Observer reports the observer that receives events attributed to this
// actor's execution: its world's installed observer, nil when none.
func (a *Actor) Observer() Observer { return a.w.obs }

// Charge is Advance with an operation label: it charges d of virtual
// time to the actor exactly as Advance does, additionally reporting the
// span to the observer when one is installed. Substrate code uses it at
// every cost-charge site so traces can attribute where simulated time
// goes; with no observer it is Advance.
func (a *Actor) Charge(op string, d Time) {
	if obs := a.Observer(); obs != nil {
		obs.Span(a, op, a.now, d)
	}
	a.Advance(d)
}
