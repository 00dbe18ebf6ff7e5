package sim

// Resource models a serially-reusable piece of hardware or a kernel lock:
// only one actor's work occupies it at a time, and work is granted in
// virtual-time arrival order. It is the mechanism behind every contention
// effect in the reproduction — most prominently the Pisces restriction
// that all cross-enclave IPIs are handled on Linux core 0 (§5.3), and the
// Linux memory-map locks contended by concurrent attachers.
type Resource struct {
	name     string
	nextFree Time

	// Accumulated statistics.
	busy   Time // total occupied time
	waited Time // total queueing delay experienced by acquirers
	waits  int  // acquisitions that had to queue
	// queued counts acquirers currently waiting for the resource — the
	// instantaneous queue depth the observer sees.
	queued int
}

// NewResource returns an idle resource with the given diagnostic name.
func NewResource(name string) *Resource { return &Resource{name: name} }

// Name reports the resource's diagnostic name.
func (r *Resource) Name() string { return r.name }

// Acquire occupies the resource for d of a's virtual time, queueing first
// if the resource is busy. It returns the time at which the work actually
// started. The actor's clock ends at start+d.
func (r *Resource) Acquire(a *Actor, d Time) (start Time) {
	return r.AcquireOp(a, d, "")
}

// AcquireOp is Acquire with an operation label for the observer: traces
// attribute the occupancy (and any queueing delay) to op. The simulated
// outcome is identical to Acquire.
func (r *Resource) AcquireOp(a *Actor, d Time, op string) (start Time) {
	arrival := a.now
	depth := 0
	waitedHere := false
	// Re-check after every advance: while we were queued, a later-queued
	// actor cannot have overtaken us (the scheduler dispatches in global
	// time order), but an earlier one may have extended nextFree.
	for r.nextFree > a.now {
		if !waitedHere {
			waitedHere = true
			r.queued++
			depth = r.queued
		}
		delta := r.nextFree - a.now
		r.waited += delta
		a.Advance(delta)
	}
	if waitedHere {
		r.queued--
		r.waits++
	}
	start = a.now
	if obs := a.Observer(); obs != nil {
		obs.AcquireRes(r, a, op, arrival, start, d, depth)
	}
	r.nextFree = start + d
	r.busy += d
	a.Advance(d)
	return start
}

// BusyTime reports the total virtual time the resource has been occupied.
func (r *Resource) BusyTime() Time { return r.busy }

// WaitTime reports the total queueing delay acquirers experienced.
func (r *Resource) WaitTime() Time { return r.waited }

// ContendedAcquires reports how many acquisitions had to queue.
func (r *Resource) ContendedAcquires() int { return r.waits }

// Span records one occupancy interval of a Core, tagged with its cause.
// The noise analysis (§5.5) reconstructs the Selfish Detour profile from
// these spans.
type Span struct {
	Start Time
	Dur   Time
	Tag   string
}

// End reports the end of the span.
func (s Span) End() Time { return s.Start + s.Dur }

// Core is a CPU core: a Resource plus an optional occupancy log. All work
// an actor performs "on" a core is routed through Exec, which serializes
// actors sharing the core — this is how a single-core Kitten enclave
// exhibits detours when its kernel serves XEMEM attachments while an
// application computes.
type Core struct {
	Resource
	record bool
	log    []Span
}

// NewCore returns an idle core with the given diagnostic name.
func NewCore(name string) *Core {
	c := &Core{}
	c.Resource.name = name
	return c
}

// StartRecording begins logging occupancy spans (used by the noise
// benchmark). Recording is off by default to keep long runs cheap.
func (c *Core) StartRecording() { c.record = true; c.log = c.log[:0] }

// StopRecording stops logging and returns the spans captured so far.
func (c *Core) StopRecording() []Span {
	c.record = false
	return c.log
}

// Exec performs d of work on the core on behalf of a, queueing behind
// other occupants, and logs the span when recording. tag identifies the
// kind of work (e.g. "app", "xemem-serve", "smi").
func (c *Core) Exec(a *Actor, d Time, tag string) (start Time) {
	start = c.AcquireOp(a, d, tag)
	if c.record {
		c.log = append(c.log, Span{Start: start, Dur: d, Tag: tag})
	}
	return start
}
