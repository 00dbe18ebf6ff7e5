package sim

// Injector is the fault-injection hook set the simulation engine consults
// at its delivery and service boundaries. It is the mechanism behind
// internal/fault: the engine stays policy-free (it only asks), and the
// fault plan stays engine-free (it only answers).
//
// Implementations must be deterministic functions of the simulated state
// they observe (virtual time, their own seeded RNG streams): the engine
// guarantees the call sequence is identical run to run for a given seed,
// so a deterministic injector yields bit-identical fault schedules.
//
// A nil injector (the default) is the zero-fault world: every hook site
// short-circuits on a nil check, so simulations without an injector are
// bit-identical to builds that predate it.
type Injector interface {
	// DeliveryFault is consulted once per message delivery into a
	// receive queue (xproto.Inbox.Put), before the delivery is enqueued.
	// Returning drop discards the message (the sender is not told — lost
	// IPIs look exactly like this); a positive delay charges the sending
	// actor that much extra wire time first, modelling a stalled or
	// retried interrupt.
	DeliveryFault() (drop bool, delay Time)

	// NameServerDown reports whether the name server is inside an
	// injected outage window at virtual time t. Protocol code consults it
	// before serving name-server requests.
	NameServerDown(t Time) bool
}

// SetInjector installs (or, with nil, removes) the world's fault
// injector. Install it before the faulted traffic starts; the engine
// consults it on every delivery from then on.
func (w *World) SetInjector(i Injector) { w.inj = i }

// Injector reports the installed fault injector, nil when none.
func (w *World) Injector() Injector { return w.inj }

// PollDeadline repeatedly evaluates cond, advancing the actor by interval
// between checks, until cond is true or the actor's clock reaches
// deadline. It reports whether cond became true — false means the
// deadline passed first. It is the virtual-time timeout primitive: a
// requester that must not block forever on a lost response polls its
// completion flag with a deadline and turns the miss into a typed
// timeout error.
//
// The wait is busy in virtual time (the paper's workloads signal by
// polling shared memory, §6.1); the final step is truncated so the actor
// lands exactly on deadline rather than overshooting. A Forever deadline
// polls until cond holds, every step exactly interval.
//
// Between checks the wait is parked on the actor, and the scheduler takes
// each tick itself (World.next): it evaluates cond when it pops the
// actor and, while cond is false, steps the actor forward without
// resuming its coroutine. Every tick is still one dispatch at the same
// virtual time as a resumed check, so schedules are unchanged. The price
// is the condition contract: cond runs on whatever stack popped the
// poller, so it may only read state. A condition that charges time,
// sends a message, wakes or spawns an actor panics, at its first
// evaluation; such a wait belongs in Retry.
func (a *Actor) PollDeadline(interval, deadline Time, cond func() bool) bool {
	for !a.w.holds(a, cond) {
		if a.now >= deadline {
			return false
		}
		a.poll, a.pollEvery, a.pollUntil = cond, interval, deadline
		a.Advance(a.pollStep())
		a.poll = nil
		if a.pollHit {
			a.pollHit = false
			return true
		}
	}
	return true
}

// pollStep is the parked wait's next advance: interval, truncated onto
// the deadline.
func (a *Actor) pollStep() Time { return min(a.pollEvery, a.pollUntil-a.now) }

// Retry calls try every interval until it reports success or the actor's
// clock reaches deadline, reporting which, with PollDeadline's steps.
// Unlike a poll condition, try runs in the actor's own coroutine, so it
// may act: charge time, or send a request and wait for its reply, as a
// name-server Lookup does. Each attempt resumes the actor, so a wait
// that only reads state belongs in PollDeadline.
func (a *Actor) Retry(interval, deadline Time, try func() bool) bool {
	for !try() {
		if a.now >= deadline {
			return false
		}
		a.Advance(min(interval, deadline-a.now))
	}
	return true
}

// Await waits until cond holds or the actor's clock reaches deadline,
// reporting which: false means the deadline passed first. A bounded wait
// polls cond every interval, exactly as PollDeadline. An unbounded one —
// deadline Forever — blocks instead: the actor charges no poll quantum
// and wakes only when another actor Unblocks it after making cond true,
// so it cannot fail. reason names the wait in deadlock reports.
//
// Every cross-enclave request waits here: the zero-fault world, where
// nothing is ever lost, waits Forever; a fault-injected one bounds each
// attempt.
func (a *Actor) Await(reason string, interval, deadline Time, cond func() bool) bool {
	if deadline == Forever {
		for !cond() {
			a.Block(reason)
		}
		return true
	}
	return a.PollDeadline(interval, deadline, cond)
}

// Deadline returns the absolute time timeout from the actor's clock; a
// Forever timeout stays Forever.
func (a *Actor) Deadline(timeout Time) Time {
	if timeout >= Forever-a.now {
		return Forever
	}
	return a.now + timeout
}
