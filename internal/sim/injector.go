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
	// DeliveryFault is consulted once per message delivery into a named
	// receive queue (xproto.Inbox.Put), before the delivery is enqueued.
	// Returning drop discards the message (the sender is not told — lost
	// IPIs look exactly like this); a positive delay charges the sending
	// actor that much extra wire time first, modelling a stalled or
	// retried interrupt. bytes is the message's modelled wire size.
	DeliveryFault(queue string, a *Actor, bytes int) (drop bool, delay Time)

	// ServiceDown reports whether the named service ("nameserver") is
	// inside an injected outage window at virtual time t. Protocol code
	// consults it before serving requests on behalf of that service.
	ServiceDown(service string, t Time) bool
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
func (a *Actor) PollDeadline(interval, deadline Time, cond func() bool) bool {
	for {
		if cond() {
			return true
		}
		if a.now >= deadline {
			return false
		}
		step := interval
		if rem := deadline - a.now; rem < step {
			step = rem
		}
		a.Advance(step)
	}
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
