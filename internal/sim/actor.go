package sim

import "fmt"

type actorState int

const (
	ready actorState = iota
	blocked
	done
	killed
)

// errKilled is panicked through an actor's stack when the world terminates
// it (e.g. a daemon message loop at the end of a run).
type errKilled struct{}

// Actor is a simulated thread of execution with its own virtual clock. All
// Actor methods must be called from within the actor's own function; the
// sole exception is Unblock, which a *running* actor may call on another.
type Actor struct {
	id          int
	name        string
	w           *World
	now         Time
	state       actorState
	daemon      bool
	blockReason string
	rng         *RNG
	// next and yield are the two ends of the actor's coroutine (start):
	// next runs the actor until it calls yield or finishes.
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	// heapIdx is the actor's slot in the owning ready-queue heap, or -1
	// when the actor is not enqueued (running, blocked, or finished).
	heapIdx int
	// poll, pollEvery and pollUntil are a PollDeadline wait parked while
	// the actor is queued (nil poll: none), for the scheduler to take its
	// ticks (World.next); pollHit records that a tick saw poll hold.
	poll      func() bool
	pollEvery Time
	pollUntil Time
	pollHit   bool
}

// run is the coroutine body wrapping the user function. An actor killed
// before its first dispatch never starts fn. The coroutine re-raises a
// panic in World.Run's goroutine with its value only, so run wraps any
// panic but errKilled with its raiser's name and stack (World.blame).
func (a *Actor) run(fn func(*Actor)) {
	if a.state == killed {
		return
	}
	defer func() {
		if r := recover(); r != nil && r != (errKilled{}) {
			panic(a.w.blame(a, r))
		}
	}()
	fn(a)
	a.state = done
	if !a.daemon {
		a.w.liveNonDaemons--
	}
}

// pause hands control onward and waits to be dispatched again: it keeps
// running when this actor is still the minimum, and otherwise yields to
// World.resume, which runs the successor dispatchFrom picked.
func (a *Actor) pause() {
	a.w.checkPure("yield")
	if !a.w.dispatchFrom(a) {
		a.yield(struct{}{})
	}
	if a.state == killed {
		panic(errKilled{})
	}
}

// ID reports the actor's unique ID (dense, in spawn order).
func (a *Actor) ID() int { return a.id }

// Name reports the actor's name.
func (a *Actor) Name() string { return a.name }

// Now reports the actor's current virtual time.
func (a *Actor) Now() Time { return a.now }

// World reports the world the actor belongs to.
func (a *Actor) World() *World { return a.w }

// SetDaemon marks the actor as a daemon: the world's Run returns when all
// non-daemon actors finish, terminating daemons. Kernel message loops and
// noise generators are daemons.
func (a *Actor) SetDaemon() {
	if !a.daemon {
		a.daemon = true
		a.w.liveNonDaemons--
	}
}

// RNG returns the actor's private deterministic random stream, creating
// it on first use from the world's creation-order counter.
func (a *Actor) RNG() *RNG {
	if a.rng == nil {
		a.rng = a.w.NewRNG()
	}
	return a.rng
}

// Advance charges d of virtual time to the actor and yields to the
// scheduler so that other actors with earlier clocks may run. d must be
// non-negative; Advance(0) is a pure yield.
func (a *Actor) Advance(d Time) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative advance %d by %s", d, a.name))
	}
	a.now += d
	a.pause()
}

// AdvanceTo moves the actor's clock forward to t (no-op if already past).
func (a *Actor) AdvanceTo(t Time) {
	if t > a.now {
		a.Advance(t - a.now)
	} else {
		a.Advance(0)
	}
}

// Block suspends the actor until another actor calls Unblock on it. The
// reason string appears in deadlock reports.
func (a *Actor) Block(reason string) {
	a.state = blocked
	a.blockReason = reason
	a.pause()
}

// Unblock makes b runnable again, no earlier than the caller's current
// time. Calling Unblock on a non-blocked actor is a no-op, which lets
// signal-style wakeups race benignly with polling.
func (a *Actor) Unblock(b *Actor) {
	a.w.checkPure("unblock an actor")
	if b.state != blocked {
		return
	}
	b.state = ready
	b.blockReason = ""
	if b.now < a.now {
		b.now = a.now
	}
	a.w.heap.push(b)
}
