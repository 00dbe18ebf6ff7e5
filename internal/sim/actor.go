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
	resume      chan struct{}
	rng         *RNG
	// heapIdx is the actor's slot in the owning ready-queue heap, or -1
	// when the actor is not enqueued (running, blocked, or finished).
	heapIdx int
}

// run is the goroutine body wrapping the user function.
func (a *Actor) run(fn func(*Actor)) {
	<-a.resume // wait for first dispatch
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(errKilled); ok {
				a.w.yield <- a
				return
			}
			panic(r) // real panic: propagate (crashes the test, as it should)
		}
	}()
	if a.state == killed {
		panic(errKilled{})
	}
	fn(a)
	a.state = done
	if !a.daemon {
		a.w.liveNonDaemons--
	}
	// Hand control onward directly; this goroutine then exits.
	// A done actor is never re-enqueued, so dispatchFrom cannot pick it.
	a.w.dispatchFrom(a)
}

// pause hands control onward and waits to be dispatched again: it
// dispatches the next actor directly, or keeps running when this actor is
// still the minimum.
func (a *Actor) pause() {
	if !a.w.dispatchFrom(a) {
		<-a.resume
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

// Sleep is a readability alias for Advance.
func (a *Actor) Sleep(d Time) { a.Advance(d) }

// AdvanceN charges n repetitions of a d-cost operation as one advance of
// d*n, yielding to the scheduler once instead of n times. It is the
// batched cost-charging primitive for per-page work: because the actor
// performs no externally visible action between the individual unit
// advances, collapsing them into a single advance leaves every actor's
// timestamps — and therefore the whole simulated schedule's outcomes —
// unchanged, while the host does O(1) work instead of O(n).
func (a *Actor) AdvanceN(d Time, n uint64) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative advance %d by %s", d, a.name))
	}
	a.now += d * Time(n)
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

// Poll repeatedly evaluates cond, advancing by interval between checks,
// until cond is true. It models the polling-on-shared-memory signalling
// that the paper's composed workloads use (§6.1). It returns the number of
// polls performed.
func (a *Actor) Poll(interval Time, cond func() bool) int {
	n := 0
	for {
		if cond() {
			return n
		}
		a.Advance(interval)
		n++
	}
}

// Spawn creates a child actor starting at the caller's current time.
func (a *Actor) Spawn(name string, fn func(*Actor)) *Actor {
	return a.w.SpawnAt(name, a.now, fn)
}
