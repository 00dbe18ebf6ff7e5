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
	// partID is the actor's partition label (see World.SpawnIn); part is
	// the live partition object while the parallel engine is running, nil
	// otherwise.
	partID int
	part   *partition
	// mseq numbers the actor's mailbox sends, making (delivery, sender,
	// mseq) a total order on messages.
	mseq uint64
	// dirty marks a clock moved by an elided advance (run-to-completion
	// batching, see World.SetBatchedAdvances) that has not yet been
	// committed by a scheduler yield.
	dirty bool
	// wakeEK is the effective position of the actor's current enqueue in
	// the serial dispatch order (parallel engine only). It differs from
	// the plain (now, id) scheduler key only when the enqueue was created
	// at the creator's own timestamp — an Unblock or Spawn at time t made
	// during a dispatch positioned at (t, bigger id) trails that dispatch
	// in serial order even though its own key sorts earlier. Mailbox
	// wakes never inherit: delivery latencies are strictly positive, so
	// the wake key strictly dominates every sender position.
	wakeEK evKey
	// stretch counts the actor's dispatches under the parallel engine.
	// Together with madeBy/madeSeq it identifies events created by a
	// specific dispatch — the drain phase must block exactly the events
	// the final non-daemon completion dispatch created (see
	// daemonBlocked). Every creation primitive settles first, so a
	// stretch spans one serial dispatch even under advance batching.
	stretch uint64
	// madeBy/madeSeq record the creating dispatch of the actor's current
	// enqueue: the actor (nil after the enqueue is dispatched or when
	// self-scheduled) and its stretch counter at creation time.
	madeBy  *Actor
	madeSeq uint64
}

// posKey is the actor's current effective serial position: every event
// it creates from here dispatches after this key in the serial order.
func (a *Actor) posKey() evKey {
	k := evKey{t: a.now, id: a.id}
	if k.less(a.wakeEK) {
		k = a.wakeEK
	}
	return k
}

// run is the goroutine body wrapping the user function.
func (a *Actor) run(fn func(*Actor)) {
	<-a.resume // wait for first dispatch
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(errKilled); ok {
				if p := a.part; p != nil {
					p.yield <- a
				} else {
					a.w.yield <- a
				}
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
	if p := a.part; p != nil {
		// Elided advances never dispatched, so the partition clock may lag
		// the final clock the serial engine would have dispatched at.
		if a.now > p.now {
			p.now = a.now
		}
		if !a.daemon {
			p.live--
			// In serial (and under batching, which preserves a.now while
			// eliding yields) the final dispatch of a completing actor is
			// at (a.now, a.id): this partition's candidate for the global
			// termination cut-off K_done (see drainParallel). Record the
			// dispatch identity too — the drain must block exactly the
			// events the winning dispatch created.
			if k := (evKey{t: a.now, id: a.id}); p.lastND.less(k) {
				p.lastND = k
				p.lastNDActor = a
				p.lastNDStretch = a.stretch
			}
		}
		// Parallel engine: hand control onward within the partition.
		p.dispatchFrom(a)
		return
	}
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
	a.dirty = false
	if p := a.part; p != nil {
		if !p.dispatchFrom(a) {
			<-a.resume
		}
	} else if !a.w.dispatchFrom(a) {
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
	a.Settle() // the live counter feeds the termination check
	if !a.daemon {
		a.daemon = true
		if p := a.part; p != nil {
			p.live--
		} else {
			a.w.liveNonDaemons--
		}
	}
}

// Partition reports the actor's partition label (see World.SpawnIn).
func (a *Actor) Partition() int { return a.partID }

// RNG returns the actor's private deterministic random stream, creating
// it on first use. In single-partition worlds the stream comes from the
// world's creation-order counter (the legacy derivation every golden
// digest was produced with). Multi-partition worlds derive the seed from
// the actor id instead: first-use order differs across partition
// interleavings, but the id does not — and windows running concurrently
// could not share the counter anyway. See World.SetStableActorRNG for
// opting single-partition builds into the id derivation.
func (a *Actor) RNG() *RNG {
	if a.rng == nil {
		if a.w.nparts > 1 || a.w.stableRNG {
			a.rng = NewRNG(a.w.seed ^ (uint64(a.id)+1)*0x9e3779b97f4a7c15 ^ 0x5bf0363508b19383)
		} else {
			a.Settle() // the creation-order counter is shared state
			a.rng = a.w.NewRNG()
		}
	}
	return a.rng
}

// elides reports whether the actor's pure advances may skip the
// scheduler yield (run-to-completion batching): the world opted in via
// SetBatchedAdvances, the parallel engine is running, the actor is not a
// daemon (daemons must dispatch every advance so the termination cut-off
// stays serial-exact), and nothing is observing the dispatch stream.
func (a *Actor) elides() bool {
	w := a.w
	return a.part != nil && w.batchAdvances && !a.daemon && w.obs == nil && w.Trace == nil
}

// Settle commits any advances elided by run-to-completion batching: the
// actor yields until every other actor below its clock has run, exactly
// as the serial engine would have done at each elided advance. It is a
// no-op on the serial engine and whenever batching is off. Substrate
// code that touches state shared with other actors outside the engine's
// own primitives (resources, mailboxes, Unblock, Spawn) must call it
// first; the engine primitives settle internally.
func (a *Actor) Settle() {
	if a.dirty {
		a.pause()
	}
}

// advanceSync is Advance minus batching: waits whose continuation
// depends on other actors' state (resource re-check loops, mailbox
// parks) must always yield, even in batched worlds.
func (a *Actor) advanceSync(d Time) {
	a.now += d
	a.pause()
}

// Advance charges d of virtual time to the actor and yields to the
// scheduler so that other actors with earlier clocks may run. d must be
// non-negative; Advance(0) is a pure yield. In worlds that opted into
// run-to-completion batching (SetBatchedAdvances) the yield may be
// elided until the actor next interacts with shared state.
func (a *Actor) Advance(d Time) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative advance %d by %s", d, a.name))
	}
	a.now += d
	if a.elides() {
		a.dirty = true
		return
	}
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
	if a.elides() {
		a.dirty = true
		return
	}
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
// signal-style wakeups race benignly with polling. Under the parallel
// engine Unblock is a partition-local primitive: waking an actor in
// another partition would mutate that partition's heap mid-window, so it
// panics — cross-partition interaction must go through a Mailbox.
func (a *Actor) Unblock(b *Actor) {
	a.Settle()
	if a.part != nil && b.partID != a.partID {
		panic(fmt.Sprintf("sim: cross-partition Unblock of %s (partition %d) by %s (partition %d); use a Mailbox",
			b.name, b.partID, a.name, a.partID))
	}
	if b.state != blocked {
		return
	}
	b.state = ready
	b.blockReason = ""
	if b.now < a.now {
		b.now = a.now
	}
	// The wake is created by a's current dispatch: in serial order it
	// trails a's position even when the wake key — id tie-break included
	// — sorts earlier (same-timestamp wake of a smaller-id actor).
	if pk := a.posKey(); b.wakeEK.less(pk) {
		b.wakeEK = pk
	}
	b.madeBy, b.madeSeq = a, a.stretch
	a.w.heapPush(b)
}

// Poll repeatedly evaluates cond, advancing by interval between checks,
// until cond is true. It models the polling-on-shared-memory signalling
// that the paper's composed workloads use (§6.1). It returns the number of
// polls performed.
func (a *Actor) Poll(interval Time, cond func() bool) int {
	n := 0
	for {
		a.Settle() // cond typically reads state other actors write
		if cond() {
			return n
		}
		a.Advance(interval)
		n++
	}
}

// Spawn creates a child actor starting at the caller's current time. The
// child inherits the caller's partition.
func (a *Actor) Spawn(name string, fn func(*Actor)) *Actor {
	a.Settle()
	child := a.w.SpawnIn(a.partID, name, fn)
	child.now = a.now
	child.wakeEK = a.posKey() // same-timestamp creation: trails a's dispatch
	child.madeBy, child.madeSeq = a, a.stretch
	a.w.heapFix(child)
	return child
}
