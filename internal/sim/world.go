package sim

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// resumePool recycles actor resume channels across Worlds. A channel is
// only returned to the pool after its actor's goroutine has provably
// exited (Run's teardown), so a pooled channel is always idle. This
// matters for sweeps: each of thousands of short-lived worlds would
// otherwise allocate a fresh channel per actor.
var resumePool = sync.Pool{New: func() any { return make(chan struct{}) }}

// World owns a set of actors and dispatches them in virtual-time order.
// Create one with NewWorld, add actors with Spawn (before or during Run),
// and call Run to execute the simulation to completion.
//
// Dispatch order is defined by the minimal (time, id) pair over all ready
// actors, ties broken by the lower actor id. The scheduler keeps ready
// actors in an indexed min-heap so each dispatch is O(log n); an
// in-package Observer test checks every dispatch against that rule by
// scanning the whole actor table, and the golden trace digests pin the
// resulting schedules.
//
// A World is not safe for concurrent use from multiple host goroutines;
// actors themselves never need synchronization because the scheduler
// guarantees mutual exclusion.
//
// # A World owns everything it touches
//
// Every piece of simulation state — actors, RNG streams, cores, zones,
// physical memory, inboxes, routers, nameservers, tracers — is reachable
// from exactly one World and is mutated only while that World's scheduler
// has dispatched one of its actors. Nothing in this module tree keeps
// package-level mutable state that two Worlds could share; every
// configuration knob is a method on the World or on an object it owns.
// Consequently, distinct Worlds may run concurrently on distinct host
// goroutines with no synchronization whatsoever, and a sweep of N
// independent Worlds is embarrassingly parallel while remaining
// bit-identical to running them one after another. Code added to the
// simulation must preserve this invariant: per-world state lives on the
// World (or an object created per World), never in a package variable.
type World struct {
	actors  []*Actor
	yield   chan *Actor // actors hand control back to the scheduler here
	now     Time
	running bool
	seed    uint64
	nextRNG uint64
	stopped bool

	// heap is the ready queue: an indexed min-heap on (time, id). Running,
	// blocked, and finished actors are not in it.
	heap actorHeap
	// liveNonDaemons counts non-daemon actors that have not finished, so
	// the run loop's termination check is O(1) instead of a scan.
	liveNonDaemons int

	// Trace, if non-nil, receives a line per scheduling decision. Used by
	// tests; nil in normal runs.
	Trace func(format string, args ...any)

	// obs, if non-nil, receives observability events (see Observer). It
	// never influences scheduling or clocks.
	obs Observer

	// inj, if non-nil, is the fault injector consulted at delivery and
	// service boundaries (see Injector). Unlike obs it is allowed — indeed
	// exists — to perturb timing and drop messages; nil means the
	// zero-fault world.
	inj Injector

	// Checkpoint machinery (see checkpoint.go). snapComps are the
	// registered per-component snapshot section savers; ckptT and ckptFn
	// arm a one-shot checkpoint callback fired at the engine's first
	// quiesce point at or past ckptT.
	snapComps []snapComponent
	ckptT     Time
	ckptFn    func()
}

// NewWorld returns an empty world whose RNG streams derive from seed.
func NewWorld(seed uint64) *World {
	return &World{
		yield: make(chan *Actor),
		seed:  seed,
	}
}

// Now reports the current global virtual time: the clock of the most
// recently dispatched actor.
func (w *World) Now() Time { return w.now }

// NewRNG returns a fresh deterministic RNG stream. Streams created in the
// same order across runs produce identical sequences.
func (w *World) NewRNG() *RNG {
	w.nextRNG++
	return NewRNG(w.seed ^ (w.nextRNG * 0x9e3779b97f4a7c15))
}

// Spawn creates an actor named name running fn. If called from within a
// running actor, the child starts at the caller's current time; otherwise
// it starts at time zero. Daemon actors (see Actor.SetDaemon) do not keep
// the world alive.
func (w *World) Spawn(name string, fn func(*Actor)) *Actor {
	a := &Actor{
		id:      len(w.actors),
		name:    name,
		w:       w,
		state:   ready,
		resume:  resumePool.Get().(chan struct{}),
		heapIdx: -1,
	}
	w.actors = append(w.actors, a)
	w.liveNonDaemons++
	w.heap.push(a)
	go a.run(fn)
	return a
}

// SpawnAt is Spawn with an explicit start time. It is mainly useful for
// staggering workload arrivals before Run begins.
func (w *World) SpawnAt(name string, start Time, fn func(*Actor)) *Actor {
	a := w.Spawn(name, fn)
	a.now = start
	w.heap.fix(a)
	return a
}

// ErrDeadlock is returned (wrapped) by Run when non-daemon actors remain
// blocked with no runnable actor to wake them.
var ErrDeadlock = errors.New("sim: deadlock")

// Run executes the simulation until every non-daemon actor has finished.
// Remaining daemon actors are then terminated. Run reports a deadlock if
// no actor is runnable while non-daemon actors are still blocked.
//
// Dispatch is mostly actor-to-actor: a yielding actor picks the next one
// from the ready queue and resumes it directly (or keeps running when it
// is itself the minimum), so the common case costs one goroutine handoff
// instead of the two a scheduler round-trip takes. Control returns here
// only for termination and deadlock handling.
func (w *World) Run() error {
	if w.running {
		return errors.New("sim: world already running")
	}
	w.running = true
	defer func() { w.running = false }()

	err := w.runLoop(true)
	// A checkpoint armed at or past the end of the run fires at
	// termination, after teardown: the caller still gets its snapshot,
	// recognizable by actor states recording the kill.
	if w.ckptFn != nil {
		w.fireCheckpoint()
	}
	return err
}

// RunPhase executes the engine until every current non-daemon
// actor has finished, then returns without terminating daemons: blocked
// daemons stay parked in their message loops, and the caller may spawn
// more actors and call RunPhase or Run again. It splits a run into
// phases — run a world's set-up, then attach the measured workload to
// the quiesced world and Run to completion.
func (w *World) RunPhase() error {
	if w.running {
		return errors.New("sim: world already running")
	}
	w.running = true
	defer func() { w.running = false }()
	return w.runLoop(false)
}

// DrainDaemons executes every already-runnable daemon dispatch until no
// ready actor remains, then returns with the daemons parked. RunPhase
// returns the instant the last non-daemon finishes, which can abandon
// daemon work already scheduled at that instant — a wake for a delivery
// that was in flight, a deferred reply flushed after an enclave turned
// ready. A phase boundary that must be a pure function of the phase's
// inputs drains that residue explicitly, so the quiesced state does not
// depend on how far past the daemons' last work the non-daemons happened
// to run.
func (w *World) DrainDaemons() error {
	if w.running {
		return errors.New("sim: world already running")
	}
	w.running = true
	defer func() { w.running = false }()
	for {
		next := w.heap.pop()
		if next == nil {
			return nil
		}
		w.dispatch(next)
		next.resume <- struct{}{}
		<-w.yield
	}
}

// runLoop is the engine loop. kill selects whether daemons are
// terminated when the last non-daemon finishes (Run) or left parked for
// a later phase (RunPhase); deadlocks tear the world down either way.
func (w *World) runLoop(kill bool) error {
	for {
		if w.liveNonDaemons == 0 {
			if kill {
				w.killAll()
			}
			return nil
		}
		next := w.heap.pop()
		if next == nil {
			if blocked := w.blockedNonDaemons(); len(blocked) > 0 {
				w.killAll()
				return fmt.Errorf("%w: %d actor(s) blocked forever: %v",
					ErrDeadlock, len(blocked), blocked)
			}
			w.killAll()
			return nil
		}
		w.dispatch(next)
		next.resume <- struct{}{}
		<-w.yield
	}
}

// dispatch advances the global clock to the dispatched actor's and emits
// the trace line. It runs on whichever goroutine performs the handoff —
// the scheduler or the yielding actor — always under the
// one-runnable-goroutine guarantee.
func (w *World) dispatch(next *Actor) {
	// The checkpoint fires the instant the next dispatch would reach the
	// cut: every dispatch strictly below ckptT has executed and been
	// observed, none at or past it has — the exact serial cut semantics
	// the snapshot watermark records. Firing before the clock update and
	// the observer call keeps the dispatch itself on the far side.
	if w.ckptFn != nil && next.now >= w.ckptT {
		w.fireCheckpoint()
	}
	if next.now > w.now {
		w.now = next.now
	}
	if w.Trace != nil {
		w.Trace("t=%v run %s", w.now, next.name)
	}
	if w.obs != nil {
		w.obs.Dispatch(next, w.now)
	}
}

// dispatchFrom hands control onward from a, which has just updated its
// own state and clock. It returns true when a is itself
// the minimal ready actor and should simply keep running — no handoff at
// all. Otherwise it resumes the next actor directly, or wakes the
// scheduler loop when termination or deadlock handling is needed, and
// returns false: a finished actor then exits, a yielding one waits on its
// resume channel.
func (w *World) dispatchFrom(a *Actor) bool {
	if a.state == ready {
		w.heap.push(a)
	}
	if w.liveNonDaemons == 0 {
		w.yield <- a
		return false
	}
	next := w.heap.pop()
	if next == nil {
		w.yield <- a
		return false
	}
	w.dispatch(next)
	if next == a {
		return true
	}
	next.resume <- struct{}{}
	return false
}

// --- ready-queue heap ---------------------------------------------------
//
// Invariant: heap[i] is a ready actor with heap[i].heapIdx == i, and the
// key (now, id) of every node is <= its children's. Ids are unique, so
// the minimum is unique and the pop order is the (time, id) dispatch
// order exactly.

// actorLess orders actors by (time, id) — the dispatch priority.
func actorLess(a, b *Actor) bool {
	return a.now < b.now || (a.now == b.now && a.id < b.id)
}

// heapEntry is one ready actor with its dispatch key copied inline, so
// sift compares walk contiguous heap memory instead of dereferencing
// scattered Actor structs (the dominant cache-miss cost of the dispatch
// hot path). Invariant: key == a.now and id == a.id while enqueued; fix
// refreshes the key after a wakeup rewrites the clock.
type heapEntry struct {
	key Time
	id  int
	a   *Actor
}

func entryLess(a, b *heapEntry) bool {
	return a.key < b.key || (a.key == b.key && a.id < b.id)
}

// actorHeap is an indexed 4-ary min-heap of ready actors ordered by
// actorLess. Four-way branching halves the tree depth of
// a binary heap — and with it the compare rounds and heapIdx writes on
// the dispatch hot path — while heap shape never affects pop order (the
// (now, id) key is a total order).
type actorHeap []heapEntry

func (h *actorHeap) push(a *Actor) {
	i := len(*h)
	a.heapIdx = i
	*h = append(*h, heapEntry{key: a.now, id: a.id, a: a})
	h.siftUp(i)
}

// pop removes and returns the minimal-(time,id) ready actor, or nil.
func (h *actorHeap) pop() *Actor {
	s := *h
	n := len(s)
	if n == 0 {
		return nil
	}
	top := s[0].a
	n--
	if n > 0 {
		s[0] = s[n]
		s[0].a.heapIdx = 0
	}
	s[n] = heapEntry{}
	*h = s[:n]
	if n > 1 {
		h.siftDown(0)
	}
	top.heapIdx = -1
	return top
}

// fix restores the heap invariant after a's clock changed while
// enqueued, refreshing the inline key.
func (h actorHeap) fix(a *Actor) {
	i := a.heapIdx
	if i < 0 {
		return
	}
	h[i].key = a.now
	h.siftUp(i)
	h.siftDown(a.heapIdx)
}

func (h actorHeap) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 4
		if !entryLess(&h[i], &h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		h[i].a.heapIdx = i
		h[parent].a.heapIdx = parent
		i = parent
	}
}

func (h actorHeap) siftDown(i int) {
	n := len(h)
	for {
		min := i
		base := 4*i + 1
		end := base + 4
		if end > n {
			end = n
		}
		for c := base; c < end; c++ {
			if entryLess(&h[c], &h[min]) {
				min = c
			}
		}
		if min == i {
			return
		}
		h[i], h[min] = h[min], h[i]
		h[i].a.heapIdx = i
		h[min].a.heapIdx = min
		i = min
	}
}

func (w *World) blockedNonDaemons() []string {
	var names []string
	for _, a := range w.actors {
		if a.state == blocked && !a.daemon {
			names = append(names, fmt.Sprintf("%s(%s)", a.name, a.blockReason))
		}
	}
	sort.Strings(names)
	return names
}

// killAll terminates every actor that has not finished, including daemons
// blocked on message loops, so their goroutines do not leak. Termination
// follows spawn order, which keeps teardown deterministic. Once every goroutine has exited the resume channels are
// recycled for future worlds.
func (w *World) killAll() {
	for _, a := range w.actors {
		if a.state == done || a.state == killed {
			continue
		}
		a.state = killed
		a.resume <- struct{}{}
		<-w.yield
	}
	// Every actor goroutine has now exited (finished actors yielded for
	// the last time before killAll began; killed ones were just joined via
	// w.yield), so no channel below can ever be touched again.
	for _, a := range w.actors {
		if a.resume != nil {
			resumePool.Put(a.resume)
			a.resume = nil
		}
	}
}

// Reserve pre-sizes the actor table and ready queue for n actors, saving
// the append-doubling churn of worlds whose population is known up front.
func (w *World) Reserve(n int) {
	if cap(w.actors) < n {
		actors := make([]*Actor, len(w.actors), n)
		copy(actors, w.actors)
		w.actors = actors
	}
	if cap(w.heap) < n {
		heap := make(actorHeap, len(w.heap), n)
		copy(heap, w.heap)
		w.heap = heap
	}
}
