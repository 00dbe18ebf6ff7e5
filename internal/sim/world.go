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
	// blocked, and finished actors are not in it. It is empty while the
	// partitioned parallel engine is active (each partition then owns its
	// own actorHeap).
	heap actorHeap
	// liveNonDaemons counts non-daemon actors that have not finished, so
	// the run loop's termination check is O(1) instead of a scan.
	liveNonDaemons int

	// Partitioning state for the conservative parallel engine (see
	// parallel.go). nparts counts the partition labels in use (always
	// >= 1); parWorkers > 0 selects the windowed engine in Run; parts is
	// non-nil only while that engine is active; mailboxes records every
	// Mailbox, whose minimum latencies are the lookahead the engine mines.
	parWorkers  int
	defaultPart int
	nparts      int
	parts       []*partition
	mailboxes   []*Mailbox
	// stableRNG selects actor-id-derived seeding for lazily created actor
	// RNG streams (see SetStableActorRNG).
	stableRNG bool
	// batchAdvances opts the parallel engine into run-to-completion
	// batching of pure advances (see SetBatchedAdvances).
	batchAdvances bool
	// draining flags the parallel run's drain phase, and drainCompleter/
	// drainStretch identify the final non-daemon completion dispatch —
	// the one dispatch whose same-timestamp creations the serial engine
	// never reached (see drainParallel and daemonBlocked).
	draining       bool
	drainCompleter *Actor
	drainStretch   uint64

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

	// Checkpoint machinery (see checkpoint.go). recipe/recipeParams name
	// the builder that can reconstruct this world from scratch; snapComps
	// are the registered per-component snapshot section savers; ckptT and
	// ckptFn arm a one-shot checkpoint callback fired at the engine's
	// first quiesce point at or past ckptT.
	recipe       string
	recipeParams []byte
	snapComps    []snapComponent
	ckptT        Time
	ckptFn       func()
}

// NewWorld returns an empty world whose RNG streams derive from seed.
func NewWorld(seed uint64) *World {
	return &World{
		yield:  make(chan *Actor),
		seed:   seed,
		nparts: 1,
	}
}

// SetParallel selects the conservative windowed parallel engine for Run,
// with up to workers host goroutines executing partition windows
// concurrently (see parallel.go for the model). workers <= 0 reverts to
// the serial reference engine. The parallel engine produces schedules —
// and therefore trace digests — bit-identical to the serial engine for
// any worker count; workers only changes host-level concurrency, never
// simulated outcomes. Must be called before Run.
func (w *World) SetParallel(workers int) {
	if w.running {
		panic("sim: SetParallel while running")
	}
	if workers < 0 {
		workers = 0
	}
	w.parWorkers = workers
}

// SetBatchedAdvances opts the parallel engine into run-to-completion
// batching of pure advances: an Advance/AdvanceN that only moves the
// actor's own clock skips the scheduler yield, and the actor commits the
// accumulated virtual time the next time it touches state other actors
// can see — a resource, a mailbox, Unblock, Spawn, a Poll condition — at
// which point it yields until every actor below its clock has run,
// restoring the exact serial interleaving at every coupling point. The
// simulated outcome (final time, every interaction's timestamps, all
// statistics) is identical to the unbatched engine; only the host-level
// goroutine handoffs per pure advance disappear. Daemons never batch, so
// the end-of-run termination cut-off stays serial-exact, and batching
// disengages automatically while an Observer or Trace is installed
// (their dispatch streams must match the serial engine event for event).
//
// The contract: actors must confine cross-actor interaction to the
// engine's primitives. Code that shares raw Go state between actors
// outside them must call Actor.Settle before touching it, or leave
// batching off. It has no effect on the serial engine. Must be called
// before Run.
func (w *World) SetBatchedAdvances(on bool) {
	if w.running {
		panic("sim: SetBatchedAdvances while running")
	}
	w.batchAdvances = on
}

// SetDefaultPartition sets the partition label assigned to subsequently
// spawned actors (see SpawnIn). World builders bracket each enclave's
// construction with it so every actor of the enclave — kernels, apps,
// noise sources — lands in that enclave's partition. The default is
// partition 0, so worlds that never call it are single-partition and the
// parallel engine degenerates to one run-to-completion window.
func (w *World) SetDefaultPartition(p int) {
	if p < 0 {
		panic("sim: negative partition")
	}
	if w.running {
		panic("sim: SetDefaultPartition while running")
	}
	w.defaultPart = p
	if p+1 > w.nparts {
		w.nparts = p + 1
	}
}

// DefaultPartition reports the partition label currently assigned to
// newly spawned actors.
func (w *World) DefaultPartition() int { return w.defaultPart }

// NumPartitions reports the number of partition labels in use (the
// highest label ever assigned, plus one). Always at least 1.
func (w *World) NumPartitions() int { return w.nparts }

// Now reports the current global virtual time: the clock of the most
// recently dispatched actor.
func (w *World) Now() Time { return w.now }

// NewRNG returns a fresh deterministic RNG stream. Streams created in the
// same order across runs produce identical sequences.
func (w *World) NewRNG() *RNG {
	w.nextRNG++
	return NewRNG(w.seed ^ (w.nextRNG * 0x9e3779b97f4a7c15))
}

// SetStableActorRNG selects actor-id-derived seeding for lazily created
// actor RNG streams (Actor.RNG) instead of the legacy creation-order
// counter. Id-derived streams are insensitive to how actors are grouped
// into partitions, so a workload produces identical noise whether it is
// built as one partition or eight — the property the partition-scaling
// benchmark relies on to compare layouts. Multi-partition worlds always
// use the stable derivation (the counter would race across windows);
// this knob merely extends it to the single-partition builds of the same
// workload. Must be set before the first Actor.RNG call.
func (w *World) SetStableActorRNG(on bool) { w.stableRNG = on }

// Spawn creates an actor named name running fn. If called from within a
// running actor, the child starts at the caller's current time; otherwise
// it starts at time zero. Daemon actors (see Actor.SetDaemon) do not keep
// the world alive. The actor lands in the world's default partition.
func (w *World) Spawn(name string, fn func(*Actor)) *Actor {
	return w.SpawnIn(w.defaultPart, name, fn)
}

// SpawnIn is Spawn with an explicit partition label. Partition labels
// only matter to the parallel engine (SetParallel): actors in distinct
// partitions may then execute on distinct host goroutines within a
// window, so they must interact across partitions only through Mailbox
// sends — never Unblock or shared mutable state. The serial engine
// ignores labels entirely.
//
// Spawning mid-run is allowed in single-partition worlds (as before) but
// panics in a multi-partition world running the parallel engine: actor
// ids are assigned from a global table that windows would race on.
func (w *World) SpawnIn(part int, name string, fn func(*Actor)) *Actor {
	if part < 0 {
		panic("sim: negative partition")
	}
	if w.parts != nil && w.nparts > 1 {
		panic("sim: mid-run Spawn in a multi-partition parallel world")
	}
	if part+1 > w.nparts {
		w.nparts = part + 1
	}
	a := &Actor{
		id:      len(w.actors),
		name:    name,
		w:       w,
		partID:  part,
		state:   ready,
		resume:  resumePool.Get().(chan struct{}),
		heapIdx: -1,
	}
	if w.parts != nil {
		a.part = w.parts[part]
	}
	w.actors = append(w.actors, a)
	if a.part != nil {
		a.part.live++
	} else {
		w.liveNonDaemons++
	}
	w.heapPush(a)
	go a.run(fn)
	return a
}

// SpawnAt is Spawn with an explicit start time. It is mainly useful for
// staggering workload arrivals before Run begins.
func (w *World) SpawnAt(name string, start Time, fn func(*Actor)) *Actor {
	a := w.Spawn(name, fn)
	a.now = start
	w.heapFix(a)
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

	var err error
	if w.parWorkers > 0 {
		err = w.runParallel()
	} else {
		err = w.runSerial(true)
	}
	// A checkpoint armed at or past the end of the run fires at
	// termination, after teardown: the caller still gets its snapshot,
	// recognizable by actor states recording the kill.
	if w.ckptFn != nil {
		w.fireCheckpoint()
	}
	return err
}

// RunPhase executes the serial engine until every current non-daemon
// actor has finished, then returns without terminating daemons: blocked
// daemons stay parked in their message loops, and the caller may spawn
// more actors and call RunPhase or Run again. It is the bootstrap
// primitive behind snapshot forking — run a world's warm-up phase,
// snapshot (or overlay onto) the quiesced state, then attach the
// workload proper and Run to completion. Serial engine only: the
// parallel engine's termination cut-off is a whole-run construct.
func (w *World) RunPhase() error {
	if w.running {
		return errors.New("sim: world already running")
	}
	if w.parWorkers > 0 {
		panic("sim: RunPhase requires the serial engine")
	}
	w.running = true
	defer func() { w.running = false }()
	return w.runSerial(false)
}

// DrainDaemons executes every already-runnable daemon dispatch until no
// ready actor remains, then returns with the daemons parked. RunPhase
// returns the instant the last non-daemon finishes, which can abandon
// daemon work already scheduled at that instant — a wake for a delivery
// that was in flight, a deferred reply flushed after an enclave turned
// ready. A phase boundary that must be a pure function of the phase's
// inputs (snapshot forking) drains that residue explicitly before
// cutting, so the quiesced state does not depend on how far past the
// daemons' last work the non-daemons happened to run. Serial engine
// only, like RunPhase.
func (w *World) DrainDaemons() error {
	if w.running {
		return errors.New("sim: world already running")
	}
	if w.parWorkers > 0 {
		panic("sim: DrainDaemons requires the serial engine")
	}
	w.running = true
	defer func() { w.running = false }()
	for {
		next := w.heapPop()
		if next == nil {
			return nil
		}
		w.dispatch(next)
		next.resume <- struct{}{}
		<-w.yield
	}
}

// runSerial is the serial engine loop. kill selects whether daemons are
// terminated when the last non-daemon finishes (Run) or left parked for
// a later phase (RunPhase); deadlocks tear the world down either way.
func (w *World) runSerial(kill bool) error {
	for {
		if w.liveNonDaemons == 0 {
			if kill {
				w.killAll()
			}
			return nil
		}
		next := w.heapPop()
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
		w.heapPush(a)
	}
	if w.liveNonDaemons == 0 {
		w.yield <- a
		return false
	}
	next := w.heapPop()
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
// actorLess. The world's serial scheduler owns one; under the parallel
// engine each partition owns its own, so the methods live on the slice
// type rather than on World. Four-way branching halves the tree depth of
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

// peek returns the minimal-(time,id) ready actor without removing it, or
// nil when the heap is empty.
func (h actorHeap) peek() *Actor {
	if len(h) == 0 {
		return nil
	}
	return h[0].a
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

// heapPush enqueues a ready actor in whichever ready queue owns it: the
// actor's partition heap under the parallel engine, otherwise the
// world's.
func (w *World) heapPush(a *Actor) {
	if a.part != nil {
		a.part.heap.push(a)
		return
	}
	w.heap.push(a)
}

// heapPop removes and returns the minimal-(time,id) ready actor, or nil
// (serial engine only).
func (w *World) heapPop() *Actor {
	return w.heap.pop()
}

// heapFix restores the heap invariant after a's clock changed while
// enqueued (SpawnAt and child-spawn set the start time after Spawn).
func (w *World) heapFix(a *Actor) {
	if a.part != nil {
		a.part.heap.fix(a)
		return
	}
	w.heap.fix(a)
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
// follows spawn order, which keeps teardown deterministic regardless of
// engine. Once every goroutine has exited the resume channels are
// recycled for future worlds.
func (w *World) killAll() {
	for _, a := range w.actors {
		if a.state == done || a.state == killed {
			continue
		}
		a.state = killed
		a.resume <- struct{}{}
		if a.part != nil {
			<-a.part.yield
		} else {
			<-w.yield
		}
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
