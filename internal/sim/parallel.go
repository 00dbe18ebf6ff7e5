package sim

import (
	"fmt"
	"math"
	"sync"
)

// This file implements the conservative (lookahead-based) parallel
// engine selected by World.SetParallel. The model is classic
// conservative PDES specialized to this simulator's actor semantics:
//
//   - Actors are grouped into partitions — logical processes — by the
//     label given at SpawnIn. A builder typically puts each enclave's
//     actors (kernel loops, apps, noise) in one partition, mirroring the
//     paper's hardware partitioning.
//   - Each partition owns a private ready-queue heap and runs its events
//     with the same run-to-completion handoff loop as the serial engine,
//     so within a partition the schedule is literally the serial
//     schedule restricted to that partition's actors.
//   - Partitions interact only through Mailboxes. A mailbox declares a
//     strictly positive minimum delivery latency — in XEMEM terms, a
//     cross-enclave hop always pays at least the fixed per-message
//     kernel cost plus a core-0 IPI (see core.MessageLookahead) — and
//     that bound is the engine's lookahead.
//   - The coordinator repeatedly computes a lower-bound timestamp (LBTS)
//     horizon: no partition can be affected by another before
//     min over partitions p of (next event time of p + outgoing
//     lookahead of p), where p's outgoing lookahead is the smallest
//     minimum latency among mailboxes owned by *other* partitions. Every
//     partition may then safely run every local event strictly below the
//     horizon — a window — on its own host goroutine. Cross-partition
//     sends made during a window are staged and land in the owning
//     partition's mailbox at the barrier; the lookahead bound guarantees
//     their delivery times are at or beyond the horizon, so no window
//     ever misses a message it should have seen.
//
// Because a mailbox wakeup is a pure function of the messages' delivery
// times (not of their application order — see Mailbox), the barrier
// batching reproduces the serial engine's schedule exactly: same seeds,
// same timestamps, same trace digests, at any worker count. That
// bit-identity is why the sync protocol is conservative rather than
// optimistic: a Time-Warp-style engine executes speculatively and rolls
// back, and while its *final* state converges, its observer event stream
// (the thing our golden digests hash) would depend on host scheduling.
//
// Worker-count independence of the *observer* stream needs one more
// piece: with more than one partition, events are buffered per partition
// during a window and replayed to the real observer at the barrier in
// the serial engine's dispatch order (see sliceBuffer and replay).

// evKey is a full scheduler ordering key — the (virtual time, actor id)
// pair the ready-queue heaps compare. The termination cut-off needs full
// keys, not just times: two events at the same nanosecond are ordered by
// actor id, and whether a daemon event precedes the final non-daemon
// completion can hinge on that tie-break.
type evKey struct {
	t  Time
	id int
}

// infKey is the "no bound" sentinel: every real key is less than it.
var infKey = evKey{t: Forever, id: math.MaxInt}

func (k evKey) less(o evKey) bool { return k.t < o.t || (k.t == o.t && k.id < o.id) }

// partition is one logical process of the parallel engine: a subset of
// the world's actors with a private ready queue, clock, and yield
// channel. All fields are owned by the single worker goroutine running
// the partition's window; the coordinator touches them only between
// windows (the pool's WaitGroup orders the accesses).
type partition struct {
	id int
	w  *World

	heap  actorHeap
	yield chan *Actor // partition-local scheduler handoff
	// live counts the partition's non-daemon actors that have not
	// finished; the coordinator sums these at each barrier.
	live int
	// now is the partition-local dispatch clock: the maximum dispatch
	// time so far, exactly as World.now is for the serial engine.
	now Time
	// horizon is the exclusive virtual-time bound of the current window.
	horizon Time
	// outLA is the partition's outgoing lookahead: the smallest minimum
	// latency among mailboxes owned by other partitions, Forever when the
	// partition cannot affect any other.
	outLA Time
	// clamp is the current window's daemon dispatch bound (exclusive, a
	// full scheduler key). The serial engine stops dispatching the moment
	// the last non-daemon completes, so once this partition's own
	// non-daemons are done a daemon event may only run if a non-daemon
	// completion elsewhere provably comes later in the serial order; the
	// coordinator derives the bound at each barrier (see runParallel) and
	// a partition whose next event is a daemon's at or past it simply
	// ends its window early. infKey means unconstrained.
	clamp evKey
	// lastND is the scheduler key of the partition's latest non-daemon
	// completion — the local candidate for the serial termination cut-off
	// K_done (see drainParallel) — and lastNDActor/lastNDStretch identify
	// the completing dispatch itself, so the drain can block exactly the
	// events that dispatch created.
	lastND        evKey
	lastNDActor   *Actor
	lastNDStretch uint64
	// staged holds the cross-partition mailbox sends produced during the
	// current window; the coordinator applies them at the barrier.
	staged []stagedSend
	// buf, when non-nil, buffers observer events for barrier-time replay
	// (multi-partition observed runs only).
	buf *sliceBuffer
}

// dispatch marks next as the partition's running actor and advances the
// partition clock, mirroring World.dispatch.
func (p *partition) dispatch(next *Actor) {
	key := next.now // serial dispatch key, pre-clamp (replay merges on it)
	if key > p.now {
		p.now = key
	}
	next.stretch++
	next.madeBy = nil
	w := p.w
	if w.nparts == 1 && w.Trace != nil {
		w.Trace("t=%v run %s", p.now, next.name)
	}
	if p.buf != nil {
		p.buf.begin(key, next, p.now)
	} else if w.obs != nil {
		w.obs.Dispatch(next, p.now)
	}
}

// daemonBlocked reports whether dispatching next would overrun the
// termination cut-off. While the partition has live non-daemons of its
// own, every local daemon event is safe: the local completion is a later
// local event, so the serial run cannot have stopped yet. Afterwards,
// mid-run, a daemon's effective position (wakeEK-aware) must be provably
// ahead of some remote non-daemon completion — at or past the window's
// clamp it must wait, because the serial run may stop first. During the
// drain the cut-off K_done is exact: the serial engine dispatched every
// then-existing event below it, so a daemon event is blocked iff its
// plain key is at or past K_done or it was created by the final
// completion dispatch itself (the one set of sub-K_done events the
// serial engine never reached). The partition stalls rather than skips:
// local events must dispatch in local order.
func (p *partition) daemonBlocked(next *Actor) bool {
	if !next.daemon || p.live > 0 {
		return false
	}
	if w := p.w; w.draining {
		if !(evKey{t: next.now, id: next.id}).less(p.clamp) {
			return true
		}
		return next.madeBy != nil && next.madeBy == w.drainCompleter && next.madeSeq == w.drainStretch
	}
	k := evKey{t: next.now, id: next.id}
	if k.less(next.wakeEK) {
		k = next.wakeEK
	}
	return !k.less(p.clamp)
}

// dispatchFrom is the partition-local twin of World.dispatchFrom: it
// hands control onward from a, which has just updated its own state and
// clock. The window ends — control returns to runWindow via the yield
// channel — when the next local event would reach the horizon or the
// daemon clamp, when the queue is empty, or (single-partition worlds
// only) when the world's termination condition holds; the serial
// engine's checks, restricted to this partition.
func (p *partition) dispatchFrom(a *Actor) bool {
	if a.state == ready && !(p.w.nparts == 1 && p.live == 0) {
		// Fast paths that skip the push-then-pop round trip. The heap's pop
		// order depends only on the (time, id) keys, never on its layout, so
		// these shortcuts cannot perturb the schedule.
		next := p.heap.peek()
		if next == nil || actorLess(a, next) {
			if a.now < p.horizon && !p.daemonBlocked(a) {
				// a is still the minimum: keep running it, zero heap traffic.
				p.dispatch(a)
				return true
			}
		} else if next.now < p.horizon && !p.daemonBlocked(next) {
			// Exchange a for the root in a single sift: pop next, push a.
			h := p.heap
			h[0] = heapEntry{key: a.now, id: a.id, a: a}
			a.heapIdx = 0
			h.siftDown(0)
			next.heapIdx = -1
			p.dispatch(next)
			next.resume <- struct{}{}
			return false
		}
		// Window over: every local candidate (a included) is at or past the
		// horizon. Park a and hand control back to the coordinator.
		p.heap.push(a)
		p.yield <- a
		return false
	}
	if a.state == ready {
		p.heap.push(a)
	}
	if p.w.nparts == 1 && p.live == 0 {
		p.yield <- a
		return false
	}
	next := p.heap.peek()
	if next == nil || next.now >= p.horizon || p.daemonBlocked(next) {
		p.yield <- a
		return false
	}
	p.heap.pop()
	p.dispatch(next)
	next.resume <- struct{}{}
	return false
}

// runWindow executes every partition-local event strictly below the
// horizon, run-to-completion. It is the parallel engine's inner loop,
// executed on a worker goroutine; partitions never block mid-window on
// anything outside the partition.
func (p *partition) runWindow() {
	for {
		if p.w.nparts == 1 && p.live == 0 {
			return
		}
		next := p.heap.peek()
		if next == nil || next.now >= p.horizon || p.daemonBlocked(next) {
			return
		}
		p.heap.pop()
		p.dispatch(next)
		next.resume <- struct{}{}
		<-p.yield
	}
}

// runParallel is the coordinator loop behind Run when SetParallel is in
// effect: distribute actors to partitions, then alternate windows and
// barriers until no non-daemon actor remains.
func (w *World) runParallel() error {
	parts := make([]*partition, w.nparts)
	for i := range parts {
		parts[i] = &partition{id: i, w: w, yield: make(chan *Actor), outLA: Forever}
	}
	w.parts = parts

	// Move the global ready queue into the partition-local heaps and
	// count live non-daemons per partition.
	for i := range w.heap {
		w.heap[i] = heapEntry{}
	}
	w.heap = w.heap[:0]
	for _, a := range w.actors {
		p := parts[a.partID]
		a.part = p
		a.heapIdx = -1
		if a.state == ready {
			p.heap.push(a)
		}
		if !a.daemon && a.state != done && a.state != killed {
			p.live++
		}
	}
	w.liveNonDaemons = 0

	// Outgoing lookahead: the earliest a partition's send could land in a
	// mailbox it does not own.
	for _, mb := range w.mailboxes {
		for _, p := range parts {
			if p.id != mb.owner && mb.minLat < p.outLA {
				p.outLA = mb.minLat
			}
		}
	}
	if w.obs != nil && w.nparts > 1 {
		for _, p := range parts {
			p.buf = &sliceBuffer{}
		}
	}

	workers := w.parWorkers
	if workers > len(parts) {
		workers = len(parts)
	}
	var pool *windowPool
	if workers > 1 {
		pool = newWindowPool(workers)
		defer pool.close()
	}

	runnable := make([]*partition, 0, len(parts))
	for {
		live := 0
		for _, p := range parts {
			live += p.live
		}
		if live == 0 {
			return w.drainParallel(parts, pool, runnable)
		}

		// LBTS horizon: a partition's own events are always safe; another
		// partition cannot reach it before that partition's next event
		// plus its outgoing lookahead. Positive mailbox latencies make the
		// horizon strictly greater than the global minimum event time, so
		// at least one event executes per window — guaranteed progress.
		//
		// Alongside the horizon, derive the window's daemon clamp: a lower
		// bound on the key of some future non-daemon completion. The clamp
		// is only ever consulted by a partition whose own non-daemons are
		// all done (see daemonBlocked), so the promised completion is
		// necessarily remote to the consulter and a single global value
		// serves every partition. Two sound promises, keywise max:
		//
		//   - A ready non-daemon completes at or past its own next event
		//     key, so some completion is at or past the *maximum* ready
		//     non-daemon key anywhere. This keeps daemon-heavy phases
		//     parallel mid-run, when completions are still far away.
		//   - A blocked non-daemon in partition q completes after whatever
		//     chain of dispatches wakes it. A chain local to q starts at or
		//     past q's floor; a chain from another partition crosses a
		//     mailbox and lands at or past the horizon; a chain through the
		//     clamped daemon's own partition trails the daemon itself and
		//     needs no bound. So q promises min(floor_q, horizon) —
		//     maximized over the partitions holding blocked non-daemons.
		//
		// The partition holding the global minimum floor always has
		// tail.t == floor.t < horizon (deliveries are strictly future in
		// time), so with the horizon promise in force it is never blocked
		// and every window dispatches at least one event.
		minNext, horizon := Forever, Forever
		maxND, blockedFloor := evKey{}, evKey{}
		anyBlocked := false
		for _, p := range parts {
			readyND := 0
			for j := range p.heap {
				e := &p.heap[j]
				if !e.a.daemon {
					readyND++
					if k := (evKey{t: e.key, id: e.id}); maxND.less(k) {
						maxND = k
					}
				}
			}
			top := p.heap.peek()
			if p.live > readyND { // blocked non-daemons live here
				anyBlocked = true
				f := infKey
				if top != nil {
					f = evKey{t: top.now, id: top.id}
				}
				if blockedFloor.less(f) {
					blockedFloor = f
				}
			}
			if top == nil {
				continue
			}
			if top.now < minNext {
				minNext = top.now
			}
			if p.outLA != Forever {
				if h := top.now + p.outLA; h < horizon {
					horizon = h
				}
			}
		}
		if minNext == Forever {
			// Every heap is empty and every staged send was applied at the
			// previous barrier: remaining non-daemons are blocked forever.
			if blocked := w.blockedNonDaemons(); len(blocked) > 0 {
				return w.finishParallel(fmt.Errorf("%w: %d actor(s) blocked forever: %v",
					ErrDeadlock, len(blocked), blocked))
			}
			return w.finishParallel(nil)
		}

		// Checkpoint: at this barrier every dispatch below minNext has
		// executed, every staged send has landed, and (observed runs) the
		// barrier replay has delivered every buffered event below minNext
		// to the observer. When the earliest pending event is at or past
		// the cut, that is the parallel engine's quiesce point for it —
		// coarser than the serial engine's (a whole barrier window, not a
		// single dispatch), which is why images record the engine kind and
		// restores replay on the same engine they snapshot under.
		if w.ckptFn != nil && minNext >= w.ckptT {
			w.fireCheckpoint()
		}

		clamp := maxND
		if anyBlocked {
			c := blockedFloor
			if hk := (evKey{t: horizon, id: math.MinInt}); hk.less(c) {
				c = hk
			}
			if clamp.less(c) {
				clamp = c
			}
		}
		runnable = runnable[:0]
		for _, p := range parts {
			p.clamp = clamp
			if top := p.heap.peek(); top != nil && top.now < horizon && !p.daemonBlocked(top) {
				p.horizon = horizon
				runnable = append(runnable, p)
			}
		}
		if pool == nil || len(runnable) == 1 {
			for _, p := range runnable {
				p.runWindow()
			}
		} else {
			pool.run(runnable)
		}

		w.applyBarrier(parts)
	}
}

// applyBarrier lands the windows' cross-partition sends and replays the
// buffered observer events. Delivery times are >= the horizon (lookahead
// bound), so no partition has already run past them; the wakeups they
// cause are independent of application order (see Mailbox.deliver).
//
// Replay stops at a watermark: the minimum pending scheduler key across
// the partition heaps. A partition stalled at its daemon clamp still has
// events below the horizon to dispatch, and slices from other partitions
// beyond its stall point must stay buffered until it catches up —
// replaying them now would break the serial interleaving.
func (w *World) applyBarrier(parts []*partition) {
	for _, p := range parts {
		for i := range p.staged {
			s := &p.staged[i]
			s.mb.deliver(s.m)
			p.staged[i] = stagedSend{}
		}
		p.staged = p.staged[:0]
	}
	if w.obs != nil && w.nparts > 1 {
		watermark := infKey
		for _, p := range parts {
			if top := p.heap.peek(); top != nil {
				if k := (evKey{t: top.now, id: top.id}); k.less(watermark) {
					watermark = k
				}
			}
		}
		w.replayBelow(watermark)
	}
}

// drainParallel finishes a run whose non-daemons have all completed. The
// serial engine stops at K_done — the scheduler key of the last
// non-daemon completion — having already dispatched every daemon event
// below it. Partitions may still hold such events: the daemon clamp is
// conservative, and the window that hosted the final completion ended at
// its horizon, not at K_done. Run them now, windows and barriers as
// usual (drained daemons can message each other across partitions), with
// every partition clamped to K_done. The cut-off is exact: the serial
// engine dispatched every then-existing event below K_done before
// stopping, so the only sub-K_done events left unrun are the ones the
// final completion dispatch itself created. Those carry that dispatch's
// creation taint (madeBy/madeSeq, see daemonBlocked) and are blocked by
// identity; every other event below K_done runs.
func (w *World) drainParallel(parts []*partition, pool *windowPool, runnable []*partition) error {
	kdone := evKey{}
	for _, p := range parts {
		if kdone.less(p.lastND) {
			kdone = p.lastND
			w.drainCompleter = p.lastNDActor
			w.drainStretch = p.lastNDStretch
		}
	}
	w.draining = true
	for {
		horizon := Forever
		for _, p := range parts {
			top := p.heap.peek()
			if top == nil || p.outLA == Forever {
				continue
			}
			if h := top.now + p.outLA; h < horizon {
				horizon = h
			}
		}
		runnable = runnable[:0]
		for _, p := range parts {
			p.clamp = kdone
			if top := p.heap.peek(); top != nil && top.now < horizon && !p.daemonBlocked(top) {
				p.horizon = horizon
				runnable = append(runnable, p)
			}
		}
		if len(runnable) == 0 {
			return w.finishParallel(nil)
		}
		if pool == nil || len(runnable) == 1 {
			for _, p := range runnable {
				p.runWindow()
			}
		} else {
			pool.run(runnable)
		}
		w.applyBarrier(parts)
	}
}

// finishParallel tears the parallel run down: kill surviving daemons,
// fold the partition clocks into the world clock, and detach partition
// state so a future serial Run behaves normally.
func (w *World) finishParallel(err error) error {
	w.draining = false
	w.drainCompleter = nil
	w.killAll()
	if w.obs != nil && w.nparts > 1 {
		w.replay() // events emitted by daemons between the last barrier and teardown
	}
	live := 0
	for _, p := range w.parts {
		if p.now > w.now {
			w.now = p.now
		}
		live += p.live
	}
	w.liveNonDaemons = live
	for _, a := range w.actors {
		a.part = nil
	}
	w.parts = nil
	return err
}

// windowPool runs partition windows on a fixed set of worker goroutines.
// The channel handoff publishes the coordinator's horizon writes to the
// worker; Done/Wait publishes the worker's heap, clock, and staging
// writes back to the coordinator.
type windowPool struct {
	work chan *partition
	wg   sync.WaitGroup
}

func newWindowPool(workers int) *windowPool {
	pool := &windowPool{work: make(chan *partition, workers)}
	for i := 0; i < workers; i++ {
		go func() {
			for p := range pool.work {
				p.runWindow()
				pool.wg.Done()
			}
		}()
	}
	return pool
}

func (pool *windowPool) run(parts []*partition) {
	pool.wg.Add(len(parts))
	for _, p := range parts {
		pool.work <- p
	}
	pool.wg.Wait()
}

func (pool *windowPool) close() { close(pool.work) }

// --- barrier-time observer replay ---------------------------------------
//
// With more than one partition, windows run concurrently, so observer
// callbacks cannot go straight to the installed Observer. Instead each
// partition buffers its window's events grouped by dispatch (an
// evSlice), and at the barrier the coordinator replays the buffers in
// the serial engine's order. That order is recovered by a head-merge:
// the serial scheduler always picks the globally minimal (time, id)
// ready actor, and an actor's dispatches appear in its own partition's
// buffer in partition-scheduler order, so repeatedly taking the buffer
// head with the smallest (dispatch key, actor id) replays the exact
// serial interleaving. The dispatch key is the actor's clock at
// dispatch, before the partition-clock clamp — the same key the serial
// heap compared.

type bufKind uint8

const (
	bufSpan bufKind = iota
	bufAcquire
	bufQueueWait
	bufCount
)

// bufEvent is one buffered observer callback.
type bufEvent struct {
	kind  bufKind
	a     *Actor
	r     *Resource
	op    string
	t1    Time
	t2    Time
	t3    Time
	depth int
}

func (e *bufEvent) replay(obs Observer) {
	switch e.kind {
	case bufSpan:
		obs.Span(e.a, e.op, e.t1, e.t2)
	case bufAcquire:
		obs.AcquireRes(e.r, e.a, e.op, e.t1, e.t2, e.t3, e.depth)
	case bufQueueWait:
		obs.QueueWait(e.op, e.a, e.t1, e.t2, e.depth)
	case bufCount:
		obs.Count(e.op, e.a, e.t1)
	}
}

// evSlice is the events of one dispatch: the actor, its dispatch key
// (clock at dispatch), the clamped partition clock the serial engine
// would have reported to Observer.Dispatch, and every event the actor
// emitted before its next pause.
type evSlice struct {
	key    Time
	a      *Actor
	disp   Time
	events []bufEvent
}

// sliceBuffer is a partition's window-local Observer implementation. It
// is installed implicitly via Actor.Observer, never via SetObserver.
type sliceBuffer struct {
	slices []evSlice
	next   int // replay cursor
}

// begin opens the event slice for a new dispatch.
func (b *sliceBuffer) begin(key Time, a *Actor, disp Time) {
	b.slices = append(b.slices, evSlice{key: key, a: a, disp: disp})
}

func (b *sliceBuffer) cur() *evSlice { return &b.slices[len(b.slices)-1] }

func (b *sliceBuffer) Span(a *Actor, op string, start, dur Time) {
	s := b.cur()
	s.events = append(s.events, bufEvent{kind: bufSpan, a: a, op: op, t1: start, t2: dur})
}

func (b *sliceBuffer) AcquireRes(r *Resource, a *Actor, op string, arrival, start, dur Time, depth int) {
	s := b.cur()
	s.events = append(s.events, bufEvent{kind: bufAcquire, a: a, r: r, op: op, t1: arrival, t2: start, t3: dur, depth: depth})
}

func (b *sliceBuffer) QueueWait(queue string, a *Actor, enqueued, dequeued Time, depth int) {
	s := b.cur()
	s.events = append(s.events, bufEvent{kind: bufQueueWait, a: a, op: queue, t1: enqueued, t2: dequeued, depth: depth})
}

func (b *sliceBuffer) Count(name string, a *Actor, d Time) {
	s := b.cur()
	s.events = append(s.events, bufEvent{kind: bufCount, a: a, op: name, t1: d})
}

// Dispatch is part of the Observer interface; dispatches are recorded by
// begin, so a nested call would be a bug.
func (b *sliceBuffer) Dispatch(a *Actor, t Time) {}

// compact discards replayed slices, moving the unreplayed remainder to
// the front and retaining capacity for the next window.
func (b *sliceBuffer) compact() {
	if b.next == 0 {
		return
	}
	n := copy(b.slices, b.slices[b.next:])
	for i := n; i < len(b.slices); i++ {
		b.slices[i].events = nil
		b.slices[i].a = nil
	}
	b.slices = b.slices[:n]
	b.next = 0
}

// replay merges every remaining buffered slice into the installed
// observer (end of run, when all dispatches are final).
func (w *World) replay() { w.replayBelow(infKey) }

// replayBelow merges the partitions' buffered windows into the installed
// observer in serial dispatch order (see the comment block above),
// stopping at the watermark: a slice at or past it may still be preceded
// — in serial order — by a dispatch a stalled partition has not made
// yet, so it stays buffered for a later barrier. Within one partition's
// buffer, slices replay strictly in append order; that order, not the
// key, carries the serial tie-break when a dispatch schedules another
// actor at its own timestamp.
func (w *World) replayBelow(watermark evKey) {
	obs := w.obs
	for {
		var best *evSlice
		var owner *sliceBuffer
		for _, p := range w.parts {
			b := p.buf
			if b == nil || b.next >= len(b.slices) {
				continue
			}
			s := &b.slices[b.next]
			if best == nil || s.key < best.key || (s.key == best.key && s.a.id < best.a.id) {
				best, owner = s, b
			}
		}
		if best == nil || !(evKey{t: best.key, id: best.a.id}).less(watermark) {
			break
		}
		owner.next++
		obs.Dispatch(best.a, best.disp)
		for i := range best.events {
			best.events[i].replay(obs)
		}
	}
	for _, p := range w.parts {
		if p.buf != nil {
			p.buf.compact()
		}
	}
}
