package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// recObs records every observer callback as a formatted line, giving the
// identity tests a complete, order-sensitive transcript of a run.
// Dispatch lines deliberately omit the reported time: observers see the
// clamped scheduler clock, which is global for the serial engine but
// partition-local for the parallel one (the dispatched actor, its own
// clock, and every span/acquire/count timestamp are identical).
type recObs struct {
	lines []string
}

func (o *recObs) Span(a *Actor, op string, start, dur Time) {
	o.lines = append(o.lines, fmt.Sprintf("S %s %s %d %d", a.Name(), op, start, dur))
}

func (o *recObs) AcquireRes(r *Resource, a *Actor, op string, arrival, start, dur Time, depth int) {
	o.lines = append(o.lines, fmt.Sprintf("A %s %s %s %d %d %d %d", r.Name(), a.Name(), op, arrival, start, dur, depth))
}

func (o *recObs) QueueWait(queue string, a *Actor, enqueued, dequeued Time, depth int) {
	o.lines = append(o.lines, fmt.Sprintf("Q %s %s %d %d %d", queue, a.Name(), enqueued, dequeued, depth))
}

func (o *recObs) Count(name string, a *Actor, d Time) {
	o.lines = append(o.lines, fmt.Sprintf("C %s %s %d", name, a.Name(), d))
}

func (o *recObs) Dispatch(a *Actor, t Time) {
	o.lines = append(o.lines, fmt.Sprintf("D %s", a.Name()))
}

// ringSummary is everything a ring-world run produces that identity
// tests compare: the transcript, the final virtual time, and aggregate
// stats read back from the world's objects.
type ringSummary struct {
	lines []string
	final Time
	stats []string
	err   error
}

// buildRingWorld constructs the canonical partitioned test world: nodes
// simulated cluster nodes mapped onto nparts partitions (node n lands in
// partition n%nparts), each node holding a comms actor exchanging timed
// messages around a mailbox ring, a kernel-style message-loop daemon, a
// Block/Unblock service pair, a batch of compute workers contending on a
// node-local resource, and a long-sleeping sentinel. The sentinel
// outlives every possible mailbox delivery, pinning the serial engine's
// termination instant past all daemon activity — otherwise daemon events
// between the last non-daemon finish and the window horizon would run
// under one engine and not the other, a real (documented) semantic edge
// rather than a bug. Every noise draw comes from id-derived actor
// streams, so the workload is identical no matter how it is partitioned.
func buildRingWorld(seed uint64, nodes, nparts, workersPer, rounds int, obs Observer) (*World, func() []string) {
	w := NewWorld(seed)
	w.SetStableActorRNG(true)
	if obs != nil {
		w.SetObserver(obs)
	}
	const lat = 20 * Microsecond

	ring := make([]*Mailbox, nodes)
	daemonBox := make([]*Mailbox, nodes)
	for n := 0; n < nodes; n++ {
		ring[n] = w.NewMailbox(fmt.Sprintf("ring%d", n), n%nparts, lat)
		daemonBox[n] = w.NewMailbox(fmt.Sprintf("kern%d", n), n%nparts, lat)
	}

	locks := make([]*Resource, nodes)
	for n := 0; n < nodes; n++ {
		n := n
		w.SetDefaultPartition(n % nparts)
		locks[n] = NewResource(fmt.Sprintf("node%d/lock", n))
		lock := locks[n]

		// Kernel-style daemon: serves exactly 2*rounds timed requests from
		// its mailbox, then blocks forever (killed at teardown).
		w.Spawn(fmt.Sprintf("node%d/kern", n), func(a *Actor) {
			a.SetDaemon()
			for i := 0; i < 2*rounds; i++ {
				msg := daemonBox[n].Recv(a)
				a.Charge("serve", Time(300+len(msg.(string))*10))
			}
			a.Block("kern idle")
		})

		// Comms actor: ring exchange plus daemon requests (its own node's
		// and the next node's — a cross-partition send path distinct from
		// the ring when the layout splits them).
		w.Spawn(fmt.Sprintf("node%d/comms", n), func(a *Actor) {
			r := a.RNG()
			next := (n + 1) % nodes
			for i := 0; i < rounds; i++ {
				a.Charge("pack", Time(200+r.Intn(400)))
				ring[next].Send(a, fmt.Sprintf("r%d.%d", n, i), lat+Time(r.Intn(5000)))
				daemonBox[n].Send(a, fmt.Sprintf("local%d", i), lat)
				daemonBox[next].Send(a, fmt.Sprintf("remote%d", i), lat+Time(r.Intn(2000)))
				got := ring[n].Recv(a).(string)
				a.Charge("unpack", Time(100+len(got)*5+r.Intn(300)))
			}
		})

		// A Block/Unblock pair exercising the partition-local wake path.
		waiter := w.Spawn(fmt.Sprintf("node%d/waiter", n), func(a *Actor) {
			for i := 0; i < rounds; i++ {
				a.Block("await kick")
				a.Charge("kicked", 150)
			}
		})
		w.Spawn(fmt.Sprintf("node%d/kicker", n), func(a *Actor) {
			r := a.RNG()
			for i := 0; i < rounds; i++ {
				a.Advance(Time(1000 + r.Intn(3000)))
				a.Unblock(waiter)
			}
		})

		// Sentinel: sleeps past any possible daemon delivery time.
		w.Spawn(fmt.Sprintf("node%d/sentinel", n), func(a *Actor) {
			a.Advance(Time(rounds) * 100 * Microsecond)
		})

		for i := 0; i < workersPer; i++ {
			w.Spawn(fmt.Sprintf("node%d/worker%d", n, i), func(a *Actor) {
				r := a.RNG()
				for s := 0; s < 8*rounds; s++ {
					a.Charge("compute", Time(200+r.Intn(700)))
					if s%4 == 0 {
						lock.AcquireOp(a, Time(100+r.Intn(200)), "svc")
					}
				}
			})
		}
	}
	w.SetDefaultPartition(0)

	stats := func() []string {
		var out []string
		for n := 0; n < nodes; n++ {
			out = append(out, fmt.Sprintf("ring%d sent=%d recv=%d depth=%d", n, ring[n].Sent(), ring[n].Received(), ring[n].MaxDepth()))
			out = append(out, fmt.Sprintf("kern%d sent=%d recv=%d", n, daemonBox[n].Sent(), daemonBox[n].Received()))
			out = append(out, fmt.Sprintf("lock%d busy=%d wait=%d acq=%d cont=%d", n, locks[n].BusyTime(), locks[n].WaitTime(), locks[n].Acquires(), locks[n].ContendedAcquires()))
		}
		return out
	}
	return w, stats
}

// runRing builds and runs the ring world; engineWorkers <= 0 selects the
// serial reference engine.
func runRing(seed uint64, nparts, workersPer, rounds, engineWorkers int) ringSummary {
	obs := &recObs{}
	w, stats := buildRingWorld(seed, nparts, nparts, workersPer, rounds, obs)
	if engineWorkers > 0 {
		w.SetParallel(engineWorkers)
	}
	err := w.Run()
	return ringSummary{lines: obs.lines, final: w.Now(), stats: stats(), err: err}
}

func diffSummaries(t *testing.T, label string, want, got ringSummary) {
	t.Helper()
	if (want.err == nil) != (got.err == nil) || (want.err != nil && want.err.Error() != got.err.Error()) {
		t.Fatalf("%s: err = %v, want %v", label, got.err, want.err)
	}
	if want.final != got.final {
		t.Errorf("%s: final time = %d, want %d", label, got.final, want.final)
	}
	if len(want.lines) != len(got.lines) {
		n := len(want.lines)
		if len(got.lines) < n {
			n = len(got.lines)
		}
		i := 0
		for i < n && want.lines[i] == got.lines[i] {
			i++
		}
		lo := i - 3
		if lo < 0 {
			lo = 0
		}
		hi := i + 4
		gotCtx := got.lines[lo:minInt(hi, len(got.lines))]
		wantCtx := want.lines[lo:minInt(hi, len(want.lines))]
		t.Fatalf("%s: %d observer events, want %d; first divergence at %d\n got: %s\nwant: %s",
			label, len(got.lines), len(want.lines), i,
			strings.Join(gotCtx, " | "), strings.Join(wantCtx, " | "))
	}
	for i := range want.lines {
		if want.lines[i] != got.lines[i] {
			lo := i - 3
			if lo < 0 {
				lo = 0
			}
			t.Fatalf("%s: event %d = %q, want %q\ncontext:\n got: %s\nwant: %s",
				label, i, got.lines[i], want.lines[i],
				strings.Join(got.lines[lo:i+1], " | "),
				strings.Join(want.lines[lo:i+1], " | "))
		}
	}
	for i := range want.stats {
		if want.stats[i] != got.stats[i] {
			t.Errorf("%s: stat %q, want %q", label, got.stats[i], want.stats[i])
		}
	}
}

// TestParallelRingIdentity is the engine-level digest-identity gate: the
// partitioned mailbox-ring world must produce the identical observer
// transcript, final time, and aggregate stats under the serial engine
// and under the parallel engine at 1, 2, and NumCPU workers, across
// partition counts.
func TestParallelRingIdentity(t *testing.T) {
	workerCounts := []int{1, 2, runtime.NumCPU()}
	for _, nparts := range []int{1, 2, 4} {
		serial := runRing(7, nparts, 3, 6, 0)
		if serial.err != nil {
			t.Fatalf("serial nparts=%d: %v", nparts, serial.err)
		}
		if len(serial.lines) == 0 {
			t.Fatalf("serial nparts=%d produced no events", nparts)
		}
		for _, workers := range workerCounts {
			got := runRing(7, nparts, 3, 6, workers)
			diffSummaries(t, fmt.Sprintf("nparts=%d workers=%d", nparts, workers), serial, got)
		}
	}
}

// TestParallelLayoutInvariance checks the cross-layout property the
// scaling benchmark relies on: with stable actor RNG streams, the same
// workload built as 1, 2, or 4 partitions reaches the same virtual
// outcome — partition labels change scheduling freedom, never simulated
// behaviour. Equal-time dispatch interleavings can differ across
// layouts, so this compares final time and aggregate stats rather than
// the transcript.
func TestParallelLayoutInvariance(t *testing.T) {
	ref := runRing(11, 4, 2, 5, 2) // 4 nodes, 4 partitions
	if ref.err != nil {
		t.Fatal(ref.err)
	}
	for _, nparts := range []int{1, 2} {
		w, stats := buildRingWorld(11, 4, nparts, 2, 5, nil)
		w.SetParallel(2)
		if err := w.Run(); err != nil {
			t.Fatalf("nparts=%d: %v", nparts, err)
		}
		if got := w.Now(); got != ref.final {
			t.Errorf("nparts=%d: final time %d, want %d", nparts, got, ref.final)
		}
		got := stats()
		for i := range ref.stats {
			if got[i] != ref.stats[i] {
				t.Errorf("nparts=%d: stat %q, want %q", nparts, got[i], ref.stats[i])
			}
		}
	}
}

// TestParallelBatchedAdvances checks that run-to-completion batching
// (SetBatchedAdvances) does not change simulated outcomes: on the fully
// coupled ring world — mailboxes, a contended resource, Block/Unblock,
// legacy counter RNG streams, daemons — a batched run must reach the
// same final time and aggregate statistics as the serial reference,
// because every elided advance is committed (Settle) before the actor
// touches any shared state. Observer-driven transcript identity is
// covered by TestParallelRingIdentity; an installed observer disengages
// batching, so here the comparison is observer-less.
func TestParallelBatchedAdvances(t *testing.T) {
	run := func(nparts, engineWorkers int, batch bool) ringSummary {
		w, stats := buildRingWorld(7, 4, nparts, 3, 6, nil)
		if engineWorkers > 0 {
			w.SetParallel(engineWorkers)
			w.SetBatchedAdvances(batch)
		}
		err := w.Run()
		return ringSummary{final: w.Now(), stats: stats(), err: err}
	}
	for _, nparts := range []int{1, 2, 4} {
		serial := run(nparts, 0, false)
		if serial.err != nil {
			t.Fatalf("serial nparts=%d: %v", nparts, serial.err)
		}
		for _, workers := range []int{1, 2, runtime.NumCPU()} {
			got := run(nparts, workers, true)
			diffSummaries(t, fmt.Sprintf("batched nparts=%d workers=%d", nparts, workers), serial, got)
		}
	}
	// Legacy-RNG coverage: the same comparison with creation-order actor
	// streams (the Settle inside Actor.RNG keeps the counter order serial).
	runLegacy := func(parallel bool) ringSummary {
		w := NewWorld(13)
		if parallel {
			w.SetParallel(1)
			w.SetBatchedAdvances(true)
		}
		lock := NewResource("lock")
		for i := 0; i < 8; i++ {
			w.Spawn(fmt.Sprintf("a%d", i), func(a *Actor) {
				r := a.RNG() // legacy counter stream: order-sensitive
				for s := 0; s < 50; s++ {
					a.Advance(Time(100 + r.Intn(900)))
					if s%5 == 0 {
						lock.Acquire(a, Time(50+r.Intn(100)))
					}
				}
			})
		}
		err := w.Run()
		return ringSummary{final: w.Now(), err: err, stats: []string{
			fmt.Sprintf("lock busy=%d wait=%d acq=%d", lock.BusyTime(), lock.WaitTime(), lock.Acquires()),
		}}
	}
	diffSummaries(t, "batched legacy-rng", runLegacy(false), runLegacy(true))
}

// TestParallelPartitionPerActor covers the degenerate fully partitioned
// layout (the <200ns dispatch configuration): every actor alone in its
// partition, no mailboxes, so the whole run is a single
// run-to-completion window per partition, and the barrier replay merges
// the complete transcripts.
func TestParallelPartitionPerActor(t *testing.T) {
	build := func(obs Observer) *World {
		w := NewWorld(3)
		w.SetStableActorRNG(true)
		if obs != nil {
			w.SetObserver(obs)
		}
		for i := 0; i < 64; i++ {
			w.SetDefaultPartition(i)
			w.Spawn(fmt.Sprintf("solo%d", i), func(a *Actor) {
				r := a.RNG()
				for s := 0; s < 100; s++ {
					a.Charge("step", Time(1+r.Intn(1000)))
				}
			})
		}
		w.SetDefaultPartition(0)
		return w
	}
	serialObs := &recObs{}
	ws := build(serialObs)
	if err := ws.Run(); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, runtime.NumCPU()} {
		parObs := &recObs{}
		wp := build(parObs)
		wp.SetParallel(workers)
		if err := wp.Run(); err != nil {
			t.Fatal(err)
		}
		if wp.Now() != ws.Now() {
			t.Errorf("workers=%d: final %d, want %d", workers, wp.Now(), ws.Now())
		}
		if len(parObs.lines) != len(serialObs.lines) {
			t.Fatalf("workers=%d: %d events, want %d", workers, len(parObs.lines), len(serialObs.lines))
		}
		for i := range serialObs.lines {
			if serialObs.lines[i] != parObs.lines[i] {
				t.Fatalf("workers=%d: event %d = %q, want %q", workers, i, parObs.lines[i], serialObs.lines[i])
			}
		}
	}
}

// TestParallelDeadlock checks that the parallel engine reports the same
// deadlock the serial engine does, with the identical message.
func TestParallelDeadlock(t *testing.T) {
	build := func() *World {
		w := NewWorld(1)
		w.NewMailbox("mb0", 0, Microsecond)
		w.NewMailbox("mb1", 1, Microsecond)
		w.SetDefaultPartition(1)
		w.Spawn("stuck", func(a *Actor) {
			a.Advance(10)
			a.Block("waiting forever")
		})
		w.SetDefaultPartition(0)
		w.Spawn("busy", func(a *Actor) { a.Advance(100) })
		return w
	}
	ws := build()
	serialErr := ws.Run()
	if serialErr == nil {
		t.Fatal("serial: expected deadlock")
	}
	wp := build()
	wp.SetParallel(2)
	parErr := wp.Run()
	if parErr == nil {
		t.Fatal("parallel: expected deadlock")
	}
	if serialErr.Error() != parErr.Error() {
		t.Errorf("deadlock message differs:\nserial:   %v\nparallel: %v", serialErr, parErr)
	}
}

// expectActorPanic wraps an actor body section expected to panic: it
// recovers the panic (reporting its absence) and lets the actor finish
// normally so the world can still terminate.
func expectActorPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	fn()
}

// TestParallelGuards checks the misuse panics: cross-partition Unblock,
// mid-run spawn in multi-partition worlds, and mailbox contract
// violations.
func TestParallelGuards(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}

	mustPanic("zero mailbox latency", func() {
		NewWorld(1).NewMailbox("bad", 0, 0)
	})
	mustPanic("negative partition", func() {
		NewWorld(1).SetDefaultPartition(-1)
	})

	// Cross-partition Unblock panics under the parallel engine.
	w := NewWorld(1)
	w.SetDefaultPartition(1)
	blocked := w.Spawn("blocked", func(a *Actor) { a.Block("forever") })
	w.SetDefaultPartition(0)
	w.Spawn("waker", func(a *Actor) {
		a.Advance(5)
		expectActorPanic(t, "cross-partition Unblock", func() { a.Unblock(blocked) })
	})
	w.SetParallel(1)
	_ = w.Run() // deadlocks: blocked is never woken; only the message matters elsewhere

	// Mid-run spawn panics in multi-partition worlds...
	w2 := NewWorld(2)
	w2.SetDefaultPartition(1)
	w2.Spawn("spawner", func(a *Actor) {
		a.Advance(1)
		expectActorPanic(t, "mid-run multi-partition spawn", func() {
			a.Spawn("child", func(a *Actor) {})
		})
	})
	w2.SetDefaultPartition(0)
	w2.Spawn("other", func(a *Actor) { a.Advance(10) })
	w2.SetParallel(1)
	if err := w2.Run(); err != nil {
		t.Errorf("multi-partition world: %v", err)
	}

	// ...but stays allowed in single-partition parallel worlds.
	w3 := NewWorld(3)
	ran := false
	w3.Spawn("spawner", func(a *Actor) {
		a.Advance(1)
		a.Spawn("child", func(a *Actor) { a.Advance(1); ran = true })
		a.Advance(10)
	})
	w3.SetParallel(1)
	if err := w3.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Error("mid-run child did not run under single-partition parallel engine")
	}

	// Receiving from a mailbox owned by another partition panics.
	w4 := NewWorld(4)
	mb := w4.NewMailbox("owned-by-1", 1, Microsecond)
	w4.Spawn("wrong", func(a *Actor) {
		expectActorPanic(t, "foreign Recv", func() { mb.Recv(a) })
	})
	w4.SetDefaultPartition(1)
	w4.Spawn("other", func(a *Actor) { a.Advance(1) })
	w4.SetDefaultPartition(0)
	w4.SetParallel(1)
	if err := w4.Run(); err != nil {
		t.Errorf("foreign-recv world: %v", err)
	}
}

// TestMailboxWakeLowering pins the order-independence property the
// barrier batching relies on: a waiter's wakeup is the earliest pending
// delivery, even when a later-applied message carries an earlier
// delivery time.
func TestMailboxWakeLowering(t *testing.T) {
	w := NewWorld(9)
	mb := w.NewMailbox("mb", 0, Microsecond)
	var wake, second Time
	var first any
	w.Spawn("receiver", func(a *Actor) {
		first = mb.Recv(a)
		wake = a.Now()
		_ = mb.Recv(a)
		second = a.Now()
	})
	// slow sends first at t=10µs with a large latency; fast sends at
	// t=20µs with a small one. The receiver must wake at fast's delivery
	// (25µs), not slow's (40µs), even though slow's wake was scheduled
	// first.
	w.Spawn("slow", func(a *Actor) {
		a.Advance(10 * Microsecond)
		mb.Send(a, "slow", 30*Microsecond) // delivers at 40µs
	})
	w.Spawn("fast", func(a *Actor) {
		a.Advance(20 * Microsecond)
		mb.Send(a, "fast", 5*Microsecond) // delivers at 25µs
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if first != any("fast") {
		t.Errorf("first message %v, want fast", first)
	}
	if want := 25 * Microsecond; wake != want {
		t.Errorf("first wake at %d, want %d", wake, want)
	}
	if want := 40 * Microsecond; second != want {
		t.Errorf("second receive at %d, want %d", second, want)
	}
	if mb.Sent() != 2 || mb.Received() != 2 {
		t.Errorf("sent/received = %d/%d, want 2/2", mb.Sent(), mb.Received())
	}
}

// TestMailboxLatencyFloor checks that sends below the declared minimum
// latency panic: the minimum is the engine's lookahead, so violating it
// would let a message land inside an already-executed window.
func TestMailboxLatencyFloor(t *testing.T) {
	w := NewWorld(5)
	mb := w.NewMailbox("mb", 0, 10*Microsecond)
	w.Spawn("sender", func(a *Actor) {
		expectActorPanic(t, "sub-minimum latency", func() {
			mb.Send(a, "too fast", Microsecond)
		})
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
