package sim

import (
	"fmt"
	"strings"
	"testing"
)

// mixedWorkload builds a workload exercising every scheduler entry point:
// random-stride advances, block/unblock pairs, batched AdvanceN charges,
// spawn-during-run, SpawnAt staggering, and a forever-advancing daemon
// that Run must terminate.
func mixedWorkload(w *World) {
	for i := 0; i < 8; i++ {
		w.Spawn(fmt.Sprintf("stride%d", i), func(a *Actor) {
			r := a.RNG()
			for s := 0; s < 50; s++ {
				a.Advance(Time(r.Intn(500)) * Nanosecond)
			}
		})
	}
	var waiter *Actor
	waiter = w.Spawn("waiter", func(a *Actor) {
		for i := 0; i < 5; i++ {
			a.Block("wait-signal")
			a.Advance(10 * Nanosecond)
		}
	})
	w.Spawn("signaller", func(a *Actor) {
		r := a.RNG()
		for i := 0; i < 5; i++ {
			a.Advance(Time(r.Intn(2000)) * Nanosecond)
			a.Unblock(waiter)
		}
	})
	w.Spawn("spawner", func(a *Actor) {
		a.AdvanceN(7*Nanosecond, 100) // one batched charge of 700ns
		a.Spawn("child", func(c *Actor) {
			c.AdvanceN(3*Nanosecond, 33)
			c.Advance(Nanosecond)
		})
		a.Advance(500 * Nanosecond)
	})
	w.SpawnAt("late", 4*Microsecond, func(a *Actor) {
		a.Advance(100 * Nanosecond)
	})
	w.Spawn("noise", func(a *Actor) {
		a.SetDaemon()
		for {
			a.Advance(111 * Nanosecond)
		}
	})
}

// orderOracle is an Observer that checks every dispatch against the
// scheduler's pick rule by brute force: the dispatched actor must have
// the minimal (now, id) key over every ready actor in the world. It is
// the O(n) scan the heap replaced, run as a check instead of an engine.
type orderOracle struct {
	w          *World
	dispatches int
	violations []string
}

func (o *orderOracle) Span(*Actor, string, Time, Time)                             {}
func (o *orderOracle) AcquireRes(*Resource, *Actor, string, Time, Time, Time, int) {}
func (o *orderOracle) QueueWait(string, *Actor, Time, Time, int)                   {}
func (o *orderOracle) Count(string, *Actor, Time)                                  {}

func (o *orderOracle) Dispatch(next *Actor, t Time) {
	o.dispatches++
	for _, a := range o.w.actors {
		if a != next && a.state == ready && actorLess(a, next) {
			o.violations = append(o.violations, fmt.Sprintf(
				"t=%v dispatched %s(%v,#%d) ahead of %s(%v,#%d)",
				t, next.name, next.now, next.id, a.name, a.now, a.id))
		}
	}
}

// TestDispatchOrderOracle is the determinism regression test for the heap
// scheduler: over a workload that mixes every scheduling primitive, each
// dispatch must pick the ready actor with minimal (time, id).
func TestDispatchOrderOracle(t *testing.T) {
	w := NewWorld(99)
	o := &orderOracle{w: w}
	w.SetObserver(o)
	mixedWorkload(w)
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if o.dispatches == 0 {
		t.Fatal("no dispatches observed — Observer not firing")
	}
	if n := len(o.violations); n > 0 {
		t.Fatalf("%d of %d dispatches broke (time, id) order; first: %s", n, o.dispatches, o.violations[0])
	}
}

// TestKillAllTeardownOrder pins the end-of-run teardown contract: killAll
// terminates unfinished actors in spawn order, so daemon cleanup
// (deferred in the actor function, run during the errKilled unwind) is
// deterministic.
func TestKillAllTeardownOrder(t *testing.T) {
	w := NewWorld(1)
	var torn []string
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("d%d", i)
		w.Spawn(name, func(a *Actor) {
			a.SetDaemon()
			defer func() { torn = append(torn, name) }()
			a.Block("wait-forever")
		})
	}
	w.Spawn("worker", func(a *Actor) { a.Advance(5 * Nanosecond) })
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	want := "d0,d1,d2"
	if got := strings.Join(torn, ","); got != want {
		t.Fatalf("teardown order %s, want %s", got, want)
	}
}

// TestSpawnDuringRunScheduling verifies a child spawned mid-run inherits
// the parent's clock and is scheduled against it correctly (Actor.Spawn
// must fix the child's heap position after setting its start time).
func TestSpawnDuringRunScheduling(t *testing.T) {
	w := NewWorld(1)
	var events []string
	w.Spawn("parent", func(a *Actor) {
		a.Advance(10 * Nanosecond)
		a.Spawn("child", func(c *Actor) {
			events = append(events, fmt.Sprintf("child-start@%v", c.Now()))
			c.Advance(Nanosecond)
			events = append(events, fmt.Sprintf("child@%v", c.Now()))
		})
		a.Advance(5 * Nanosecond)
		events = append(events, fmt.Sprintf("parent@%v", a.Now()))
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	want := "child-start@10ns,child@11ns,parent@15ns"
	if got := strings.Join(events, ","); got != want {
		t.Fatalf("events %s, want %s", got, want)
	}
}
