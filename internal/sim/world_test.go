package sim

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

func TestAdvanceOrdering(t *testing.T) {
	w := NewWorld(1)
	var order []string
	w.Spawn("slow", func(a *Actor) {
		a.Advance(10)
		order = append(order, "slow@10")
		a.Advance(10)
		order = append(order, "slow@20")
	})
	w.Spawn("fast", func(a *Actor) {
		a.Advance(5)
		order = append(order, "fast@5")
		a.Advance(10)
		order = append(order, "fast@15")
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"fast@5", "slow@10", "fast@15", "slow@20"}
	if got := strings.Join(order, ","); got != strings.Join(want, ",") {
		t.Fatalf("order = %s, want %s", got, strings.Join(want, ","))
	}
}

// TestWorldOwnsCostModel: a world runs on the calibrated model, and an
// actor reaches the same model through its world.
func TestWorldOwnsCostModel(t *testing.T) {
	w := NewWorld(1)
	if *w.Costs() != *DefaultCosts() {
		t.Fatal("NewWorld's cost model differs from DefaultCosts")
	}
	w.Spawn("reader", func(a *Actor) {
		if a.World().Costs() != w.Costs() {
			t.Error("actor sees a second cost model")
		}
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestTieBreakByID(t *testing.T) {
	w := NewWorld(1)
	var order []string
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("a%d", i)
		w.Spawn(name, func(a *Actor) {
			a.Advance(7)
			order = append(order, a.Name())
		})
	}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(order, ","); got != "a0,a1,a2" {
		t.Fatalf("tie order = %s, want a0,a1,a2", got)
	}
}

func TestNegativeAdvancePanics(t *testing.T) {
	w := NewWorld(1)
	w.Spawn("bad", func(a *Actor) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic from negative advance")
			}
		}()
		a.Advance(-1)
	})
	_ = w.Run()
}

func TestBlockUnblock(t *testing.T) {
	w := NewWorld(1)
	var woken Time
	var waiter *Actor
	waiter = w.Spawn("waiter", func(a *Actor) {
		a.Block("test")
		woken = a.Now()
	})
	w.Spawn("waker", func(a *Actor) {
		a.Advance(100)
		a.Unblock(waiter)
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if woken != 100 {
		t.Fatalf("waiter woke at %d, want 100", woken)
	}
}

func TestUnblockNeverRewindsClock(t *testing.T) {
	w := NewWorld(1)
	var woken Time
	var waiter *Actor
	waiter = w.Spawn("waiter", func(a *Actor) {
		a.Advance(500)
		a.Block("test")
		woken = a.Now()
	})
	w.Spawn("waker", func(a *Actor) {
		a.Advance(100)
		for waiter.state != blocked {
			a.Advance(100)
		}
		a.Unblock(waiter)
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if woken != 500 {
		t.Fatalf("waiter woke at %d, want its own later clock 500", woken)
	}
}

func TestDeadlockDetected(t *testing.T) {
	w := NewWorld(1)
	w.Spawn("stuck", func(a *Actor) { a.Block("nobody will wake me") })
	err := w.Run()
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("want deadlock error, got %v", err)
	}

	// A blocked actor that outlives a peer finishing later in virtual
	// time is still a deadlock, and the report names it with its reason.
	w = NewWorld(1)
	w.Spawn("stuck", func(a *Actor) {
		a.Advance(10)
		a.Block("waiting forever")
	})
	w.Spawn("busy", func(a *Actor) { a.Advance(100) })
	err = w.Run()
	if !errors.Is(err, ErrDeadlock) || !strings.Contains(err.Error(), "stuck(waiting forever)") {
		t.Fatalf("want deadlock naming stuck(waiting forever), got %v", err)
	}
}

// TestParallelDeadlock checks that a blocked actor running alongside a
// busy peer in virtual time is reported as the same deadlock, with the
// identical message, on every run of the same world.
func TestParallelDeadlock(t *testing.T) {
	build := func() *World {
		w := NewWorld(1)
		w.Spawn("stuck", func(a *Actor) {
			a.Advance(10)
			a.Block("waiting forever")
		})
		w.Spawn("busy", func(a *Actor) { a.Advance(100) })
		return w
	}
	first := build().Run()
	if !errors.Is(first, ErrDeadlock) {
		t.Fatalf("first run: want deadlock, got %v", first)
	}
	second := build().Run()
	if !errors.Is(second, ErrDeadlock) {
		t.Fatalf("second run: want deadlock, got %v", second)
	}
	if first.Error() != second.Error() {
		t.Errorf("deadlock message differs between runs:\nfirst:  %v\nsecond: %v", first, second)
	}
}

func TestDaemonDoesNotKeepWorldAlive(t *testing.T) {
	w := NewWorld(1)
	w.Spawn("daemon", func(a *Actor) {
		a.SetDaemon()
		for {
			a.Block("idle loop")
		}
	})
	w.Spawn("worker", func(a *Actor) { a.Advance(42) })
	if err := w.Run(); err != nil {
		t.Fatalf("daemon should not deadlock the world: %v", err)
	}
	if w.Now() != 42 {
		t.Fatalf("world time = %d, want 42", w.Now())
	}
}

// A child spawned by a running actor starts at that actor's clock, not
// at zero, even when the parent advanced without yielding since its
// last dispatch (the world's clock still reads the dispatch time).
func TestSpawnDuringRunInheritsTime(t *testing.T) {
	w := NewWorld(1)
	var parentAt, childStart Time
	w.Spawn("parent", func(a *Actor) {
		a.Advance(5 * Microsecond)
		parentAt = a.Now()
		w.Spawn("child", func(c *Actor) { childStart = c.Now() })
		a.Advance(1)
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if parentAt != 5*Microsecond || childStart != parentAt {
		t.Fatalf("child started at %v, want the parent's %v", childStart, parentAt)
	}
}

// An unbounded PollDeadline checks cond every interval, each step exactly
// interval, and returns at the first check that sees it hold — whether
// the poller takes its checks itself (alone with the setter) or the
// scheduler takes them (beside a busy actor that pops it at every tick).
func TestPollAdvancesUntilCond(t *testing.T) {
	for _, busy := range []bool{false, true} {
		w := NewWorld(1)
		flag := false
		if busy {
			w.Spawn("busy", func(a *Actor) {
				for a.Now() < 200 {
					a.Advance(1)
				}
			})
		}
		w.Spawn("setter", func(a *Actor) {
			a.Advance(95)
			flag = true
		})
		var checks []Time
		var seen Time
		ticks := 0
		w.Spawn("poller", func(a *Actor) {
			if !a.PollDeadline(10, Forever, func() bool {
				checks = append(checks, a.Now())
				if a.poll != nil {
					ticks++
				}
				return flag
			}) {
				t.Error("unbounded poll reported a missed deadline")
			}
			seen = a.Now()
		})
		if err := w.Run(); err != nil {
			t.Fatal(err)
		}
		if seen != 100 {
			t.Fatalf("busy=%v: poller finished at %d, want 100", busy, seen)
		}
		for i, at := range checks {
			if at != Time(10*i) {
				t.Fatalf("busy=%v: check %d at %d, want %d", busy, i, at, 10*i)
			}
		}
		if len(checks) != 11 {
			t.Fatalf("busy=%v: %d checks, want 11 (at 0, 10, ..., 100)", busy, len(checks))
		}
		// Beside the busy actor, every check after the poller's first is
		// a scheduler tick.
		if busy && ticks != 10 {
			t.Fatalf("the scheduler took %d of the checks, want 10", ticks)
		}
	}
}

// An unbounded Await blocks: the waiter wakes at the signaller's exact
// clock, with no poll quantum, and a missing signal is a deadlock that
// names the wait.
func TestAwaitForeverBlocks(t *testing.T) {
	w := NewWorld(1)
	flag := false
	var waiter *Actor
	var woke Time
	var ok bool
	waiter = w.Spawn("waiter", func(a *Actor) {
		ok = a.Await("flag", 10, Forever, func() bool { return flag })
		woke = a.Now()
	})
	w.Spawn("setter", func(a *Actor) {
		a.Advance(95)
		flag = true
		a.Unblock(waiter)
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if !ok || woke != 95 {
		t.Fatalf("Await = %v at %d, want true at 95", ok, woke)
	}

	w = NewWorld(1)
	w.Spawn("stuck", func(a *Actor) { a.Await("never-set", 10, Forever, func() bool { return false }) })
	if err := w.Run(); err == nil || !strings.Contains(err.Error(), "stuck(never-set)") {
		t.Fatalf("want a deadlock naming the wait, got %v", err)
	}
}

// A bounded Await polls: it sees the flag at the first poll tick at or
// after it is set, and otherwise lands exactly on its deadline.
func TestAwaitBoundedPolls(t *testing.T) {
	for _, tc := range []struct {
		name            string
		setAt, deadline Time
		ok              bool
		finished        Time
	}{
		{"signalled", 95, 150, true, 100},
		{"expired", 0, 55, false, 55},
	} {
		w := NewWorld(1)
		flag := false
		var ok bool
		var finished Time
		w.Spawn("waiter", func(a *Actor) {
			ok = a.Await("flag", 10, tc.deadline, func() bool { return flag })
			finished = a.Now()
		})
		if tc.setAt > 0 {
			w.Spawn("setter", func(a *Actor) {
				a.Advance(tc.setAt)
				flag = true // no Unblock: a bounded wait polls
			})
		}
		if err := w.Run(); err != nil {
			t.Fatal(err)
		}
		if ok != tc.ok || finished != tc.finished {
			t.Errorf("%s: Await = %v at %d, want %v at %d", tc.name, ok, finished, tc.ok, tc.finished)
		}
	}
}

func TestDeadlineSaturates(t *testing.T) {
	w := NewWorld(1)
	var got []Time
	w.Spawn("a", func(a *Actor) {
		a.Advance(100)
		got = []Time{a.Deadline(5), a.Deadline(Forever), a.Deadline(Forever - 50)}
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []Time{105, Forever, Forever}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Deadline = %v, want %v", got, want)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []Time {
		w := NewWorld(7)
		var log []Time
		res := NewResource("shared")
		for i := 0; i < 5; i++ {
			w.Spawn(fmt.Sprintf("a%d", i), func(a *Actor) {
				r := a.RNG()
				for j := 0; j < 20; j++ {
					a.Advance(Time(r.Uint64n(1000)))
					res.AcquireOp(a, Time(r.Uint64n(500)), "")
					log = append(log, a.Now())
				}
			})
		}
		if err := w.Run(); err != nil {
			t.Fatal(err)
		}
		return log
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("replay lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestResourceSerializes(t *testing.T) {
	w := NewWorld(1)
	res := NewResource("core0")
	var spans []Span
	for i := 0; i < 3; i++ {
		w.Spawn(fmt.Sprintf("a%d", i), func(a *Actor) {
			start := res.AcquireOp(a, 100, "")
			spans = append(spans, Span{Start: start, Dur: 100})
		})
	}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if len(spans) != 3 {
		t.Fatalf("spans = %d, want 3", len(spans))
	}
	for i := 1; i < len(spans); i++ {
		if spans[i].Start < spans[i-1].End() {
			t.Fatalf("span %d overlaps previous: %+v vs %+v", i, spans[i], spans[i-1])
		}
	}
	if res.BusyTime() != 300 {
		t.Fatalf("busy = %v, want 300", res.BusyTime())
	}
}

func TestResourceIdleNoWait(t *testing.T) {
	w := NewWorld(1)
	res := NewResource("idle")
	var starts []Time
	w.Spawn("a", func(a *Actor) {
		starts = append(starts, res.AcquireOp(a, 50, ""))
		a.Advance(1000)
		starts = append(starts, res.AcquireOp(a, 50, ""))
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []Time{0, 1050}; fmt.Sprint(starts) != fmt.Sprint(want) {
		t.Fatalf("starts = %v, want %v: an idle resource makes no one wait", starts, want)
	}
}

func TestCoreRecordsSpans(t *testing.T) {
	w := NewWorld(1)
	core := NewCore("kitten-core")
	core.StartRecording()
	w.Spawn("app", func(a *Actor) {
		core.Exec(a, 10, "app")
		core.Exec(a, 20, "app")
	})
	w.Spawn("kernel", func(a *Actor) {
		a.Advance(5)
		core.Exec(a, 100, "serve")
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	spans := core.StopRecording()
	if len(spans) != 3 {
		t.Fatalf("spans = %d, want 3", len(spans))
	}
	var serve int
	for _, s := range spans {
		if s.Tag == "serve" {
			serve++
			if s.Dur != 100 {
				t.Fatalf("serve span dur = %v", s.Dur)
			}
		}
	}
	if serve != 1 {
		t.Fatalf("serve spans = %d, want 1", serve)
	}
}

func TestWorldNowTracksDispatch(t *testing.T) {
	w := NewWorld(1)
	w.Spawn("a", func(a *Actor) { a.Advance(123) })
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if w.Now() != 123 {
		t.Fatalf("Now = %v, want 123", w.Now())
	}
}
