package sim

import (
	"fmt"
	"strings"
	"testing"
)

// The scheduler takes a parked poller's ticks itself (World.next,
// pollTick). Its reference is Retry: the loop PollDeadline ran before,
// every check inside the poller's own coroutine, with the same steps.

// waitFn is the poll primitive a pollWorld's pollers use.
type waitFn func(a *Actor, interval, deadline Time, cond func() bool) bool

func pureWait(a *Actor, interval, deadline Time, cond func() bool) bool {
	return a.PollDeadline(interval, deadline, cond)
}

func refWait(a *Actor, interval, deadline Time, cond func() bool) bool {
	return a.Retry(interval, deadline, cond)
}

// pollLog records everything a poll world lets a test compare: every
// dispatch, every condition evaluation, and each wait's outcome, each as
// (actor, virtual time). ticks counts the evaluations the scheduler took
// for a parked poller.
type pollLog struct {
	dispatches []string
	checks     []string
	waits      []string
	ticks      int
}

func (l *pollLog) Span(*Actor, string, Time, Time)                             {}
func (l *pollLog) AcquireRes(*Resource, *Actor, string, Time, Time, Time, int) {}
func (l *pollLog) QueueWait(string, *Actor, Time, Time, int)                   {}
func (l *pollLog) Count(string, *Actor, Time)                                  {}

func (l *pollLog) Dispatch(a *Actor, t Time) {
	l.dispatches = append(l.dispatches, fmt.Sprintf("%s@%d", a.name, t))
}

// runPollWorld runs a seeded mix of pollers, busy actors and flag
// writers, and returns its log and every actor's final clock. Pollers
// wait on flags with Forever deadlines and with finite ones whose last
// step is truncated; writers raise the flags at random times; busy
// actors advance in random strides, so pollers are popped both by their
// own yields and by other actors'.
func runPollWorld(t *testing.T, seed uint64, wait waitFn) (*pollLog, []Time) {
	t.Helper()
	w := NewWorld(seed)
	log := &pollLog{}
	w.SetObserver(log)
	flags := make([]int, 3)
	for i := 0; i < 3; i++ {
		w.Spawn(fmt.Sprintf("writer%d", i), func(a *Actor) {
			r := a.RNG()
			for k := 0; k < 12; k++ {
				a.Advance(Time(1 + r.Intn(400)))
				flags[r.Intn(len(flags))]++
			}
		})
	}
	for i := 0; i < 2; i++ {
		w.Spawn(fmt.Sprintf("busy%d", i), func(a *Actor) {
			r := a.RNG()
			for k := 0; k < 60; k++ {
				a.Advance(Time(r.Intn(90)))
			}
		})
	}
	const pollers = 5
	done := 0
	for i := 0; i < pollers; i++ {
		w.Spawn(fmt.Sprintf("poller%d", i), func(a *Actor) {
			defer func() { done++ }()
			r := a.RNG()
			for k := 0; k < 8; k++ {
				f := r.Intn(len(flags))
				target := flags[f] + 1 + r.Intn(2)
				interval := Time(1 + r.Intn(60))
				deadline := Forever
				if r.Intn(2) == 0 {
					deadline = a.Now() + Time(r.Intn(700))
				}
				ok := wait(a, interval, deadline, func() bool {
					log.checks = append(log.checks, fmt.Sprintf("%s@%d", a.name, a.now))
					if a.poll != nil {
						log.ticks++
					}
					return flags[f] >= target
				})
				log.waits = append(log.waits, fmt.Sprintf("%s:%v@%d", a.name, ok, a.now))
				if !ok && deadline == Forever {
					t.Errorf("%s: an unbounded wait reported a missed deadline", a.name)
				}
			}
		})
	}
	// A late writer raises every flag until the pollers are done, so
	// every Forever wait ends.
	w.SpawnAt("closer", 20000, func(a *Actor) {
		for done < pollers {
			for k := range flags {
				flags[k] += 100
			}
			a.Advance(1000)
		}
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	clocks := make([]Time, len(w.actors))
	for i, a := range w.actors {
		clocks[i] = a.now
	}
	return log, clocks
}

// TestPollTicksMatchReference holds the scheduler-taken ticks to the
// in-coroutine reference over seeded worlds: the same dispatch sequence,
// the same condition evaluations at the same times, the same wait
// outcomes and the same final clocks.
func TestPollTicksMatchReference(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		got, gotClocks := runPollWorld(t, seed, pureWait)
		want, wantClocks := runPollWorld(t, seed, refWait)
		for _, c := range []struct {
			what      string
			got, want []string
		}{
			{"dispatch", got.dispatches, want.dispatches},
			{"check", got.checks, want.checks},
			{"wait", got.waits, want.waits},
		} {
			if i := firstMismatch(c.got, c.want); i >= 0 {
				t.Fatalf("seed %d: %s %d of %d/%d: %s, reference %s", seed, c.what, i, len(c.got), len(c.want),
					at(c.got, i), at(c.want, i))
			}
		}
		if fmt.Sprint(gotClocks) != fmt.Sprint(wantClocks) {
			t.Fatalf("seed %d: final clocks %v, reference %v", seed, gotClocks, wantClocks)
		}
		if got.ticks == 0 || got.ticks == len(got.checks) {
			t.Fatalf("seed %d: the scheduler took %d of %d checks, want some but not all", seed, got.ticks, len(got.checks))
		}
	}
}

func firstMismatch(a, b []string) int {
	for i := 0; i < len(a) || i < len(b); i++ {
		if at(a, i) != at(b, i) {
			return i
		}
	}
	return -1
}

func at(s []string, i int) string {
	if i < len(s) {
		return s[i]
	}
	return "<none>"
}

// TestPollConditionMustOnlyRead checks the condition contract's guard:
// a condition that yields, wakes or spawns an actor panics, and the
// panic names the polling actor, whichever stack the evaluation ran on —
// a busy actor's, when its yield pops the poller, or Run's, when the
// loop does after the busy actor finishes.
func TestPollConditionMustOnlyRead(t *testing.T) {
	acts := []struct {
		name string
		act  func(a, other *Actor)
	}{
		{"charge", func(a, _ *Actor) { a.Charge("sneaky", 1) }},
		{"unblock", func(a, other *Actor) { a.Unblock(other) }},
		{"spawn", func(a, _ *Actor) { a.w.Spawn("child", func(*Actor) {}) }},
	}
	stacks := []struct {
		name      string
		busySteps int
	}{{"actor", 1000}, {"run-loop", 12}}
	for _, tc := range acts {
		for _, st := range stacks {
			t.Run(tc.name+"/"+st.name, func(t *testing.T) {
				w := NewWorld(1)
				busy := w.Spawn("busy", func(a *Actor) {
					for i := 0; i < st.busySteps; i++ {
						a.Advance(1)
					}
				})
				w.Spawn("poller", func(a *Actor) {
					a.Advance(5)
					evals := 0
					// The first check runs in the poller's own coroutine;
					// the second is the scheduler's tick at 15.
					a.PollDeadline(10, 500, func() bool {
						if evals++; evals == 2 {
							tc.act(a, busy)
						}
						return false
					})
				})
				var got any
				func() {
					defer func() { got = recover() }()
					_ = w.Run()
				}()
				msg, _ := got.(string)
				if !strings.Contains(msg, "poll condition of actor poller") || !strings.Contains(msg, "may only read state") {
					t.Fatalf("recovered %v, want the guard naming the poller", got)
				}
				if strings.Contains(msg, "actor busy") {
					t.Fatalf("guard blames the busy actor:\n%s", msg)
				}
			})
		}
	}
}

// TestPollTickAllocs checks that a tick the scheduler absorbs allocates
// nothing: a world taking a thousand more ticks allocates as much as one
// taking a few.
func TestPollTickAllocs(t *testing.T) {
	run := func(ticks Time) func() {
		return func() {
			w := NewWorld(1)
			flag := false
			w.Spawn("busy", func(a *Actor) {
				for i := Time(0); i < ticks; i++ {
					a.Advance(10)
				}
				flag = true
			})
			w.Spawn("poller", func(a *Actor) {
				a.PollDeadline(10, Forever, func() bool { return flag })
			})
			if err := w.Run(); err != nil {
				t.Fatal(err)
			}
		}
	}
	// A per-tick allocation would cost 1,000 here; the slack absorbs the
	// few the runtime makes on its own, as it does under the race detector.
	few := testing.AllocsPerRun(5, run(10))
	many := testing.AllocsPerRun(5, run(1010))
	if many-few >= 10 {
		t.Fatalf("1000 more absorbed ticks cost %v allocations (%v vs %v), want none per tick", many-few, many, few)
	}
}
