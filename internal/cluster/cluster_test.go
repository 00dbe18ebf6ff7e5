package cluster

import (
	"fmt"
	"testing"

	"xemem/internal/sim"
)

func TestAllreduceReleasesAtMaxPlusLatency(t *testing.T) {
	w := sim.NewWorld(1)
	b := NewAllreduce(3, 30*sim.Microsecond)
	var outs []sim.Time
	for i, d := range []sim.Time{100, 500, 300} {
		delay := d * sim.Microsecond
		w.Spawn(fmt.Sprintf("n%d", i), func(a *sim.Actor) {
			a.Advance(delay)
			b.Arrive(a)
			outs = append(outs, a.Now())
		})
	}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	want := 530 * sim.Microsecond
	for _, o := range outs {
		if o != want {
			t.Fatalf("released at %v, want %v (all = %v)", o, want, outs)
		}
	}
	if b.Rounds != 1 {
		t.Fatalf("rounds = %d", b.Rounds)
	}
}

func TestAllreduceManyRounds(t *testing.T) {
	w := sim.NewWorld(9)
	const nodes, rounds = 8, 50
	b := NewAllreduce(nodes, 30*sim.Microsecond)
	finals := make([]sim.Time, nodes)
	for i := 0; i < nodes; i++ {
		id := i
		w.Spawn(fmt.Sprintf("n%d", i), func(a *sim.Actor) {
			rng := a.RNG()
			for r := 0; r < rounds; r++ {
				a.Advance(sim.Time(rng.Normal(1e6, 1e5)))
				b.Arrive(a)
			}
			finals[id] = a.Now()
		})
	}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < nodes; i++ {
		if finals[i] != finals[0] {
			t.Fatalf("nodes desynchronized: %v vs %v", finals[i], finals[0])
		}
	}
	if b.Rounds != rounds {
		t.Fatalf("rounds = %d, want %d", b.Rounds, rounds)
	}
}

func TestAllreduceAmplifiesTailNoise(t *testing.T) {
	// The §7 mechanism: a coupled group finishes at the max of its
	// members' noise, so E[iteration] grows with N for noisy members.
	run := func(nodes int) sim.Time {
		w := sim.NewWorld(123)
		b := NewAllreduce(nodes, 30*sim.Microsecond)
		var final sim.Time
		for i := 0; i < nodes; i++ {
			w.Spawn(fmt.Sprintf("n%d", i), func(a *sim.Actor) {
				rng := a.RNG()
				for r := 0; r < 100; r++ {
					iter := sim.Time(rng.Normal(1e6, 0))
					if rng.Float64() < 0.05 { // occasional daemon burst
						iter += 2e6
					}
					a.Advance(iter)
					b.Arrive(a)
				}
				final = a.Now()
			})
		}
		if err := w.Run(); err != nil {
			t.Fatal(err)
		}
		return final
	}
	one, eight := run(1), run(8)
	if eight <= one {
		t.Fatalf("8-node run (%v) not slower than 1-node (%v)", eight, one)
	}
	// With p=0.05 per node per iteration, 8 nodes hit a burst most
	// iterations: expect a substantial stretch, not a rounding artifact.
	if float64(eight) < 1.1*float64(one) {
		t.Fatalf("amplification too weak: %v vs %v", eight, one)
	}
}

// TestAllreduceSpuriousWakeup is the regression test for the barrier's
// generation guard: Unblock targets an actor, not a wait, so any
// subsystem sharing actors with the barrier can wake a waiter before its
// generation completes. Without the `for gen == myGen` re-block loop, a
// spuriously woken waiter would release immediately with a stale (zero)
// releaseAt instead of at max(arrivals) + latency. A noise actor spams
// Unblock at the blocked waiters, and every party must still leave at
// exactly the collective's completion time.
func TestAllreduceSpuriousWakeup(t *testing.T) {
	w := sim.NewWorld(3)
	b := NewAllreduce(3, 30*sim.Microsecond)
	parties := make([]*sim.Actor, 3)
	var outs []sim.Time
	for i, d := range []sim.Time{100, 500, 300} {
		delay := d * sim.Microsecond
		parties[i] = w.Spawn(fmt.Sprintf("n%d", i), func(a *sim.Actor) {
			a.Advance(delay)
			b.Arrive(a)
			outs = append(outs, a.Now())
		})
	}
	w.Spawn("noise", func(a *sim.Actor) {
		// Fires well past n0's and n2's arrivals but stays below the
		// 530µs release, so every wake it lands is spurious (Unblock on a
		// non-blocked actor is a no-op, so the unarrived are untouched).
		for i := 0; i < 40; i++ {
			a.Advance(7 * sim.Microsecond)
			for _, p := range parties {
				a.Unblock(p)
			}
		}
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	want := 530 * sim.Microsecond
	if len(outs) != 3 {
		t.Fatalf("%d parties released, want 3", len(outs))
	}
	for _, o := range outs {
		if o != want {
			t.Fatalf("spurious wakeup leaked through the generation guard: released at %v, want %v (all = %v)", o, want, outs)
		}
	}
	if b.Rounds != 1 {
		t.Fatalf("rounds = %d", b.Rounds)
	}
}

func TestSingleNodeBarrierIsLatencyOnly(t *testing.T) {
	w := sim.NewWorld(1)
	b := NewAllreduce(1, 30*sim.Microsecond)
	var final sim.Time
	w.Spawn("n0", func(a *sim.Actor) {
		for i := 0; i < 10; i++ {
			a.Advance(sim.Millisecond)
			b.Arrive(a)
		}
		final = a.Now()
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	want := 10 * (sim.Millisecond + 30*sim.Microsecond)
	if final != want {
		t.Fatalf("final = %v, want %v", final, want)
	}
}
