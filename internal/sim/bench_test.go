package sim

// Dispatch-path benchmarks and the checked-in allocation budget. The
// scheduler's steady state — advance, reschedule, handoff — must not
// allocate: the heap is index-swapped in place, a handoff is a coroutine
// switch, and the ready queue reuses the capacity it grew to while the
// actors were spawned. The ceiling test turns that property into a
// regression gate.

import (
	"fmt"
	"runtime"
	"testing"
)

// runDispatchWorld runs a pure scheduling workload: actors advancing by
// pseudorandom strides so the ready queue is constantly reordered.
func runDispatchWorld(seed uint64, actors, steps int) error {
	w := NewWorld(seed)
	for i := 0; i < actors; i++ {
		w.Spawn(fmt.Sprintf("a%d", i), func(a *Actor) {
			r := a.RNG()
			for s := 0; s < steps; s++ {
				a.Advance(Time(r.Intn(1000)) * Nanosecond)
			}
		})
	}
	return w.Run()
}

// BenchmarkWorldDispatch measures the dispatch hot path end to end: one
// op is a full world run of 256 actors × 500 steps, with per-dispatch
// cost reported as a metric.
func BenchmarkWorldDispatch(b *testing.B) {
	const actors, steps = 256, 500
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := runDispatchWorld(uint64(i+1), actors, steps); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*actors*steps), "ns/dispatch")
}

// dispatchAllocCeiling is the checked-in allocation budget for the
// dispatch path, in heap allocations per dispatch, world construction
// included. Per-world setup (actor structs, coroutines, RNG streams)
// amortizes to well under 0.01 allocs per dispatch at this scale;
// dispatch itself must contribute zero. The ceiling leaves headroom for
// runtime-internal noise only — an added make/append on the hot path
// blows through it immediately.
const dispatchAllocCeiling = 0.05

func TestDispatchAllocCeiling(t *testing.T) {
	const actors, steps = 256, 2000
	// Warm the runtime's goroutine free list and other structures so the
	// measured run sees the steady state a sweep's thousands of worlds see.
	if err := runDispatchWorld(1, actors, steps); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := runDispatchWorld(2, actors, steps); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	perOp := float64(after.Mallocs-before.Mallocs) / float64(actors*steps)
	if perOp > dispatchAllocCeiling {
		t.Errorf("dispatch path allocates %.4f allocs/op, over the %.2f ceiling", perOp, dispatchAllocCeiling)
	}
}
