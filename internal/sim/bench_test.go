package sim

// Dispatch-path benchmarks and the checked-in allocation budget. The
// scheduler's steady state — advance, reschedule, handoff — must not
// allocate: the heap is index-swapped in place, resume channels are
// pooled, and the ready queue is pre-sized. The ceiling test turns that
// property into a regression gate.

import (
	"fmt"
	"runtime"
	"testing"
)

// Dispatch-benchmark engine variants.
const (
	benchSerial = iota // heap scheduler, serial engine
	benchPar1          // parallel engine, one partition (run-to-completion path)
)

// runDispatchWorld runs a pure scheduling workload: actors advancing by
// pseudorandom strides so the ready queue is constantly reordered.
func runDispatchWorld(seed uint64, actors, steps, mode int) error {
	w := NewWorld(seed)
	switch mode {
	case benchPar1:
		w.SetParallel(1)
		w.SetBatchedAdvances(true)
	}
	w.Reserve(actors)
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

func benchDispatch(b *testing.B, mode int) {
	const actors, steps = 256, 500
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := runDispatchWorld(uint64(i+1), actors, steps, mode); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*actors*steps), "ns/dispatch")
}

// BenchmarkWorldDispatch measures the dispatch hot path end to end on
// the parallel engine's single-partition run-to-completion path (no
// mailboxes, so the horizon is infinite and the whole run is one
// window): one op is a full world run of 256 actors × 500 steps, with
// per-dispatch cost reported as a metric. Budget: under 200 ns/dispatch.
func BenchmarkWorldDispatch(b *testing.B) { benchDispatch(b, benchPar1) }

// BenchmarkWorldDispatchSerial is the same workload on the serial
// reference engine.
func BenchmarkWorldDispatchSerial(b *testing.B) { benchDispatch(b, benchSerial) }

// dispatchAllocCeiling is the checked-in allocation budget for the
// dispatch path, in heap allocations per dispatch, world construction
// included. Per-world setup (actor structs, goroutines, RNG streams)
// amortizes to well under 0.01 allocs per dispatch at this scale;
// dispatch itself must contribute zero. The ceiling leaves headroom for
// runtime-internal noise only — an added make/append on the hot path
// blows through it immediately.
const dispatchAllocCeiling = 0.05

func TestDispatchAllocCeiling(t *testing.T) {
	const actors, steps = 256, 2000
	// Warm the resume-channel pool and runtime structures so the measured
	// run sees the steady state a sweep's thousands of worlds see.
	if err := runDispatchWorld(1, actors, steps, benchSerial); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := runDispatchWorld(2, actors, steps, benchSerial); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	perOp := float64(after.Mallocs-before.Mallocs) / float64(actors*steps)
	if perOp > dispatchAllocCeiling {
		t.Errorf("dispatch path allocates %.4f allocs/op, over the %.2f ceiling", perOp, dispatchAllocCeiling)
	}
}
