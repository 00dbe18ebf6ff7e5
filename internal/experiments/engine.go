package experiments

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"xemem"
	"xemem/internal/experiments/sweep"
	"xemem/internal/sim"
	"xemem/internal/xpmem"
)

// EngineBenchResult reports host performance of the simulator itself
// (BENCH_engine.json): scheduler dispatch and a 1 GB cross-enclave attach,
// each in host ns and heap allocations per op, and the full Fig. 5–9 +
// Table 2 sweep as the end-to-end composite. Simulated results are
// bit-identical across sweep worker counts; only host figures move.
type EngineBenchResult struct {
	Host HostInfo `json:"host"`

	SchedulerActors     int     `json:"scheduler_actors"`
	SchedulerDispatches int     `json:"scheduler_dispatches"`
	SchedulerHeapNs     float64 `json:"scheduler_heap_ns_per_dispatch"`
	DispatchAllocsPerOp float64 `json:"dispatch_allocs_per_op"`

	AttachBytes       uint64  `json:"attach_bytes"`
	AttachReps        int     `json:"attach_reps"`
	AttachFastNs      float64 `json:"attach_fast_ns_per_op"`
	AttachAllocsPerOp float64 `json:"attach_allocs_per_op"`

	// The full figure sweep at -fast repetition counts through the
	// parallel sweep runner: serial (workers=1) vs one worker per host
	// core.
	SweepWorkers    int     `json:"sweep_workers"`
	SweepSerialNs   float64 `json:"sweep_serial_ns"`
	SweepParallelNs float64 `json:"sweep_parallel_ns"`
	SweepSpeedup    float64 `json:"sweep_speedup"`
}

// EngineBench measures the engine fast paths and the end-to-end sweep.
func EngineBench(seed uint64) (*EngineBenchResult, error) {
	const (
		actors = 256
		steps  = 2000
		reps   = 3
	)
	res := &EngineBenchResult{
		Host:                CaptureHost(),
		SchedulerActors:     actors,
		SchedulerDispatches: actors * steps,
		AttachBytes:         1 << 30,
		AttachReps:          reps,
	}

	// Each scheduler run is short (~0.5 s), so take the best of a few
	// trials. Min-tracking starts from +Inf (never from trial zero's
	// sentinel value) so the loop cannot mistake an uninitialized field
	// for a measurement. The allocation rate comes from the first, cold
	// trial.
	const trials = 3
	res.SchedulerHeapNs = math.MaxFloat64
	for i := 0; i < trials; i++ {
		ns, allocs := schedulerBench(seed, actors, steps)
		if i == 0 {
			res.DispatchAllocsPerOp = allocs
		}
		if ns < res.SchedulerHeapNs {
			res.SchedulerHeapNs = ns
		}
	}

	var err error
	if res.AttachFastNs, res.AttachAllocsPerOp, err = attachBench(seed, reps); err != nil {
		return nil, err
	}

	// The full sweep through the parallel runner: serial reference, then
	// one worker per host core.
	res.SweepWorkers = sweep.Workers(0)
	if res.SweepSerialNs, err = timeSweep(seed, 1); err != nil {
		return nil, err
	}
	if res.SweepParallelNs, err = timeSweep(seed, res.SweepWorkers); err != nil {
		return nil, err
	}
	if res.SweepParallelNs > 0 {
		res.SweepSpeedup = res.SweepSerialNs / res.SweepParallelNs
	}
	return res, nil
}

// timeSweep runs every figure and Table 2 at the -fast repetition counts
// on the given worker count and returns the host wall-clock ns.
func timeSweep(seed uint64, workers int) (float64, error) {
	start := time.Now() //xemem:wallclock -- host-side benchmark timer for BENCH_engine.json
	if _, err := Fig5(seed, 50, workers); err != nil {
		return 0, err
	}
	if _, err := Fig6(seed, 50, workers); err != nil {
		return 0, err
	}
	if _, err := Fig7(seed, workers); err != nil {
		return 0, err
	}
	if _, err := Table2(seed, 5, workers); err != nil {
		return 0, err
	}
	if _, err := Fig8(seed, 3, workers); err != nil {
		return 0, err
	}
	if _, err := Fig9(seed, 3, workers); err != nil {
		return 0, err
	}
	return float64(time.Since(start).Nanoseconds()), nil //xemem:wallclock -- host-side benchmark timer for BENCH_engine.json
}

// schedulerBench times pure dispatch over a mixed-clock actor pool,
// reporting host ns and heap allocations per dispatch. Each actor
// advances by its own pseudorandom strides, so the ready queue is
// constantly reordered.
func schedulerBench(seed uint64, actors, steps int) (nsPerOp, allocsPerOp float64) {
	w := sim.NewWorld(seed)
	w.Reserve(actors)
	for i := 0; i < actors; i++ {
		w.Spawn(fmt.Sprintf("a%d", i), func(a *sim.Actor) {
			r := a.RNG()
			for s := 0; s < steps; s++ {
				a.Advance(sim.Time(r.Intn(1000)) * sim.Nanosecond)
			}
		})
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now() //xemem:wallclock -- measures host dispatch rate, not simulated time
	if err := w.Run(); err != nil {
		panic(err) // a pure advance loop cannot deadlock
	}
	elapsed := time.Since(start).Nanoseconds() //xemem:wallclock -- measures host dispatch rate, not simulated time
	runtime.ReadMemStats(&after)
	ops := float64(actors * steps)
	return float64(elapsed) / ops, float64(after.Mallocs-before.Mallocs) / ops
}

// attachBench times the host cost of serving and mapping a whole-segment
// 1 GB attach (Fig. 5's topology: Kitten exporter, Linux attacher),
// measured around the AttachWith call only so enclave boot stays out of
// the number. It reports host ns and heap allocations per attach.
func attachBench(seed uint64, reps int) (nsPerOp, allocsPerOp float64, err error) {
	node := xemem.NewNode(xemem.NodeConfig{Seed: seed, MemBytes: 32 << 30, LinuxCores: 4})
	ck, err := node.BootCoKernel("kitten0", 2<<30)
	if err != nil {
		return 0, 0, err
	}
	expSess, heap, err := node.KittenProcess(ck, "exporter", 1<<30)
	if err != nil {
		return 0, 0, err
	}
	attSess, _ := node.LinuxProcess("attacher", 1)

	const bytes = uint64(1) << 30
	var runErr error
	var hostNs int64
	var mallocs uint64
	node.Spawn("attach-bench", func(a *sim.Actor) {
		segid, err := expSess.Make(a, heap.Base, bytes, xpmem.PermRead|xpmem.PermWrite, "")
		if err != nil {
			runErr = err
			return
		}
		apid, err := attSess.GetWith(a, segid, xpmem.GetOpts{Perm: xpmem.PermRead})
		if err != nil {
			runErr = err
			return
		}
		var before, after runtime.MemStats
		for i := 0; i < reps; i++ {
			runtime.ReadMemStats(&before)
			start := time.Now() //xemem:wallclock -- measures host cost of the attach fast path
			va, err := attSess.AttachWith(a, segid, apid, xpmem.AttachOpts{Bytes: bytes, Perm: xpmem.PermRead})
			hostNs += time.Since(start).Nanoseconds() //xemem:wallclock -- measures host cost of the attach fast path
			runtime.ReadMemStats(&after)
			mallocs += after.Mallocs - before.Mallocs
			if err != nil {
				runErr = err
				return
			}
			// Detach between reps so every serve re-walks (the detach
			// invalidates the frame-list cache): the benchmark measures the
			// walk and map paths, not the cache.
			if err := attSess.Detach(a, va); err != nil {
				runErr = err
				return
			}
		}
	})
	if err := node.Run(); err != nil {
		return 0, 0, err
	}
	if runErr != nil {
		return 0, 0, runErr
	}
	return float64(hostNs) / float64(reps), float64(mallocs) / float64(reps), nil
}

// String renders the benchmark for the terminal.
func (r *EngineBenchResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Engine benchmark (host wall-clock)\n")
	fmt.Fprintf(&b, "  scheduler dispatch (%d actors, %d dispatches): %.1f ns/dispatch, %.3f allocs/dispatch\n",
		r.SchedulerActors, r.SchedulerDispatches, r.SchedulerHeapNs, r.DispatchAllocsPerOp)
	fmt.Fprintf(&b, "  1 GB attach (%d reps): %.0f ns/attach, %.0f allocs/attach\n", r.AttachReps, r.AttachFastNs, r.AttachAllocsPerOp)
	fmt.Fprintf(&b, "  fig5-9 + table2 sweep (fast counts): serial %.2f s, %d workers %.2f s   (%.2fx speedup)\n",
		r.SweepSerialNs/1e9, r.SweepWorkers, r.SweepParallelNs/1e9, r.SweepSpeedup)
	return b.String()
}
