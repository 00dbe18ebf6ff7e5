package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"

	"xemem/internal/experiments/sweep"
)

// SweepBenchResult records the parallel sweep runner's end-to-end win on
// the full Fig. 5–9 + Table 2 sweep (reduced repetition counts, the
// -fast profile) plus the allocation-diet numbers for the two hot paths:
// heap allocations per scheduler dispatch and per 1 GB attach. All
// host-side; simulated results are byte-identical across every worker
// count.
type SweepBenchResult struct {
	Host HostInfo `json:"host"`

	Workers    int     `json:"workers"`
	SerialNs   float64 `json:"serial_ns"`
	ParallelNs float64 `json:"parallel_ns"`
	Speedup    float64 `json:"speedup"`

	DispatchAllocsPerOp float64 `json:"dispatch_allocs_per_op"`
	AttachAllocsPerOp   float64 `json:"attach_allocs_per_op"`
}

// SweepBench runs the full figure sweep serially (workers=1) and with
// one worker per host core, measures the dispatch/attach allocation
// rates, and — when jsonPath is non-empty — writes the result there as
// JSON (BENCH_sweep.json).
func SweepBench(seed uint64, jsonPath string) (*SweepBenchResult, error) {
	res := &SweepBenchResult{Host: CaptureHost(), Workers: sweep.Workers(0)}

	sweepAll := func(workers int) error {
		if _, err := Fig5(seed, 50, workers); err != nil {
			return err
		}
		if _, err := Fig6(seed, 50, workers); err != nil {
			return err
		}
		if _, err := Fig7(seed, workers); err != nil {
			return err
		}
		if _, err := Table2(seed, 5, workers); err != nil {
			return err
		}
		if _, err := Fig8(seed, 3, workers); err != nil {
			return err
		}
		if _, err := Fig9(seed, 3, workers); err != nil {
			return err
		}
		return nil
	}
	start := time.Now() //xemem:wallclock -- host-side benchmark timer for BENCH_sweep.json
	if err := sweepAll(1); err != nil {
		return nil, err
	}
	res.SerialNs = float64(time.Since(start).Nanoseconds()) //xemem:wallclock -- host-side benchmark timer for BENCH_sweep.json
	start = time.Now()                                      //xemem:wallclock -- host-side benchmark timer for BENCH_sweep.json
	if err := sweepAll(res.Workers); err != nil {
		return nil, err
	}
	res.ParallelNs = float64(time.Since(start).Nanoseconds()) //xemem:wallclock -- host-side benchmark timer for BENCH_sweep.json
	if res.ParallelNs > 0 {
		res.Speedup = res.SerialNs / res.ParallelNs
	}

	_, res.DispatchAllocsPerOp = schedulerBench(seed, 256, 2000)
	var err error
	if _, res.AttachAllocsPerOp, err = attachBench(seed, 3); err != nil {
		return nil, err
	}

	if jsonPath != "" {
		buf, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(jsonPath, append(buf, '\n'), 0o644); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// String renders the benchmark for the terminal.
func (r *SweepBenchResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Sweep benchmark (full Fig. 5-9 + Table 2, fast repetition counts)\n")
	fmt.Fprintf(&b, "  serial (1 worker)    %8.2f s\n", r.SerialNs/1e9)
	fmt.Fprintf(&b, "  parallel (%d workers) %7.2f s   (%.2fx speedup)\n", r.Workers, r.ParallelNs/1e9, r.Speedup)
	fmt.Fprintf(&b, "  dispatch allocs/op:    %.3f\n", r.DispatchAllocsPerOp)
	fmt.Fprintf(&b, "  1 GB attach allocs/op: %.0f\n", r.AttachAllocsPerOp)
	return b.String()
}
