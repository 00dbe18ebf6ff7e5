package experiments

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"xemem"
	"xemem/internal/core"
	"xemem/internal/fault"
	"xemem/internal/sim"
	"xemem/internal/xpmem"
)

// FaultDropRates are the message-loss probabilities the fault sweep
// covers (0 is the control cell).
var FaultDropRates = []float64{0, 0.02, 0.05, 0.10}

// Fault sweep workload geometry: each cell runs `rounds`
// get→attach→read→detach→release cycles from a Linux consumer against a
// co-kernel export, with bounded per-request retry policies so lost
// messages surface as ErrTimeout instead of hangs. In crash cells the
// exporting enclave dies mid-sweep at faultCrashAt.
const (
	faultSegBytes   = 64 << 12
	faultCrashAt    = 500 * sim.Microsecond
	faultGetTimeout = 200 * sim.Microsecond
	faultAttTimeout = 500 * sim.Microsecond
)

// FaultCell is one (drop rate, crash) point: how the protocol degraded,
// where the failures were attributed, the attach-latency distribution of
// the survivors, and the run's trace digest — the determinism artifact.
type FaultCell struct {
	DropProb float64 `json:"drop_prob"`
	Crash    bool    `json:"crash"`

	cycleTally

	Retries int `json:"retries"` // consumer-side rpc retries
	Drops   int `json:"drops"`   // messages the injector discarded
	Delays  int `json:"delays"`  // messages the injector stalled

	P50AttachNs int64 `json:"p50_attach_ns"` // virtual time, successful cycles
	P99AttachNs int64 `json:"p99_attach_ns"`

	Digest string `json:"digest"` // SHA-256 of the cell's full event stream
}

// FaultSweepResult is the regenerated fault sweep (BENCH_fault.json).
type FaultSweepResult struct {
	Host   HostInfo    `json:"host"`
	Seed   uint64      `json:"seed"`
	Rounds int         `json:"rounds"`
	Cells  []FaultCell `json:"cells"`
}

// FaultSweep runs the fault-injection sweep: every drop rate × {no
// crash, mid-sweep exporter crash}, each cell a closed world with its
// own injector and tracer. The entire result — per-cell counts,
// latency percentiles, and digests — is a pure function of (seed,
// rounds): rerunning yields a byte-identical BENCH_fault.json.
func FaultSweep(seed uint64, rounds int) (*FaultSweepResult, error) {
	res := &FaultSweepResult{Host: CaptureHost(), Seed: seed, Rounds: rounds}
	for _, crash := range []bool{false, true} {
		for _, drop := range FaultDropRates {
			c, err := faultRun(Observe, seed, drop, crash, rounds)
			if err != nil {
				return nil, fmt.Errorf("fault drop=%.2f crash=%v: %w", drop, crash, err)
			}
			res.Cells = append(res.Cells, c)
		}
	}
	return res, nil
}

// faultRun executes one fault-sweep cell in a fresh world.
func faultRun(obs observeFn, seed uint64, drop float64, crash bool, rounds int) (FaultCell, error) {
	cell := FaultCell{DropProb: drop, Crash: crash}
	node := xemem.NewNode(xemem.NodeConfig{Seed: seed, MemBytes: 2 << 30})
	tr := cellTracer(obs, fmt.Sprintf("fault/drop=%.2f/crash=%v", drop, crash), node.World())

	plan := fault.Plan{DropProb: drop, DelayProb: drop, DelayMax: 5 * sim.Microsecond}
	ck, err := node.BootCoKernel("victim", 256<<20)
	if err != nil {
		return cell, err
	}
	if crash {
		plan.Crashes = []fault.Crash{{At: faultCrashAt, Module: ck.Module.Name()}}
	}
	inj := fault.New(node.World(), plan)
	inj.Register(node.LinuxModule(), ck.Module)
	inj.Arm()

	exp, heap, err := node.KittenProcess(ck, "producer", faultSegBytes+1<<16)
	if err != nil {
		return cell, err
	}
	var runErr error
	node.Spawn("producer", func(a *sim.Actor) {
		if _, err := exp.Make(a, heap.Base, faultSegBytes, xpmem.PermRead, "fault-sweep"); err != nil {
			// Under heavy loss the export itself may exhaust its budget;
			// the consumer then reports rounds of failures, which is the
			// behaviour under measurement, not a harness error.
			if !errors.Is(err, core.ErrTimeout) && !errors.Is(err, core.ErrEnclaveDown) {
				runErr = err
			}
		}
	})

	att, _ := node.LinuxProcess("consumer", 1)
	var attachNs []int64
	node.Spawn("consumer", func(a *sim.Actor) {
		var segid xpmem.Segid
		if !a.Retry(20*sim.Microsecond, a.Now()+faultCrashAt/2, func() bool {
			s, err := att.Lookup(a, "fault-sweep")
			if err != nil {
				return false
			}
			segid = s
			return true
		}) {
			return // never exported; every cycle is unattempted
		}
		for i := 0; i < rounds; i++ {
			cell.Attempts++
			start := a.Now()
			apid, err := att.GetWith(a, segid, xpmem.GetOpts{Perm: xpmem.PermRead, Timeout: faultGetTimeout})
			if err != nil {
				cell.classify(err)
				continue
			}
			va, err := att.AttachWith(a, segid, apid, xpmem.AttachOpts{Bytes: faultSegBytes, Perm: xpmem.PermRead, Timeout: faultAttTimeout})
			if err != nil {
				cell.classify(err)
				_ = att.Release(a, segid, apid)
				continue
			}
			attachNs = append(attachNs, int64(a.Now()-start))
			cell.Successes++
			buf := make([]byte, 64)
			if _, err := att.Read(va, buf); err != nil {
				cell.classify(err)
			}
			if err := att.Detach(a, va); err != nil {
				cell.classify(err)
			}
			if err := att.Release(a, segid, apid); err != nil {
				cell.classify(err)
			}
		}
	})
	if err := node.Run(); err != nil {
		return cell, err
	}
	if runErr != nil {
		return cell, runErr
	}

	cell.finish()
	cell.Retries = node.LinuxModule().Stats.Retries
	st := inj.Stats()
	cell.Drops, cell.Delays = st.Drops, st.Delays
	cell.P50AttachNs = percentileNs(attachNs, 50)
	cell.P99AttachNs = percentileNs(attachNs, 99)
	cell.Digest = tr.Digest().SHA256
	return cell, nil
}

// cycleTally counts one sweep cell's request cycles and attributes each
// failure to the failure model's error classes. Embedded in a cell
// struct, its fields marshal flat in place.
type cycleTally struct {
	Attempts    int     `json:"attempts"`
	Successes   int     `json:"successes"`
	SuccessRate float64 `json:"success_rate"`
	Timeouts    int     `json:"timeouts"`
	EnclaveDown int     `json:"enclave_down"`
	OtherErrors int     `json:"other_errors"`
}

// classify attributes one failed request.
func (t *cycleTally) classify(err error) {
	switch {
	case errors.Is(err, core.ErrTimeout):
		t.Timeouts++
	case errors.Is(err, core.ErrEnclaveDown):
		t.EnclaveDown++
	default:
		t.OtherErrors++
	}
}

// finish derives the success rate once the cell has run.
func (t *cycleTally) finish() {
	if t.Attempts > 0 {
		t.SuccessRate = float64(t.Successes) / float64(t.Attempts)
	}
}

// percentileNs returns the p-th percentile of samples (nearest-rank), 0
// when empty.
func percentileNs(samples []int64, p int) int64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]int64(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := (p*len(s) + 99) / 100
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// String renders the sweep for the terminal.
func (r *FaultSweepResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fault sweep: %d get/attach cycles per cell, seed %d\n", r.Rounds, r.Seed)
	fmt.Fprintf(&b, "%-10s %-6s %9s %9s %9s %8s %8s %8s %12s %12s\n",
		"drop", "crash", "success", "timeout", "encdown", "retries", "drops", "delays", "p50 attach", "p99 attach")
	for _, c := range r.Cells {
		fmt.Fprintf(&b, "%-10.2f %-6v %8.0f%% %9d %9d %8d %8d %8d %10.1fµs %10.1fµs\n",
			c.DropProb, c.Crash, c.SuccessRate*100, c.Timeouts, c.EnclaveDown,
			c.Retries, c.Drops, c.Delays,
			float64(c.P50AttachNs)/1e3, float64(c.P99AttachNs)/1e3)
	}
	return b.String()
}
