package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"xemem"
	"xemem/internal/sim"
	"xemem/internal/sim/trace"
	"xemem/internal/xpmem"
)

// ParallelBenchCell is one point of the partition-count × actor-count
// scaling grid: one multi-enclave world run on the serial reference
// engine and on the conservative parallel engine, with trace-digest
// identity checked and host wall-clocks compared. Speedup is a ratio of
// host times — on a single-core container it hovers near (or below) 1.0,
// which is why the Host header records the core count.
type ParallelBenchCell struct {
	Partitions int `json:"partitions"`
	Actors     int `json:"actors"` // app actors, excluding per-enclave substrate

	FinalNs int64 `json:"final_ns"` // simulated completion (identical in all modes)

	SerialDigest   string `json:"serial_digest"`
	ParallelDigest string `json:"parallel_digest"`
	Identical      bool   `json:"identical"`

	SerialNs   float64 `json:"serial_ns"`
	ParallelNs float64 `json:"parallel_ns"`
	Speedup    float64 `json:"speedup"`
}

// ParallelBenchResult is the regenerated scaling sweep
// (BENCH_parallel.json).
type ParallelBenchResult struct {
	Host    HostInfo            `json:"host"`
	Seed    uint64              `json:"seed"`
	Workers int                 `json:"workers"` // engine workers for the parallel runs
	Cells   []ParallelBenchCell `json:"cells"`
}

// ParallelBenchPartitions is the partition-count axis.
var ParallelBenchPartitions = []int{1, 2, 4, 8}

// ParallelBenchActorCounts is the actor-count axis. The 1000-actor rows
// are the acceptance target: ≥4x wall-clock on a ≥4-core host.
var ParallelBenchActorCounts = []int{256, 1000}

// parallelBenchNodes is the fixed enclave-node count of the bench world;
// node n lands in partition n % partitions, so the world construction —
// and therefore its simulated schedule — is identical at every partition
// count up to the labels.
const parallelBenchNodes = 8

// buildParallelBenchWorld constructs the scaling-bench world: nodes
// XEMEM machines, each a Linux management enclave plus a Kitten
// co-kernel, placed whole into partition n % partitions. Per node, one
// protocol driver runs attach/compute/detach cycles through the real
// cross-enclave protocol, and (actors/nodes - 1) compute workers churn
// the node's cores; nodes are coupled by a token ring of cross-partition
// mailboxes serviced by daemon couriers. All cross-partition traffic
// goes through the ring mailboxes, so any partitioning of the node set
// is safe. It returns the world and a deferred error collector.
func buildParallelBenchWorld(seed uint64, partitions, actors int) (*sim.World, func() error, error) {
	w := sim.NewWorld(seed)
	// Actor RNG streams keyed by actor id, not creation-order first use:
	// required for digest identity once partitions interleave.
	w.SetStableActorRNG(true)

	// ringLaps bounds the token ring: every courier performs exactly
	// ringLaps receives (the token counts hops down from laps × nodes), so
	// termination is deterministic.
	const ringLaps = 20
	const ringLat = 10 * sim.Microsecond
	boxes := make([]*sim.Mailbox, parallelBenchNodes)
	for n := 0; n < parallelBenchNodes; n++ {
		boxes[n] = w.NewMailbox(fmt.Sprintf("pring%d", n), n%partitions, ringLat)
	}

	perNode := actors / parallelBenchNodes
	if perNode < 2 {
		perNode = 2
	}
	var errs []error
	for n := 0; n < parallelBenchNodes; n++ {
		n := n
		w.SetDefaultPartition(n % partitions)
		node := xemem.NewNodeInWorld(w, sim.DefaultCosts(), xemem.NodeConfig{
			Name: fmt.Sprintf("node%d", n), Seed: seed, MemBytes: 4 << 30, LinuxCores: 4,
		})
		ck, err := node.BootCoKernel("kitten", 1<<30)
		if err != nil {
			return nil, nil, err
		}
		expSess, heap, err := node.KittenProcess(ck, "exporter", 64<<20)
		if err != nil {
			return nil, nil, err
		}
		attSess, _ := node.LinuxProcess("attacher", 1)
		cores := node.Linux().Cores()

		errIdx := len(errs)
		errs = append(errs, nil)
		node.Spawn("driver", func(a *sim.Actor) {
			const window = uint64(16) << 20
			segid, err := expSess.Make(a, heap.Base, window, xpmem.PermRead|xpmem.PermWrite, "")
			if err != nil {
				errs[errIdx] = err
				return
			}
			apid, err := attSess.GetWith(a, segid, xpmem.GetOpts{Perm: xpmem.PermRead})
			if err != nil {
				errs[errIdx] = err
				return
			}
			for round := 0; round < 4; round++ {
				va, err := attSess.AttachWith(a, segid, apid, xpmem.AttachOpts{Bytes: window, Perm: xpmem.PermRead})
				if err != nil {
					errs[errIdx] = err
					return
				}
				a.Charge("consume", 50*sim.Microsecond)
				if err := attSess.Detach(a, va); err != nil {
					errs[errIdx] = err
					return
				}
			}
		})

		for i := 0; i < perNode-1; i++ {
			i := i
			core := cores[2+i%(len(cores)-2)]
			node.Spawn(fmt.Sprintf("worker%d", i), func(a *sim.Actor) {
				r := a.RNG()
				for s := 0; s < 300; s++ {
					a.Charge("compute", sim.Time(200+r.Intn(800))*sim.Nanosecond)
					if s%8 == 0 {
						core.Exec(a, sim.Time(100+r.Intn(200))*sim.Nanosecond, "svc")
					}
				}
			})
		}

		// The courier is a non-daemon with a fixed receive budget, so the
		// ring is part of the world's termination rather than a perpetual
		// daemon: a free-running daemon would keep generating events right
		// up to the termination cut-off, where the serial and parallel
		// engines legitimately diverge (see DESIGN.md §11).
		node.Spawn("courier", func(a *sim.Actor) {
			if n == 0 {
				boxes[1%parallelBenchNodes].Send(a, ringLaps*parallelBenchNodes, ringLat)
			}
			for k := 0; k < ringLaps; k++ {
				hop := boxes[n].Recv(a).(int)
				a.Charge("route", 2*sim.Microsecond)
				if hop > 1 {
					boxes[(n+1)%parallelBenchNodes].Send(a, hop-1, ringLat)
				}
			}
		})
	}
	w.SetDefaultPartition(0)
	collect := func() error {
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	}
	return w, collect, nil
}

// runParallelBench executes one world build. workers <= 0 selects the
// serial reference engine; batch opts the parallel engine into
// run-to-completion advance batching (ignored when an observer is
// installed — the engine disengages batching under observation anyway).
func runParallelBench(seed uint64, partitions, actors, workers int, batch bool, obs sim.Observer) (sim.Time, error) {
	w, collect, err := buildParallelBenchWorld(seed, partitions, actors)
	if err != nil {
		return 0, err
	}
	if workers > 0 {
		w.SetParallel(workers)
		w.SetBatchedAdvances(batch)
	}
	if obs != nil {
		w.SetObserver(obs)
	}
	if err := w.Run(); err != nil {
		return 0, err
	}
	return w.Now(), collect()
}

// ParallelBench runs the partition-count × actor-count scaling grid.
// Per cell: a serial and a parallel run under a digesting tracer (the
// identity check), then an untraced serial and an untraced batched
// parallel run for the wall-clock comparison. When jsonPath is non-empty
// the result is written there (BENCH_parallel.json).
func ParallelBench(seed uint64, jsonPath string) (*ParallelBenchResult, error) {
	res := &ParallelBenchResult{
		Host:    CaptureHost(),
		Seed:    seed,
		Workers: runtime.NumCPU(),
	}
	for _, actors := range ParallelBenchActorCounts {
		for _, parts := range ParallelBenchPartitions {
			cell := ParallelBenchCell{Partitions: parts, Actors: actors}

			// Both tracers carry the same mode-neutral label: the label is
			// part of the digest, and the two streams must be byte-equal.
			serTr := trace.NewTracer(fmt.Sprintf("pb/p=%d/a=%d", parts, actors))
			serTr.SetKeepEvents(false)
			final, err := runParallelBench(seed, parts, actors, 0, false, serTr)
			if err != nil {
				return nil, err
			}
			cell.FinalNs = int64(final)
			cell.SerialDigest = serTr.Digest().SHA256

			parTr := trace.NewTracer(fmt.Sprintf("pb/p=%d/a=%d", parts, actors))
			parTr.SetKeepEvents(false)
			if _, err := runParallelBench(seed, parts, actors, res.Workers, false, parTr); err != nil {
				return nil, err
			}
			cell.ParallelDigest = parTr.Digest().SHA256
			cell.Identical = cell.SerialDigest == cell.ParallelDigest

			start := time.Now() //xemem:wallclock -- host-side benchmark timer for BENCH_parallel.json
			if _, err := runParallelBench(seed, parts, actors, 0, false, nil); err != nil {
				return nil, err
			}
			cell.SerialNs = float64(time.Since(start).Nanoseconds()) //xemem:wallclock -- host-side benchmark timer for BENCH_parallel.json
			start = time.Now()                                       //xemem:wallclock -- host-side benchmark timer for BENCH_parallel.json
			if _, err := runParallelBench(seed, parts, actors, res.Workers, true, nil); err != nil {
				return nil, err
			}
			cell.ParallelNs = float64(time.Since(start).Nanoseconds()) //xemem:wallclock -- host-side benchmark timer for BENCH_parallel.json
			if cell.ParallelNs > 0 {
				cell.Speedup = cell.SerialNs / cell.ParallelNs
			}
			res.Cells = append(res.Cells, cell)
		}
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

// String renders the scaling grid for the terminal.
func (r *ParallelBenchResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Parallel engine scaling (host: %d cores, GOMAXPROCS=%d; %d engine workers)\n",
		r.Host.NumCPU, r.Host.GOMAXPROCS, r.Workers)
	fmt.Fprintf(&b, "%10s %8s %12s %12s %9s %10s\n", "partitions", "actors", "serial", "parallel", "speedup", "identical")
	for _, c := range r.Cells {
		fmt.Fprintf(&b, "%10d %8d %10.1fms %10.1fms %8.2fx %10v\n",
			c.Partitions, c.Actors, c.SerialNs/1e6, c.ParallelNs/1e6, c.Speedup, c.Identical)
	}
	return b.String()
}
