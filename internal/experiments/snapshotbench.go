package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"xemem/internal/experiments/sweep"
	"xemem/internal/sim/snapshot"
	"xemem/internal/sim/trace"
)

// SnapshotBenchCell is one suffix workload of the snapshot benchmark,
// run both ways: re-bootstrapped through the shared prefix and forked
// from the prefix's snapshot image. The simulated outcome columns are
// from the bootstrap run; Identical asserts the fork produced the very
// same outcome (digest included).
type SnapshotBenchCell struct {
	Label       string       `json:"label"`
	Recurring   bool         `json:"recurring"`
	SuffixIters int          `json:"suffix_iters"`
	SimTimeNs   int64        `json:"sim_time_ns"`
	Points      int          `json:"points"`
	Digest      trace.Digest `json:"digest"`

	BootstrapHostNs float64 `json:"bootstrap_host_ns"`
	ForkHostNs      float64 `json:"fork_host_ns"`
	Speedup         float64 `json:"speedup"`
	Identical       bool    `json:"identical"`
}

// SnapshotBenchResult records the snapshot-forked sweep's win over
// re-bootstrapping (BENCH_snapshot.json): every cell of a Figure 9
// suffix sweep shares one bootstrap prefix, so forking from the prefix's
// snapshot image replaces PrefixIters simulated iterations per cell with
// one image decode and overlay. Simulated results are byte-identical
// either way — the digests prove it — so the speedup is pure host time.
type SnapshotBenchResult struct {
	Host HostInfo `json:"host"`

	Seed         uint64 `json:"seed"`
	Nodes        int    `json:"nodes"`
	MultiEnclave bool   `json:"multi_enclave"`
	PrefixIters  int    `json:"prefix_iters"`

	SnapshotBytes  int     `json:"snapshot_bytes"`
	SnapshotSHA256 string  `json:"snapshot_sha256"`
	SnapshotCutNs  int64   `json:"snapshot_cut_ns"`
	PrefixHostNs   float64 `json:"prefix_host_ns"`
	EncodeHostNs   float64 `json:"encode_host_ns"`
	DecodeHostNs   float64 `json:"decode_host_ns"`

	SweepsIdentical bool    `json:"sweeps_identical"`
	MinSpeedup      float64 `json:"min_speedup"`

	Cells []SnapshotBenchCell `json:"cells"`
}

// snapshotBenchTails is the benchmark's suffix sweep: both attachment
// models at two suffix lengths.
var snapshotBenchTails = []fig9Tail{
	{Recurring: false, Iters: 60},
	{Recurring: true, Iters: 60},
	{Recurring: false, Iters: 90},
	{Recurring: true, Iters: 90},
}

// SnapshotBench measures the snapshot-forked Figure 9 sweep against the
// re-bootstrapped one. Cells run serially (workers=1) so the per-cell
// wall clocks are clean; the fork cells go through sweep.FromSnapshot,
// sharing one lazily-decoded image exactly as a production sweep would.
func SnapshotBench(seed uint64) (*SnapshotBenchResult, error) {
	p := fig9PrefixParams{Nodes: 2, MultiEnclave: true, PrefixIters: 480, Recurring: true}
	res := &SnapshotBenchResult{
		Host: CaptureHost(), Seed: seed,
		Nodes: p.Nodes, MultiEnclave: p.MultiEnclave, PrefixIters: p.PrefixIters,
	}

	// One reference prefix: its snapshot image is what every fork cell
	// shares, and its encode/decode cost is the fork path's overhead.
	start := time.Now() //xemem:wallclock -- host-side benchmark timer for BENCH_snapshot.json
	ph, err := fig9Snapshot(seed, p)
	if err != nil {
		return nil, err
	}
	res.PrefixHostNs = float64(time.Since(start).Nanoseconds()) //xemem:wallclock -- host-side benchmark timer for BENCH_snapshot.json
	start = time.Now()                                          //xemem:wallclock -- host-side benchmark timer for BENCH_snapshot.json
	img := ph.w.SnapshotImage()
	enc := img.Encode()
	res.EncodeHostNs = float64(time.Since(start).Nanoseconds()) //xemem:wallclock -- host-side benchmark timer for BENCH_snapshot.json
	res.SnapshotBytes = len(enc)
	res.SnapshotSHA256 = img.Hash()
	res.SnapshotCutNs = img.CutNs
	start = time.Now() //xemem:wallclock -- host-side benchmark timer for BENCH_snapshot.json
	if _, err := snapshot.Decode(enc); err != nil {
		return nil, err
	}
	res.DecodeHostNs = float64(time.Since(start).Nanoseconds()) //xemem:wallclock -- host-side benchmark timer for BENCH_snapshot.json

	// timedOutcome pairs a cell's simulated outcome with its host cost.
	type timedOutcome struct {
		out fig9Outcome
		ns  float64
	}

	bootCells := make([]sweep.Cell[timedOutcome], len(snapshotBenchTails))
	forkCells := make([]sweep.SnapCell[*snapshot.Image, timedOutcome], len(snapshotBenchTails))
	for i, tail := range snapshotBenchTails {
		tail := tail
		label := fmt.Sprintf("suffix rec=%v iters=%d", tail.Recurring, tail.Iters)
		bootCells[i] = sweep.Cell[timedOutcome]{
			Label: "bootstrap " + label,
			Run: func() (timedOutcome, error) {
				start := time.Now() //xemem:wallclock -- host-side benchmark timer for BENCH_snapshot.json
				bp, err := fig9Snapshot(seed, p)
				if err != nil {
					return timedOutcome{}, err
				}
				out, err := bp.runSuffix(tail)
				if err != nil {
					return timedOutcome{}, err
				}
				return timedOutcome{out, float64(time.Since(start).Nanoseconds())}, nil //xemem:wallclock -- host-side benchmark timer for BENCH_snapshot.json
			},
		}
		forkCells[i] = sweep.SnapCell[*snapshot.Image, timedOutcome]{
			Label: "fork " + label,
			Run: func(shared *snapshot.Image) (timedOutcome, error) {
				start := time.Now() //xemem:wallclock -- host-side benchmark timer for BENCH_snapshot.json
				fk, err := fig9Fork(shared)
				if err != nil {
					return timedOutcome{}, err
				}
				out, err := fk.runSuffix(tail)
				if err != nil {
					return timedOutcome{}, err
				}
				return timedOutcome{out, float64(time.Since(start).Nanoseconds())}, nil //xemem:wallclock -- host-side benchmark timer for BENCH_snapshot.json
			},
		}
	}

	boots, err := sweep.Run(bootCells, 1)
	if err != nil {
		return nil, err
	}
	prep := func() (*snapshot.Image, error) { return snapshot.Decode(enc) }
	forks, err := sweep.Run(sweep.FromSnapshot(prep, forkCells), 1)
	if err != nil {
		return nil, err
	}

	bootOuts := make([]fig9Outcome, len(boots))
	forkOuts := make([]fig9Outcome, len(forks))
	res.MinSpeedup = 0
	for i := range boots {
		bootOuts[i], forkOuts[i] = boots[i].out, forks[i].out
		cell := SnapshotBenchCell{
			Label:       fmt.Sprintf("rec=%v iters=%d", snapshotBenchTails[i].Recurring, snapshotBenchTails[i].Iters),
			Recurring:   snapshotBenchTails[i].Recurring,
			SuffixIters: snapshotBenchTails[i].Iters,
			SimTimeNs:   boots[i].out.SimTimeNs,
			Points:      boots[i].out.Points,
			Digest:      boots[i].out.Digest,

			BootstrapHostNs: boots[i].ns,
			ForkHostNs:      forks[i].ns,
			Identical:       boots[i].out == forks[i].out,
		}
		if cell.ForkHostNs > 0 {
			cell.Speedup = cell.BootstrapHostNs / cell.ForkHostNs
		}
		if i == 0 || cell.Speedup < res.MinSpeedup {
			res.MinSpeedup = cell.Speedup
		}
		res.Cells = append(res.Cells, cell)
	}
	bj, err := json.MarshalIndent(bootOuts, "", "  ")
	if err != nil {
		return nil, err
	}
	fj, err := json.MarshalIndent(forkOuts, "", "  ")
	if err != nil {
		return nil, err
	}
	res.SweepsIdentical = bytes.Equal(bj, fj)
	return res, nil
}

// String renders the benchmark for the terminal.
func (r *SnapshotBenchResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Snapshot-forked sweep benchmark (fig9 nodes=%d multi=%v, prefix %d iters)\n",
		r.Nodes, r.MultiEnclave, r.PrefixIters)
	fmt.Fprintf(&b, "  snapshot: %d bytes, cut %.3f s, encode %.2f ms, decode %.2f ms, sha256 %s\n",
		r.SnapshotBytes, float64(r.SnapshotCutNs)/1e9, r.EncodeHostNs/1e6, r.DecodeHostNs/1e6, r.SnapshotSHA256[:16])
	fmt.Fprintf(&b, "  prefix bootstrap: %.2f ms host\n", r.PrefixHostNs/1e6)
	fmt.Fprintf(&b, "  %-22s %14s %14s %9s %s\n", "cell", "bootstrap", "fork", "speedup", "identical")
	for _, c := range r.Cells {
		fmt.Fprintf(&b, "  %-22s %11.2f ms %11.2f ms %8.2fx %v\n",
			c.Label, c.BootstrapHostNs/1e6, c.ForkHostNs/1e6, c.Speedup, c.Identical)
	}
	fmt.Fprintf(&b, "  sweeps identical: %v   min speedup: %.2fx\n", r.SweepsIdentical, r.MinSpeedup)
	return b.String()
}
