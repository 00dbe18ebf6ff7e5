// Benchmark harness: the host cost of the simulator's hot paths (a 1 GB
// attach, a warm collective, one Figure 9 cell, the whole -fast figure
// regeneration). The wall-clock ns/op measures the simulator itself;
// simulated quantities are checked by tests, not reported here. The
// paper's figures are regenerated by `xemem-bench -experiment` and
// checked by internal/experiments' tests.
//
// Run with: go test -bench=. -benchmem
package xemem_test

import (
	"fmt"
	"strings"
	"testing"

	"xemem"
	"xemem/internal/coll"
	"xemem/internal/experiments"
	"xemem/internal/sim"
	"xemem/internal/xpmem"
)

// --- Allocation-diet benchmarks ------------------------------------------

// BenchmarkAttach1GB measures the host cost of the attach hot path — the
// serve walk, frame-list transfer, and batched map install for a 1 GB
// cross-enclave attachment — with allocations reported so the diet
// (recycled wire buffers, batched map ops) is regression-visible. Nothing
// writes the segment, so no frame is materialized and frame backing
// costs it nothing: mem's growing slabs show in BenchmarkFig9Cell, whose
// worlds write a control page per node.
func BenchmarkAttach1GB(b *testing.B) {
	node := xemem.NewNode(xemem.NodeConfig{Seed: 5, MemBytes: 32 << 30, LinuxCores: 4})
	ck, err := node.BootCoKernel("kitten0", 2<<30)
	if err != nil {
		b.Fatal(err)
	}
	expSess, heap, err := node.KittenProcess(ck, "exporter", 1<<30)
	if err != nil {
		b.Fatal(err)
	}
	attSess, _ := node.LinuxProcess("attacher", 1)
	const bytes = uint64(1) << 30
	b.ReportAllocs()
	node.Spawn("attach-bench", func(a *sim.Actor) {
		segid, err := expSess.Make(a, heap.Base, bytes, xpmem.PermRead|xpmem.PermWrite, "")
		if err != nil {
			b.Error(err)
			return
		}
		apid, err := attSess.GetWith(a, segid, xpmem.GetOpts{Perm: xpmem.PermRead})
		if err != nil {
			b.Error(err)
			return
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			va, err := attSess.AttachWith(a, segid, apid, xpmem.AttachOpts{Bytes: bytes, Perm: xpmem.PermRead})
			if err != nil {
				b.Error(err)
				return
			}
			// Detach between reps so each rep attaches into an empty
			// address space, and the pins never pile up.
			if err := attSess.Detach(a, va); err != nil {
				b.Error(err)
				return
			}
		}
	})
	if err := node.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkCollAllreduce measures the host cost of the collective data
// plane: a warm 256 KB allreduce over six co-kernel ranks (zero-copy
// plane, four 64 KB chunks per rank), with allocations reported so the
// reused per-rank chunk scratch and the one-translate access path stay
// regression-visible. Set-up and the first operation, which attaches
// every peer window, run before the timer starts.
func BenchmarkCollAllreduce(b *testing.B) {
	const ranks, bytes = 6, 256 << 10
	node := xemem.NewNode(xemem.NodeConfig{Seed: 7, MemBytes: 8 << 30})
	topo, err := xemem.ParseTopology(strings.TrimSuffix(strings.Repeat("kitten,", ranks), ","))
	if err != nil {
		b.Fatal(err)
	}
	topo.KittenBytes = 64 << 20
	encl, err := topo.Build(node)
	if err != nil {
		b.Fatal(err)
	}
	// Every rank's heap holds its buffer, then room for the CICO arenas
	// a leader carves out at Setup (one 64 KB slot per rank per level).
	scratch := uint64(ranks*len(xemem.DefaultLevels)) * (64 << 10)
	members := make([]coll.Member, ranks)
	for i, e := range encl {
		s, heap, err := node.KittenProcess(e.Kitten, fmt.Sprintf("rank%d", i), bytes+scratch)
		if err != nil {
			b.Fatal(err)
		}
		members[i] = coll.Member{Sess: s, Buf: heap.Base, Scratch: heap.Base + bytes, Loc: e.Loc}
	}
	comm, err := coll.New(members, bytes, coll.Opts{})
	if err != nil {
		b.Fatal(err)
	}
	w := node.World()
	allreduce := func(reps int) {
		for r := range members {
			r := r
			w.SpawnAt(fmt.Sprintf("rank%d", r), w.Now(), func(a *sim.Actor) {
				for i := 0; i < reps; i++ {
					if err := comm.Allreduce(a, r, bytes); err != nil {
						b.Error(err)
						return
					}
				}
			})
		}
		if err := w.Run(); err != nil {
			b.Fatal(err)
		}
	}
	allreduce(1)
	b.ReportAllocs()
	b.ResetTimer()
	allreduce(b.N)
}

// BenchmarkFig9Cell measures one Figure 9 sweep cell — a full 2-node
// multi-enclave composed run — the unit of work of the Figure 9 sweep.
func BenchmarkFig9Cell(b *testing.B) {
	b.ReportAllocs()
	var last sim.Time
	for i := 0; i < b.N; i++ {
		t, err := experiments.Fig9Run(uint64(i+1), 2, true, false)
		if err != nil {
			b.Fatal(err)
		}
		last = t
	}
	b.ReportMetric(float64(last)/1e9, "sim-completion-s")
}

// BenchmarkFigures measures the end-to-end host cost of the evaluation:
// one op regenerates every entry of the artifact table (the paper's
// figures and Table 2, then the fault, cluster and coll sweeps) at its
// -fast count, as `xemem-bench -experiment all -fast` does.
func BenchmarkFigures(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, a := range experiments.Artifacts() {
			if _, err := a.Grid(42, a.Fast).Run(nil); err != nil {
				b.Fatalf("%s: %v", a.Name, err)
			}
		}
	}
}
