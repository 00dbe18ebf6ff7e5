// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation, plus ablations for the design decisions DESIGN.md calls
// out. Each benchmark drives the deterministic simulator and reports the
// *simulated* quantities of interest via b.ReportMetric (GB/s of
// attachment throughput, milliseconds of detour, seconds of workload
// completion); the wall-clock ns/op measures the simulator itself.
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
	"xemem/internal/pagetable"
	"xemem/internal/palacios"
	"xemem/internal/pisces"
	"xemem/internal/proc"
	"xemem/internal/sim"
	"xemem/internal/xpmem"
)

// BenchmarkFig5AttachVsRDMA regenerates Figure 5 and reports the 1 GB
// attach throughput and the RDMA baseline.
func BenchmarkFig5AttachVsRDMA(b *testing.B) {
	var last *experiments.Fig5Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig5(uint64(i+1), 50)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	row := last.Rows[len(last.Rows)-1]
	b.ReportMetric(row.AttachGBs, "sim-attach-GB/s")
	b.ReportMetric(row.AttachReadGBs, "sim-attach+read-GB/s")
	b.ReportMetric(row.RDMAGBs, "sim-rdma-GB/s")
}

// BenchmarkFig6EnclaveScaling regenerates Figure 6 and reports the
// 1-enclave and 8-enclave 1 GB throughput (the dip-then-flat shape).
func BenchmarkFig6EnclaveScaling(b *testing.B) {
	var last *experiments.Fig6Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig6(uint64(i+1), 30)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	var one, eight float64
	for _, c := range last.Cells {
		if c.SizeMB == 1024 && c.Enclaves == 1 {
			one = c.GBs
		}
		if c.SizeMB == 1024 && c.Enclaves == 8 {
			eight = c.GBs
		}
	}
	b.ReportMetric(one, "sim-1enclave-GB/s")
	b.ReportMetric(eight, "sim-8enclave-GB/s")
}

// BenchmarkTable2VMThroughput regenerates Table 2 and reports all three
// pairings plus the rb-tree-excluded figure.
func BenchmarkTable2VMThroughput(b *testing.B) {
	var last *experiments.Table2Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table2(uint64(i+1), 5, 0)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.Rows[0].GBs, "sim-native-GB/s")
	b.ReportMetric(last.Rows[1].GBs, "sim-vm-attach-GB/s")
	b.ReportMetric(last.Rows[1].NoRBTreeGBs, "sim-vm-attach-no-rbtree-GB/s")
	b.ReportMetric(last.Rows[2].GBs, "sim-vm-export-GB/s")
}

// BenchmarkFig7NoiseProfile regenerates Figure 7 and reports the average
// 1 GB serve detour in milliseconds.
func BenchmarkFig7NoiseProfile(b *testing.B) {
	var last *experiments.Fig7Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig7(uint64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	for _, p := range last.Phases {
		if p.Size == "1GB" {
			b.ReportMetric(p.Class("xemem-attach").AvgUS/1000, "sim-1GB-detour-ms")
		}
		if p.Size == "4KB" {
			b.ReportMetric(p.Class("xemem-attach").AvgUS, "sim-4KB-detour-us")
		}
	}
}

// BenchmarkFig8Composed regenerates Figure 8 (one run per cell) and
// reports the sync one-time completion times of the best and worst
// configurations.
func BenchmarkFig8Composed(b *testing.B) {
	var last *experiments.Fig8Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig8(uint64(i+1), 1)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.Cell(experiments.KittenLinux, true, false).MeanS, "sim-kitten-linux-s")
	b.ReportMetric(last.Cell(experiments.LinuxLinux, true, false).MeanS, "sim-linux-linux-s")
}

// BenchmarkFig9WeakScaling regenerates Figure 9 (one run per cell) and
// reports the 8-node completion times of both configurations.
func BenchmarkFig9WeakScaling(b *testing.B) {
	var last *experiments.Fig9Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig9(uint64(i+1), 1)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.Cell(8, false, false).MeanS, "sim-linuxonly-8node-s")
	b.ReportMetric(last.Cell(8, true, false).MeanS, "sim-multienclave-8node-s")
}

// --- Allocation-diet benchmarks ------------------------------------------

// BenchmarkAttach1GB measures the host cost of the attach hot path — the
// serve walk, frame-list transfer, and batched map install for a 1 GB
// cross-enclave attachment — with allocations reported so the diet
// (slab frame backing, recycled wire buffers, batched map ops) is
// regression-visible.
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
// multi-enclave composed run — the unit of work the parallel runner
// distributes across cores.
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

// --- Ablations (DESIGN.md §4) -------------------------------------------

// guestAttachOnce boots a VM with the given memory-map kind, attaches a
// host region of the given pages once from inside the guest, and returns
// the simulated attach latency and accumulated map-insert time.
func guestAttachOnce(b *testing.B, kind palacios.MapKind, pages uint64, scattered bool) (sim.Time, sim.Time) {
	b.Helper()
	node := xemem.NewNode(xemem.NodeConfig{Seed: 3, MemBytes: 8 << 30})
	vm, err := palacios.Launch("vm0", node.World(), node.Costs(), node.Phys(), node.Linux().Zone(), 1<<30, 1, node.LinuxModule(), kind)
	if err != nil {
		b.Fatal(err)
	}
	hp := node.Linux().NewProcess("exp", 1)
	var base uint64
	if scattered {
		region, err := node.Linux().Alloc(hp, "buf", pages, true)
		if err != nil {
			b.Fatal(err)
		}
		base = uint64(region.Base)
	} else {
		region, err := node.Linux().AllocContiguous(hp, "buf", pages, true)
		if err != nil {
			b.Fatal(err)
		}
		base = uint64(region.Base)
	}
	gp := vm.Guest.NewProcess("att", 0)
	gSess := xpmemSession(vm, gp)
	hSess := hostSession(node, hp)

	var attach sim.Time
	node.Spawn("ablate", func(a *sim.Actor) {
		segid, err := hSess.Make(a, vaOf(base), pages*4096, xpmem.PermRead, "")
		if err != nil {
			b.Error(err)
			return
		}
		apid, err := gSess.GetWith(a, segid, xpmem.GetOpts{Perm: xpmem.PermRead})
		if err != nil {
			b.Error(err)
			return
		}
		start := a.Now()
		if _, err := gSess.AttachWith(a, segid, apid, xpmem.AttachOpts{Bytes: pages * 4096, Perm: xpmem.PermRead}); err != nil {
			b.Error(err)
			return
		}
		attach = a.Now() - start
	})
	if err := node.Run(); err != nil {
		b.Fatal(err)
	}
	return attach, vm.MapInsertTime
}

// BenchmarkAblationGuestMapRBTreeVsRadix compares Palacios' rb-tree
// memory map against the paper's proposed radix replacement (§5.4 future
// work) under a 64 MB guest attachment.
func BenchmarkAblationGuestMapRBTreeVsRadix(b *testing.B) {
	for _, cfg := range []struct {
		name string
		kind palacios.MapKind
	}{{"rbtree", palacios.RBTree}, {"radix", palacios.Radix}} {
		b.Run(cfg.name, func(b *testing.B) {
			var attach, insert sim.Time
			for i := 0; i < b.N; i++ {
				attach, insert = guestAttachOnce(b, cfg.kind, 16384, false)
			}
			b.ReportMetric(attach.Millis(), "sim-attach-ms")
			b.ReportMetric(insert.Millis(), "sim-map-insert-ms")
		})
	}
}

// BenchmarkAblationFragmentation compares attaching a physically
// contiguous export against a fragmented one from inside a guest: the
// frame list grows from one extent to hundreds, and the import memoization
// no longer applies.
func BenchmarkAblationFragmentation(b *testing.B) {
	for _, cfg := range []struct {
		name      string
		scattered bool
	}{{"contiguous", false}, {"scattered", true}} {
		b.Run(cfg.name, func(b *testing.B) {
			var attach sim.Time
			for i := 0; i < b.N; i++ {
				attach, _ = guestAttachOnce(b, palacios.RBTree, 16384, cfg.scattered)
			}
			b.ReportMetric(attach.Millis(), "sim-attach-ms")
		})
	}
}

// BenchmarkAblationSmartmapVsDynamic compares Kitten's SMARTMAP local
// fast path (O(1) slot share) against the dynamic cross-enclave protocol
// (§3.3's design trade-off) for a 64 MB region.
func BenchmarkAblationSmartmapVsDynamic(b *testing.B) {
	const pages = 16384
	b.Run("smartmap-local", func(b *testing.B) {
		var attach sim.Time
		for i := 0; i < b.N; i++ {
			node := xemem.NewNode(xemem.NodeConfig{Seed: 5, MemBytes: 8 << 30})
			ck, err := node.BootCoKernel("kitten0", 1<<30)
			if err != nil {
				b.Fatal(err)
			}
			exp, heap, err := node.KittenProcess(ck, "exp", pages*4096)
			if err != nil {
				b.Fatal(err)
			}
			att, _, err := node.KittenProcess(ck, "att", 1<<20)
			if err != nil {
				b.Fatal(err)
			}
			node.Spawn("local", func(a *sim.Actor) {
				segid, err := exp.Make(a, heap.Base, pages*4096, xpmem.PermRead, "")
				if err != nil {
					b.Error(err)
					return
				}
				apid, err := att.GetWith(a, segid, xpmem.GetOpts{Perm: xpmem.PermRead})
				if err != nil {
					b.Error(err)
					return
				}
				start := a.Now()
				if _, err := att.AttachWith(a, segid, apid, xpmem.AttachOpts{Bytes: pages * 4096, Perm: xpmem.PermRead}); err != nil {
					b.Error(err)
					return
				}
				attach = a.Now() - start
			})
			if err := node.Run(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(attach.Micros(), "sim-attach-us")
	})
	b.Run("dynamic-cross-enclave", func(b *testing.B) {
		var attach sim.Time
		for i := 0; i < b.N; i++ {
			node := xemem.NewNode(xemem.NodeConfig{Seed: 5, MemBytes: 8 << 30})
			ck, err := node.BootCoKernel("kitten0", 1<<30)
			if err != nil {
				b.Fatal(err)
			}
			exp, heap, err := node.KittenProcess(ck, "exp", pages*4096)
			if err != nil {
				b.Fatal(err)
			}
			att, _ := node.LinuxProcess("att", 1)
			node.Spawn("remote", func(a *sim.Actor) {
				segid, err := exp.Make(a, heap.Base, pages*4096, xpmem.PermRead, "")
				if err != nil {
					b.Error(err)
					return
				}
				apid, err := att.GetWith(a, segid, xpmem.GetOpts{Perm: xpmem.PermRead})
				if err != nil {
					b.Error(err)
					return
				}
				start := a.Now()
				if _, err := att.AttachWith(a, segid, apid, xpmem.AttachOpts{Bytes: pages * 4096, Perm: xpmem.PermRead}); err != nil {
					b.Error(err)
					return
				}
				attach = a.Now() - start
			})
			if err := node.Run(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(attach.Micros(), "sim-attach-us")
	})
}

// BenchmarkAblationIPIDistribution evaluates the §5.3 future work: with
// 8 co-kernel enclaves hammering the management enclave with small (4 KB)
// attachments, the single-worker configuration funnels every message
// through core 0; distributing the handlers over 4 kernel workers
// relieves the funnel. Reported: aggregate simulated completion time of
// the attach storm and the wait time accumulated at core 0.
func BenchmarkAblationIPIDistribution(b *testing.B) {
	run := func(workers int) (sim.Time, sim.Time) {
		node := xemem.NewNode(xemem.NodeConfig{Seed: 13, MemBytes: 32 << 30, LinuxCores: 9, KernelWorkers: workers})
		const enclaves, attaches = 8, 200
		type pair struct {
			exp, att *xpmem.Session
			base     pagetable.VA
		}
		pairs := make([]pair, enclaves)
		for i := 0; i < enclaves; i++ {
			ck, err := node.BootCoKernel(names8[i], 128<<20)
			if err != nil {
				b.Fatal(err)
			}
			exp, heap, err := node.KittenProcess(ck, "exp", 1<<20)
			if err != nil {
				b.Fatal(err)
			}
			att, _ := node.LinuxProcess("att", 1+i)
			pairs[i] = pair{exp: exp, att: att, base: heap.Base}
		}
		var slowest sim.Time
		for i := range pairs {
			p := pairs[i]
			node.Spawn("storm", func(a *sim.Actor) {
				segid, err := p.exp.Make(a, p.base, 4096, xpmem.PermRead, "")
				if err != nil {
					b.Error(err)
					return
				}
				for r := 0; r < attaches; r++ {
					// Full permit churn per cycle: get → attach →
					// detach → release, so every cycle pushes several
					// responses through the management enclave's
					// handlers.
					apid, err := p.att.GetWith(a, segid, xpmem.GetOpts{Perm: xpmem.PermRead})
					if err != nil {
						b.Error(err)
						return
					}
					va, err := p.att.AttachWith(a, segid, apid, xpmem.AttachOpts{Bytes: 4096, Perm: xpmem.PermRead})
					if err != nil {
						b.Error(err)
						return
					}
					if err := p.att.Detach(a, va); err != nil {
						b.Error(err)
						return
					}
					if err := p.att.Release(a, segid, apid); err != nil {
						b.Error(err)
						return
					}
				}
				if a.Now() > slowest {
					slowest = a.Now()
				}
			})
		}
		if err := node.Run(); err != nil {
			b.Fatal(err)
		}
		return slowest, node.Linux().Cores()[0].BusyTime()
	}
	for _, cfg := range []struct {
		name    string
		workers int
	}{{"core0-funnel", 1}, {"distributed-4", 4}} {
		b.Run(cfg.name, func(b *testing.B) {
			var total, busy sim.Time
			for i := 0; i < b.N; i++ {
				total, busy = run(cfg.workers)
			}
			b.ReportMetric(total.Millis(), "sim-storm-ms")
			b.ReportMetric(busy.Millis(), "sim-core0-busy-ms")
		})
	}
}

var names8 = []string{"k0", "k1", "k2", "k3", "k4", "k5", "k6", "k7"}

// BenchmarkAblationRoutingDepth measures attach latency as the exporter
// moves deeper into the enclave tree (§3.2: fixed per-hop cost, amortized
// away for large regions).
func BenchmarkAblationRoutingDepth(b *testing.B) {
	for _, depth := range []int{1, 2, 3, 4} {
		b.Run(map[int]string{1: "depth1", 2: "depth2", 3: "depth3", 4: "depth4"}[depth], func(b *testing.B) {
			var attach sim.Time
			for i := 0; i < b.N; i++ {
				node := xemem.NewNode(xemem.NodeConfig{Seed: 9, MemBytes: 16 << 30})
				parentMod := node.LinuxModule()
				parentZone := node.Linux().Zone()
				var deepest *pisces.CoKernel
				for d := 0; d < depth; d++ {
					ck, err := pisces.CreateCoKernel(
						"kitten-d", node.World(), node.Costs(), node.Phys(),
						parentZone, 512<<20, parentMod)
					if err != nil {
						b.Fatal(err)
					}
					deepest = ck
					parentMod = ck.Module
					parentZone = ck.OS.Zone()
				}
				exp, heap, err := node.KittenProcess(deepest, "exp", 16<<20)
				if err != nil {
					b.Fatal(err)
				}
				att, _ := node.LinuxProcess("att", 1)
				node.Spawn("deep", func(a *sim.Actor) {
					segid, err := exp.Make(a, heap.Base, 4096, xpmem.PermRead, "")
					if err != nil {
						b.Error(err)
						return
					}
					apid, err := att.GetWith(a, segid, xpmem.GetOpts{Perm: xpmem.PermRead})
					if err != nil {
						b.Error(err)
						return
					}
					start := a.Now()
					if _, err := att.AttachWith(a, segid, apid, xpmem.AttachOpts{Bytes: 4096, Perm: xpmem.PermRead}); err != nil {
						b.Error(err)
						return
					}
					attach = a.Now() - start
				})
				if err := node.Run(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(attach.Micros(), "sim-attach-us")
		})
	}
}

// --- helpers -------------------------------------------------------------

func xpmemSession(vm *palacios.VM, p *proc.Process) *xpmem.Session {
	return xpmem.NewSession(vm.Module, p)
}

func hostSession(n *xemem.Node, p *proc.Process) *xpmem.Session {
	return xpmem.NewSession(n.LinuxModule(), p)
}

func vaOf(base uint64) pagetable.VA { return pagetable.VA(base) }
