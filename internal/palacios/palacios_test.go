package palacios_test

import (
	"testing"

	"xemem/internal/core"
	"xemem/internal/extent"
	"xemem/internal/linuxos"
	"xemem/internal/mem"
	"xemem/internal/palacios"
	"xemem/internal/pisces"
	"xemem/internal/proc"
	"xemem/internal/sim"
	"xemem/internal/xproto"
)

type vmNode struct {
	w     *sim.World
	costs *sim.Costs
	pm    *mem.PhysMem
	linux *linuxos.Linux
	lmod  *core.Module
}

func newVMNode(t *testing.T) *vmNode {
	t.Helper()
	w := sim.NewWorld(7)
	costs := sim.DefaultCosts()
	pm := mem.NewPhysMem("node0", 1<<30)
	linux := linuxos.New("linux", w, costs, pm.Zone(0), proc.HostDomain{Mem: pm}, 4)
	lmod := core.New("linux", w, costs, linux, true)
	lmod.Start()
	return &vmNode{w: w, costs: costs, pm: pm, linux: linux, lmod: lmod}
}

func (n *vmNode) launchVM(t *testing.T, name string, bytes uint64, kind palacios.MapKind) *palacios.VM {
	t.Helper()
	vm, err := palacios.Launch(name, n.w, n.costs, n.pm, n.linux.Zone(), bytes, 2, n.lmod, kind)
	if err != nil {
		t.Fatal(err)
	}
	return vm
}

// TestGuestAttachesHostMemory is Fig. 4(a): a host (Linux) process
// exports; a process inside the VM attaches. The VMM must allocate new
// guest-physical space, insert per-page memory-map entries, and the guest
// must see the host's bytes.
func TestGuestAttachesHostMemory(t *testing.T) {
	n := newVMNode(t)
	vm := n.launchVM(t, "vm0", 64<<20, palacios.RBTree)

	hp := n.linux.NewProcess("exporter", 1)
	gp := vm.Guest.NewProcess("analytics", 1)
	const pages = 16

	n.w.Spawn("driver", func(a *sim.Actor) {
		region, err := n.linux.Alloc(hp, "buf", pages, true)
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := hp.AS.Write(region.Base+5, []byte("host to guest")); err != nil {
			t.Error(err)
			return
		}
		segid, err := n.lmod.Make(a, hp, region.Base, pages*extent.PageSize, xproto.PermRead|xproto.PermWrite, "")
		if err != nil {
			t.Error(err)
			return
		}
		apid, err := vm.Module.GetWith(a, gp, segid, core.GetOpts{Perm: xproto.PermRead | xproto.PermWrite})
		if err != nil {
			t.Error(err)
			return
		}
		entriesBefore := vm.MapEntries()
		va, err := vm.Module.AttachWith(a, gp, segid, apid, core.AttachOpts{Bytes: pages * extent.PageSize, Perm: xproto.PermRead | xproto.PermWrite})
		if err != nil {
			t.Error(err)
			return
		}
		// One memory-map entry per page was inserted (§4.4/§5.4).
		if got := vm.MapEntries() - entriesBefore; got != pages {
			t.Errorf("map grew by %d entries, want %d", got, pages)
		}
		if vm.MapInsertTime <= 0 {
			t.Error("no rb-tree insert time accumulated")
		}
		got := make([]byte, 13)
		if _, err := gp.AS.Read(va+5, got); err != nil {
			t.Error(err)
			return
		}
		if string(got) != "host to guest" {
			t.Errorf("guest read %q", got)
		}
		// Guest writes are visible to the host: zero copy through the map.
		if _, err := gp.AS.Write(va+100, []byte("ack")); err != nil {
			t.Error(err)
			return
		}
		back := make([]byte, 3)
		if _, err := hp.AS.Read(region.Base+100, back); err != nil {
			t.Error(err)
			return
		}
		if string(back) != "ack" {
			t.Errorf("host read back %q", back)
		}
		// Detach prunes the map again.
		if err := vm.Module.Detach(a, gp, va); err != nil {
			t.Error(err)
			return
		}
		if got := vm.MapEntries(); got != entriesBefore {
			t.Errorf("map has %d entries after detach, want %d", got, entriesBefore)
		}
	})
	if err := n.w.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestHostAttachesGuestMemory is Fig. 4(b): a guest process exports; a
// native process attaches. The frame list is translated guest→host as it
// crosses the PCI channel.
func TestHostAttachesGuestMemory(t *testing.T) {
	n := newVMNode(t)
	vm := n.launchVM(t, "vm0", 64<<20, palacios.RBTree)

	gp := vm.Guest.NewProcess("sim", 1)
	hp := n.linux.NewProcess("analytics", 1)
	const pages = 16

	n.w.Spawn("driver", func(a *sim.Actor) {
		region, err := vm.Guest.Alloc(gp, "buf", pages, true)
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := gp.AS.Write(region.Base, []byte("guest export")); err != nil {
			t.Error(err)
			return
		}
		segid, err := vm.Module.Make(a, gp, region.Base, pages*extent.PageSize, xproto.PermRead, "")
		if err != nil {
			t.Error(err)
			return
		}
		apid, err := n.lmod.GetWith(a, hp, segid, core.GetOpts{Perm: xproto.PermRead})
		if err != nil {
			t.Error(err)
			return
		}
		va, err := n.lmod.AttachWith(a, hp, segid, apid, core.AttachOpts{Bytes: pages * extent.PageSize, Perm: xproto.PermRead})
		if err != nil {
			t.Error(err)
			return
		}
		got := make([]byte, 12)
		if _, err := hp.AS.Read(va, got); err != nil {
			t.Error(err)
			return
		}
		if string(got) != "guest export" {
			t.Errorf("host read %q", got)
		}
		// The attacher's region backing must be HOST frames (valid in the
		// host frame space), not guest-physical numbers.
		r := hp.AS.FindRegion(va)
		f, _ := r.Backing.Page(0)
		if n.pm.Pinned(f) == 0 {
			t.Error("backing host frame not pinned by the serve")
		}
	})
	if err := n.w.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestVMToVMAttachment routes a frame list out of one VM and into
// another: translate-out at the exporter's boundary, import at the
// attacher's.
func TestVMToVMAttachment(t *testing.T) {
	n := newVMNode(t)
	vmA := n.launchVM(t, "vmA", 32<<20, palacios.RBTree)
	vmB := n.launchVM(t, "vmB", 32<<20, palacios.RBTree)

	pa := vmA.Guest.NewProcess("exp", 1)
	pb := vmB.Guest.NewProcess("att", 1)

	n.w.Spawn("driver", func(a *sim.Actor) {
		region, err := vmA.Guest.Alloc(pa, "buf", 8, true)
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := pa.AS.Write(region.Base, []byte("vm to vm")); err != nil {
			t.Error(err)
			return
		}
		segid, err := vmA.Module.Make(a, pa, region.Base, 8*extent.PageSize, xproto.PermRead, "")
		if err != nil {
			t.Error(err)
			return
		}
		apid, err := vmB.Module.GetWith(a, pb, segid, core.GetOpts{Perm: xproto.PermRead})
		if err != nil {
			t.Error(err)
			return
		}
		va, err := vmB.Module.AttachWith(a, pb, segid, apid, core.AttachOpts{Bytes: 8 * extent.PageSize, Perm: xproto.PermRead})
		if err != nil {
			t.Error(err)
			return
		}
		got := make([]byte, 8)
		if _, err := pb.AS.Read(va, got); err != nil {
			t.Error(err)
			return
		}
		if string(got) != "vm to vm" {
			t.Errorf("vmB read %q", got)
		}
	})
	if err := n.w.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestVMOnKittenHost reproduces the Table 3 "Linux VM (Kitten Host)"
// configuration: the VM's host enclave is a Kitten co-kernel, and the
// attach path crosses both the PCI channel and the Pisces IPI channel.
func TestVMOnKittenHost(t *testing.T) {
	n := newVMNode(t)
	ck, err := pisces.CreateCoKernel("kitten0", n.w, n.costs, n.pm, n.linux.Zone(), 128<<20, n.lmod)
	if err != nil {
		t.Fatal(err)
	}
	vm, err := palacios.Launch("vm0", n.w, n.costs, n.pm, ck.OS.Zone(), 32<<20, 1, ck.Module, palacios.RBTree)
	if err != nil {
		t.Fatal(err)
	}

	kp, heap, err := ck.OS.NewProcess("sim", 64)
	if err != nil {
		t.Fatal(err)
	}
	gp := vm.Guest.NewProcess("analytics", 1)

	n.w.Spawn("driver", func(a *sim.Actor) {
		if _, err := kp.AS.Write(heap.Base, []byte("kitten data")); err != nil {
			t.Error(err)
			return
		}
		segid, err := ck.Module.Make(a, kp, heap.Base, 8*extent.PageSize, xproto.PermRead, "")
		if err != nil {
			t.Error(err)
			return
		}
		apid, err := vm.Module.GetWith(a, gp, segid, core.GetOpts{Perm: xproto.PermRead})
		if err != nil {
			t.Error(err)
			return
		}
		va, err := vm.Module.AttachWith(a, gp, segid, apid, core.AttachOpts{Bytes: 8 * extent.PageSize, Perm: xproto.PermRead})
		if err != nil {
			t.Error(err)
			return
		}
		got := make([]byte, 11)
		if _, err := gp.AS.Read(va, got); err != nil {
			t.Error(err)
			return
		}
		if string(got) != "kitten data" {
			t.Errorf("guest read %q through kitten host", got)
		}
	})
	if err := n.w.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestRadixMapCheaperThanRBTree is the §5.4 future-work claim: replacing
// the rb-tree with a page-table-shaped radix map removes the growth of
// insert cost with attachment size.
func TestRadixMapCheaperThanRBTree(t *testing.T) {
	attachOnce := func(kind palacios.MapKind) sim.Time {
		n := newVMNode(t)
		vm := n.launchVM(t, "vm0", 64<<20, kind)
		hp := n.linux.NewProcess("exp", 1)
		gp := vm.Guest.NewProcess("att", 1)
		const pages = 2048 // 8 MB
		n.w.Spawn("driver", func(a *sim.Actor) {
			region, err := n.linux.Alloc(hp, "buf", pages, true)
			if err != nil {
				t.Error(err)
				return
			}
			segid, err := n.lmod.Make(a, hp, region.Base, pages*extent.PageSize, xproto.PermRead, "")
			if err != nil {
				t.Error(err)
				return
			}
			apid, err := vm.Module.GetWith(a, gp, segid, core.GetOpts{Perm: xproto.PermRead})
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := vm.Module.AttachWith(a, gp, segid, apid, core.AttachOpts{Bytes: pages * extent.PageSize, Perm: xproto.PermRead}); err != nil {
				t.Error(err)
			}
		})
		if err := n.w.Run(); err != nil {
			t.Fatal(err)
		}
		return vm.MapInsertTime
	}
	rb := attachOnce(palacios.RBTree)
	rx := attachOnce(palacios.Radix)
	if rx >= rb {
		t.Fatalf("radix insert time %v not cheaper than rb-tree %v", rx, rb)
	}
}

// TestMemoizedImportChargesIdentically: the second and later
// attach/detach cycles replay exactly the first cycle's measured insert
// charge, so timing results are independent of the memoization.
func TestMemoizedImportChargesIdentically(t *testing.T) {
	n := newVMNode(t)
	vm := n.launchVM(t, "vm0", 64<<20, palacios.RBTree)
	hp := n.linux.NewProcess("exp", 1)
	gp := vm.Guest.NewProcess("att", 1)
	const pages = 1024
	n.w.Spawn("driver", func(a *sim.Actor) {
		// A contiguous (Kitten-like) export: allocate contiguously so the
		// served list is a single extent.
		e, err := n.linux.Zone().AllocContig(pages)
		if err != nil {
			t.Error(err)
			return
		}
		region, err := hp.AS.AddRegion("buf", 0, extent.FromExtents(e), 0x7, false)
		if err != nil {
			t.Error(err)
			return
		}
		segid, err := n.lmod.Make(a, hp, region.Base, pages*extent.PageSize, xproto.PermRead, "")
		if err != nil {
			t.Error(err)
			return
		}
		apid, err := vm.Module.GetWith(a, gp, segid, core.GetOpts{Perm: xproto.PermRead})
		if err != nil {
			t.Error(err)
			return
		}
		var durs []sim.Time
		for i := 0; i < 3; i++ {
			start := a.Now()
			va, err := vm.Module.AttachWith(a, gp, segid, apid, core.AttachOpts{Bytes: pages * extent.PageSize, Perm: xproto.PermRead})
			if err != nil {
				t.Error(err)
				return
			}
			durs = append(durs, a.Now()-start)
			if err := vm.Module.Detach(a, gp, va); err != nil {
				t.Error(err)
				return
			}
			// Let the asynchronous detach notification drain so the next
			// cycle does not queue behind it.
			a.Advance(sim.Millisecond)
		}
		if durs[1] != durs[0] || durs[2] != durs[0] {
			t.Errorf("attach cycle times diverge: %v", durs)
		}
	})
	if err := n.w.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestGuestMapGrowthAcrossAttachments(t *testing.T) {
	// Repeated attach/detach cycles return the map to its base size —
	// no entry leaks — on both map kinds, for a scattered export (live
	// inserts every cycle) and a contiguous one (one extent, so every
	// cycle after the first replays the import memo).
	for _, kind := range []palacios.MapKind{palacios.RBTree, palacios.Radix} {
		for _, contiguous := range []bool{false, true} {
			n := newVMNode(t)
			vm := n.launchVM(t, "vm0", 64<<20, kind)
			hp := n.linux.NewProcess("exp", 1)
			gp := vm.Guest.NewProcess("att", 1)
			alloc, pages := n.linux.Alloc, uint64(600)
			if contiguous {
				alloc, pages = n.linux.AllocContiguous, 300
			}
			n.w.Spawn("driver", func(a *sim.Actor) {
				region, err := alloc(hp, "buf", pages, true)
				if err != nil {
					t.Error(err)
					return
				}
				segid, err := n.lmod.Make(a, hp, region.Base, pages*extent.PageSize, xproto.PermRead, "")
				if err != nil {
					t.Error(err)
					return
				}
				apid, err := vm.Module.GetWith(a, gp, segid, core.GetOpts{Perm: xproto.PermRead})
				if err != nil {
					t.Error(err)
					return
				}
				base := vm.MapEntries()
				for i := 0; i < 10; i++ {
					va, err := vm.Module.AttachWith(a, gp, segid, apid, core.AttachOpts{Bytes: pages * extent.PageSize, Perm: xproto.PermRead})
					if err != nil {
						t.Error(err)
						return
					}
					if err := vm.Module.Detach(a, gp, va); err != nil {
						t.Error(err)
						return
					}
				}
				if vm.MapEntries() != base {
					t.Errorf("kind %v contiguous %v: map leaked entries: %d vs %d", kind, contiguous, vm.MapEntries(), base)
				}
			})
			if err := n.w.Run(); err != nil {
				t.Fatal(err)
			}
		}
	}
}
