package core_test

import (
	"errors"
	"testing"

	"xemem/internal/core"
	"xemem/internal/extent"
	"xemem/internal/kitten"
	"xemem/internal/linuxos"
	"xemem/internal/mem"
	"xemem/internal/pagetable"
	"xemem/internal/pisces"
	"xemem/internal/proc"
	"xemem/internal/sim"
	"xemem/internal/xproto"
)

// testNode is a node with a Linux management enclave hosting the name
// server, ready to grow co-kernels.
type testNode struct {
	w     *sim.World
	pm    *mem.PhysMem
	linux *linuxos.Linux
	lmod  *core.Module
}

func newTestNode(t *testing.T) *testNode {
	t.Helper()
	w := sim.NewWorld(42)
	pm := mem.NewPhysMem("node0", 1<<30)
	linux := linuxos.New("linux", w, pm.Zone(0), proc.HostDomain{Mem: pm}, 4)
	lmod := core.New("linux", w, linux, true)
	auditAtEnd(t, w, pm)
	return &testNode{w: w, pm: pm, linux: linux, lmod: lmod}
}

// auditAtEnd registers pm's audit on w and, when the test ends without
// having failed, runs the world-end audit over everything w holds.
func auditAtEnd(t *testing.T, w *sim.World, pm *mem.PhysMem) {
	w.AddAudit("phys/"+pm.Name(), pm.Audit)
	t.Cleanup(func() {
		if t.Failed() {
			return
		}
		if err := w.Audit(); err != nil {
			t.Errorf("world-end %v", err)
		}
	})
}

func (n *testNode) addKitten(t *testing.T, name string, bytes uint64) *pisces.CoKernel {
	t.Helper()
	ck, err := pisces.CreateCoKernel(name, n.w, n.pm, n.linux.Zone(), bytes, n.lmod)
	if err != nil {
		t.Fatal(err)
	}
	return ck
}

func TestCrossEnclaveAttachKittenToLinux(t *testing.T) {
	n := newTestNode(t)
	n.lmod.Start()
	ck := n.addKitten(t, "kitten0", 64<<20)

	const pages = 64
	var exporterSaw string
	done := false

	// Exporter: Kitten process exports part of its heap under a name.
	kp, heap, err := ck.OS.NewProcess("sim", 256)
	if err != nil {
		t.Fatal(err)
	}
	n.w.Spawn("exporter", func(a *sim.Actor) {
		segid, err := ck.Module.Make(a, kp, heap.Base, pages*extent.PageSize, xproto.PermRead|xproto.PermWrite, "sim-data")
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := kp.AS.Write(heap.Base, []byte("hello from the co-kernel")); err != nil {
			t.Error(err)
			return
		}
		// Wait for the attacher's reply written through shared memory.
		buf := make([]byte, 5)
		a.PollDeadline(5*sim.Microsecond, sim.Forever, func() bool {
			if _, err := kp.AS.Read(heap.Base+extent.PageSize, buf); err != nil {
				t.Error(err)
				return true
			}
			return string(buf) == "reply"
		})
		exporterSaw = string(buf)
		if err := ck.Module.Remove(a, kp, segid); err != nil {
			t.Error(err)
		}
		done = true
	})

	// Attacher: Linux process discovers, gets, attaches, reads, writes.
	lp := n.linux.NewProcess("analytics", 1)
	n.w.Spawn("attacher", func(a *sim.Actor) {
		segid := xproto.NoSegid
		for segid == xproto.NoSegid {
			s, err := n.lmod.Lookup(a, "sim-data")
			if err == nil {
				segid = s
			} else if errors.Is(err, core.ErrNoSuchSegid) {
				a.Advance(10 * sim.Microsecond)
			} else {
				t.Error(err)
				return
			}
		}
		apid, err := n.lmod.GetWith(a, lp, segid, core.GetOpts{Perm: xproto.PermRead | xproto.PermWrite})
		if err != nil {
			t.Error(err)
			return
		}
		va, err := n.lmod.AttachWith(a, lp, segid, apid, core.AttachOpts{Bytes: pages * extent.PageSize, Perm: xproto.PermRead | xproto.PermWrite})
		if err != nil {
			t.Error(err)
			return
		}
		got := make([]byte, 24)
		if _, err := lp.AS.Read(va, got); err != nil {
			t.Error(err)
			return
		}
		if string(got) != "hello from the co-kernel" {
			t.Errorf("attacher read %q", got)
			return
		}
		if _, err := lp.AS.Write(va+extent.PageSize, []byte("reply")); err != nil {
			t.Error(err)
			return
		}
		if err := n.lmod.Detach(a, lp, va); err != nil {
			t.Error(err)
		}
		if err := n.lmod.Release(a, lp, segid, apid); err != nil {
			t.Error(err)
		}
		// The detach notification is asynchronous; wait until the owner
		// has released the pins before the world shuts down.
		f := heap.Backing.Extents()[0].First
		a.PollDeadline(5*sim.Microsecond, sim.Forever, func() bool { return n.pm.Pinned(f) == 0 })
	})

	if err := n.w.Run(); err != nil {
		t.Fatal(err)
	}
	if !done || exporterSaw != "reply" {
		t.Fatalf("protocol did not complete: done=%v saw=%q", done, exporterSaw)
	}
	if ck.Module.Stats.AttachesServed != 1 {
		t.Fatalf("attaches served = %d", ck.Module.Stats.AttachesServed)
	}
	if n.lmod.Stats.AttachesMade != 1 {
		t.Fatalf("attaches made = %d", n.lmod.Stats.AttachesMade)
	}
	// Pins released after detach: no frame of the heap remains pinned.
	for _, e := range heap.Backing.Extents() {
		for i := uint64(0); i < e.Count; i++ {
			if n.pm.Pinned(e.First+extent.PFN(i)) != 0 {
				t.Fatalf("frame %#x still pinned after detach", uint64(e.First+extent.PFN(i)))
			}
		}
	}
}

func TestAttachPinsFramesWhileMapped(t *testing.T) {
	n := newTestNode(t)
	n.lmod.Start()
	ck := n.addKitten(t, "kitten0", 32<<20)
	kp, heap, err := ck.OS.NewProcess("sim", 64)
	if err != nil {
		t.Fatal(err)
	}
	lp := n.linux.NewProcess("an", 1)
	n.w.Spawn("driver", func(a *sim.Actor) {
		segid, err := ck.Module.Make(a, kp, heap.Base, 16*extent.PageSize, xproto.PermRead, "")
		if err != nil {
			t.Error(err)
			return
		}
		apid, err := n.lmod.GetWith(a, lp, segid, core.GetOpts{Perm: xproto.PermRead})
		if err != nil {
			t.Error(err)
			return
		}
		va, err := n.lmod.AttachWith(a, lp, segid, apid, core.AttachOpts{Bytes: 16 * extent.PageSize, Perm: xproto.PermRead})
		if err != nil {
			t.Error(err)
			return
		}
		f := heap.Backing.Extents()[0].First
		if n.pm.Pinned(f) != 1 {
			t.Errorf("frame not pinned during attachment: %d", n.pm.Pinned(f))
		}
		if err := n.lmod.Detach(a, lp, va); err != nil {
			t.Error(err)
			return
		}
		// Detach notification is asynchronous: poll until the owner
		// processes it.
		a.PollDeadline(5*sim.Microsecond, sim.Forever, func() bool { return n.pm.Pinned(f) == 0 })
	})
	if err := n.w.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestPermissionEnforcement(t *testing.T) {
	n := newTestNode(t)
	n.lmod.Start()
	ck := n.addKitten(t, "kitten0", 32<<20)
	kp, heap, err := ck.OS.NewProcess("sim", 64)
	if err != nil {
		t.Fatal(err)
	}
	lp := n.linux.NewProcess("an", 1)
	n.w.Spawn("driver", func(a *sim.Actor) {
		// Read-only export.
		segid, err := ck.Module.Make(a, kp, heap.Base, 8*extent.PageSize, xproto.PermRead, "")
		if err != nil {
			t.Error(err)
			return
		}
		// Requesting write permission must be denied.
		if _, err := n.lmod.GetWith(a, lp, segid, core.GetOpts{Perm: xproto.PermRead | xproto.PermWrite}); !errors.Is(err, core.ErrPermission) {
			t.Errorf("write get on read-only segment: %v", err)
		}
		apid, err := n.lmod.GetWith(a, lp, segid, core.GetOpts{Perm: xproto.PermRead})
		if err != nil {
			t.Error(err)
			return
		}
		// Attaching with more permission than granted must be denied.
		if _, err := n.lmod.AttachWith(a, lp, segid, apid, core.AttachOpts{Bytes: extent.PageSize, Perm: xproto.PermRead | xproto.PermWrite}); !errors.Is(err, core.ErrPermission) {
			t.Errorf("over-privileged attach: %v", err)
		}
		// A bogus apid must be denied.
		if _, err := n.lmod.AttachWith(a, lp, segid, apid+999, core.AttachOpts{Bytes: extent.PageSize, Perm: xproto.PermRead}); !errors.Is(err, core.ErrPermission) {
			t.Errorf("bogus apid attach: %v", err)
		}
		// Out-of-range attach must fail.
		if _, err := n.lmod.AttachWith(a, lp, segid, apid, core.AttachOpts{Bytes: 9 * extent.PageSize, Perm: xproto.PermRead}); err == nil {
			t.Error("out-of-range attach succeeded")
		}
		// After release, the apid is dead.
		if err := n.lmod.Release(a, lp, segid, apid); err != nil {
			t.Error(err)
		}
		a.Advance(100 * sim.Microsecond) // let the notify land
		if _, err := n.lmod.AttachWith(a, lp, segid, apid, core.AttachOpts{Bytes: extent.PageSize, Perm: xproto.PermRead}); !errors.Is(err, core.ErrPermission) {
			t.Errorf("attach with released apid: %v", err)
		}
		// After remove, gets fail.
		if err := ck.Module.Remove(a, kp, segid); err != nil {
			t.Error(err)
		}
		a.Advance(100 * sim.Microsecond)
		if _, err := n.lmod.GetWith(a, lp, segid, core.GetOpts{Perm: xproto.PermRead}); !errors.Is(err, core.ErrNoSuchSegid) {
			t.Errorf("get on removed segment: %v", err)
		}
	})
	if err := n.w.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestLocalAttachLinuxFaultSemantics(t *testing.T) {
	n := newTestNode(t)
	n.lmod.Start()
	exp := n.linux.NewProcess("exp", 1)
	att := n.linux.NewProcess("att", 2)
	n.w.Spawn("driver", func(a *sim.Actor) {
		region, err := n.linux.Alloc(exp, "buf", 32, true)
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := exp.AS.Write(region.Base, []byte("local sharing")); err != nil {
			t.Error(err)
			return
		}
		segid, err := n.lmod.Make(a, exp, region.Base, 32*extent.PageSize, xproto.PermRead|xproto.PermWrite, "")
		if err != nil {
			t.Error(err)
			return
		}
		apid, err := n.lmod.GetWith(a, att, segid, core.GetOpts{Perm: xproto.PermRead})
		if err != nil {
			t.Error(err)
			return
		}
		va, err := n.lmod.AttachWith(a, att, segid, apid, core.AttachOpts{Bytes: 32 * extent.PageSize, Perm: xproto.PermRead})
		if err != nil {
			t.Error(err)
			return
		}
		// Single-OS attachments are lazy: the mapping populates on touch.
		r := att.AS.FindRegion(va)
		if r == nil || r.Populated != 0 {
			t.Errorf("local attachment should be lazy (populated=%d)", r.Populated)
		}
		got := make([]byte, 13)
		faults, err := att.AS.Read(va, got)
		if err != nil {
			t.Error(err)
			return
		}
		if faults == 0 {
			t.Error("no demand faults on first touch")
		}
		if string(got) != "local sharing" {
			t.Errorf("read %q", got)
		}
		if err := n.lmod.Detach(a, att, va); err != nil {
			t.Error(err)
		}
	})
	if err := n.w.Run(); err != nil {
		t.Fatal(err)
	}
	// Everything was local: no cross-enclave messages at all.
	if n.lmod.Stats.MsgsSent != 0 {
		t.Fatalf("local protocol sent %d messages", n.lmod.Stats.MsgsSent)
	}
}

func TestLocalAttachKittenSmartmap(t *testing.T) {
	n := newTestNode(t)
	n.lmod.Start()
	ck := n.addKitten(t, "kitten0", 64<<20)
	p1, heap1, err := ck.OS.NewProcess("p1", 64)
	if err != nil {
		t.Fatal(err)
	}
	p2, _, err := ck.OS.NewProcess("p2", 16)
	if err != nil {
		t.Fatal(err)
	}
	n.w.Spawn("driver", func(a *sim.Actor) {
		if _, err := p1.AS.Write(heap1.Base+8, []byte("smartmap fast path")); err != nil {
			t.Error(err)
			return
		}
		segid, err := ck.Module.Make(a, p1, heap1.Base, 32*extent.PageSize, xproto.PermRead|xproto.PermWrite, "")
		if err != nil {
			t.Error(err)
			return
		}
		apid, err := ck.Module.GetWith(a, p2, segid, core.GetOpts{Perm: xproto.PermRead})
		if err != nil {
			t.Error(err)
			return
		}
		sentBefore := ck.Module.Stats.MsgsSent
		start := a.Now()
		va, err := ck.Module.AttachWith(a, p2, segid, apid, core.AttachOpts{Bytes: 32 * extent.PageSize, Perm: xproto.PermRead})
		if err != nil {
			t.Error(err)
			return
		}
		elapsed := a.Now() - start
		// SMARTMAP is O(1): far cheaper than per-page mapping would be.
		if elapsed > 100*sim.Microsecond {
			t.Errorf("SMARTMAP attach took %v", elapsed)
		}
		got := make([]byte, 18)
		if _, err := p2.AS.Read(va+8, got); err != nil {
			t.Error(err)
			return
		}
		if string(got) != "smartmap fast path" {
			t.Errorf("window read %q", got)
		}
		if err := ck.Module.Detach(a, p2, va); err != nil {
			t.Error(err)
		}
		if _, _, _, ok := p2.AS.PageTable().Walk(va); ok {
			t.Error("window still mapped after detach")
		}
		// The whole local get/attach/detach cycle crossed no channel.
		if ck.Module.Stats.MsgsSent != sentBefore {
			t.Errorf("SMARTMAP attach sent %d messages", ck.Module.Stats.MsgsSent-sentBefore)
		}
	})
	if err := n.w.Run(); err != nil {
		t.Fatal(err)
	}
	if ck.Module.Stats.AttachesServed != 0 {
		t.Fatalf("local attach went through the remote serve path")
	}
}

func TestDeepTopologyRouting(t *testing.T) {
	// A chain: linux(NS) ← kitten0 ← kitten1 ← kitten2. The deepest
	// enclave exports; a Linux process attaches. Commands route through
	// two intermediate enclaves in each direction.
	n := newTestNode(t)
	n.lmod.Start()
	ck0 := n.addKitten(t, "kitten0", 32<<20)

	mkChild := func(name string, parent *core.Module) *pisces.CoKernel {
		block, err := n.linux.Zone().AllocContigAligned((32<<20)/extent.PageSize, 1)
		if err != nil {
			t.Fatal(err)
		}
		zone := n.pm.ZoneFromExtent(0, block)
		k := kitten.New(name, n.w, n.pm, zone)
		mod := core.New(name, n.w, k, false)
		pisces.Connect(mod, parent)
		mod.Start()
		return &pisces.CoKernel{OS: k, Module: mod, Block: block}
	}
	ck1 := mkChild("kitten1", ck0.Module)
	ck2 := mkChild("kitten2", ck1.Module)

	kp, heap, err := ck2.OS.NewProcess("deep", 64)
	if err != nil {
		t.Fatal(err)
	}
	lp := n.linux.NewProcess("top", 1)
	n.w.Spawn("driver", func(a *sim.Actor) {
		if _, err := kp.AS.Write(heap.Base, []byte("deep")); err != nil {
			t.Error(err)
			return
		}
		segid, err := ck2.Module.Make(a, kp, heap.Base, 4*extent.PageSize, xproto.PermRead, "")
		if err != nil {
			t.Error(err)
			return
		}
		apid, err := n.lmod.GetWith(a, lp, segid, core.GetOpts{Perm: xproto.PermRead})
		if err != nil {
			t.Error(err)
			return
		}
		va, err := n.lmod.AttachWith(a, lp, segid, apid, core.AttachOpts{Bytes: 4 * extent.PageSize, Perm: xproto.PermRead})
		if err != nil {
			t.Error(err)
			return
		}
		got := make([]byte, 4)
		if _, err := lp.AS.Read(va, got); err != nil {
			t.Error(err)
			return
		}
		if string(got) != "deep" {
			t.Errorf("read %q through 3-hop route", got)
		}
	})
	if err := n.w.Run(); err != nil {
		t.Fatal(err)
	}
	// Distinct enclave IDs were allocated along the chain.
	ids := map[xproto.EnclaveID]bool{
		n.lmod.EnclaveID(): true, ck0.Module.EnclaveID(): true,
		ck1.Module.EnclaveID(): true, ck2.Module.EnclaveID(): true,
	}
	if len(ids) != 4 || ids[xproto.NoEnclave] {
		t.Fatalf("enclave IDs not distinct: %v", ids)
	}
	// Intermediates actually forwarded protocol traffic.
	if ck0.Module.Stats.MsgsForwarded == 0 || ck1.Module.Stats.MsgsForwarded == 0 {
		t.Fatalf("intermediates forwarded %d/%d messages",
			ck0.Module.Stats.MsgsForwarded, ck1.Module.Stats.MsgsForwarded)
	}
}

func TestSubRangeAttachment(t *testing.T) {
	n := newTestNode(t)
	n.lmod.Start()
	ck := n.addKitten(t, "kitten0", 64<<20)
	kp, heap, err := ck.OS.NewProcess("sim", 256)
	if err != nil {
		t.Fatal(err)
	}
	lp := n.linux.NewProcess("an", 1)
	n.w.Spawn("driver", func(a *sim.Actor) {
		if _, err := kp.AS.Write(heap.Base+10*extent.PageSize, []byte("offset window")); err != nil {
			t.Error(err)
			return
		}
		segid, err := ck.Module.Make(a, kp, heap.Base, 256*extent.PageSize, xproto.PermRead, "")
		if err != nil {
			t.Error(err)
			return
		}
		apid, err := n.lmod.GetWith(a, lp, segid, core.GetOpts{Perm: xproto.PermRead})
		if err != nil {
			t.Error(err)
			return
		}
		// Attach only pages [10, 14) of the segment.
		va, err := n.lmod.AttachWith(a, lp, segid, apid, core.AttachOpts{Offset: 10 * extent.PageSize, Bytes: 4 * extent.PageSize, Perm: xproto.PermRead})
		if err != nil {
			t.Error(err)
			return
		}
		r := lp.AS.FindRegion(va)
		if r == nil || r.Pages() != 4 {
			t.Errorf("window pages = %v", r)
		}
		got := make([]byte, 13)
		if _, err := lp.AS.Read(va, got); err != nil {
			t.Error(err)
			return
		}
		if string(got) != "offset window" {
			t.Errorf("read %q", got)
		}
	})
	if err := n.w.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestAttachUnknownSegid(t *testing.T) {
	n := newTestNode(t)
	n.lmod.Start()
	ck := n.addKitten(t, "kitten0", 32<<20)
	_ = ck
	lp := n.linux.NewProcess("an", 1)
	n.w.Spawn("driver", func(a *sim.Actor) {
		if _, err := n.lmod.GetWith(a, lp, xproto.Segid(0xdead), core.GetOpts{Perm: xproto.PermRead}); !errors.Is(err, core.ErrNoSuchSegid) {
			t.Errorf("get of unknown segid: %v", err)
		}
		if _, err := n.lmod.Lookup(a, "no-such-name"); !errors.Is(err, core.ErrNoSuchSegid) {
			t.Errorf("lookup of unknown name: %v", err)
		}
	})
	if err := n.w.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestMakeValidation(t *testing.T) {
	n := newTestNode(t)
	n.lmod.Start()
	p := n.linux.NewProcess("p", 1)
	n.w.Spawn("driver", func(a *sim.Actor) {
		r, err := n.linux.Alloc(p, "buf", 8, true)
		if err != nil {
			t.Error(err)
			return
		}
		// Unaligned size.
		if _, err := n.lmod.Make(a, p, r.Base, 100, xproto.PermRead, ""); err == nil {
			t.Error("unaligned make accepted")
		}
		// Range beyond the region.
		if _, err := n.lmod.Make(a, p, r.Base, 9*extent.PageSize, xproto.PermRead, ""); err == nil {
			t.Error("out-of-region make accepted")
		}
		// Range outside any region.
		if _, err := n.lmod.Make(a, p, pagetable.VA(0x123000), extent.PageSize, xproto.PermRead, ""); err == nil {
			t.Error("unmapped make accepted")
		}
		// Name collision between two segments.
		s1, err := n.lmod.Make(a, p, r.Base, extent.PageSize, xproto.PermRead, "dup")
		if err != nil {
			t.Error(err)
			return
		}
		_ = s1
		if _, err := n.lmod.Make(a, p, r.Base+4*extent.PageSize, extent.PageSize, xproto.PermRead, "dup"); err == nil {
			t.Error("duplicate name accepted")
		}
	})
	if err := n.w.Run(); err != nil {
		t.Fatal(err)
	}
}
