package xemem_test

import (
	"fmt"
	"testing"

	"xemem"
	"xemem/internal/pagetable"
	"xemem/internal/palacios"
	"xemem/internal/sim"
	"xemem/internal/xpmem"
	"xemem/internal/xproto"
)

// TestFigure1Topology boots the paper's motivating eight-enclave node
// (Fig. 1/2): a Linux management enclave (name server), Kitten co-kernels
// A, D and G, VM C on Linux, and VMs E and F on co-kernel D — then runs a
// shared-memory exchange between the two most distant enclaves (VM C and
// VM F), whose commands route C → Linux → D → F and back.
func TestFigure1Topology(t *testing.T) {
	node := xemem.NewNode(xemem.NodeConfig{Seed: 99, MemBytes: 8 << 30})

	ckA, err := node.BootCoKernel("lwkA", 256<<20)
	if err != nil {
		t.Fatal(err)
	}
	vmC, err := node.BootVM("vmC", 256<<20, 1)
	if err != nil {
		t.Fatal(err)
	}
	ckD, err := node.BootCoKernel("lwkD", 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	vmE, err := node.BootVMOnCoKernel("vmE", ckD, 256<<20, 1)
	if err != nil {
		t.Fatal(err)
	}
	vmF, err := node.BootVMOnCoKernel("vmF", ckD, 256<<20, 1)
	if err != nil {
		t.Fatal(err)
	}
	ckG, err := node.BootCoKernel("lwkG", 256<<20)
	if err != nil {
		t.Fatal(err)
	}
	_, _, _ = ckA, vmE, ckG

	expSess, expProc := node.GuestProcess(vmF, "producer", 0)
	attSess, attProc := node.GuestProcess(vmC, "consumer", 0)

	node.Spawn("producer", func(a *sim.Actor) {
		region, err := xemem.AllocLinux(vmF.Guest, expProc, "data", 64<<12, true)
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := expSess.Write(region.Base, []byte("across the whole topology")); err != nil {
			t.Error(err)
			return
		}
		if _, err := expSess.Make(a, region.Base, 64<<12, xpmem.PermRead, "fig1-data"); err != nil {
			t.Error(err)
		}
	})
	var got string
	node.Spawn("consumer", func(a *sim.Actor) {
		var segid xpmem.Segid
		a.Retry(20*sim.Microsecond, sim.Forever, func() bool {
			s, err := attSess.Lookup(a, "fig1-data")
			if err != nil {
				return false
			}
			segid = s
			return true
		})
		apid, err := attSess.GetWith(a, segid, xpmem.GetOpts{Perm: xpmem.PermRead})
		if err != nil {
			t.Error(err)
			return
		}
		va, err := attSess.AttachWith(a, segid, apid, xpmem.AttachOpts{Bytes: 64 << 12, Perm: xpmem.PermRead})
		if err != nil {
			t.Error(err)
			return
		}
		buf := make([]byte, len("across the whole topology"))
		if _, err := attProc.AS.Read(va, buf); err != nil {
			t.Error(err)
			return
		}
		got = string(buf)
	})
	if err := node.Run(); err != nil {
		t.Fatal(err)
	}
	if got != "across the whole topology" {
		t.Fatalf("consumer read %q", got)
	}
	// The message path crossed the management enclave and co-kernel D.
	if ckD.Module.Stats.MsgsForwarded == 0 {
		t.Fatal("co-kernel D forwarded nothing — routing did not follow the tree")
	}
}

// TestManyEnclavesMixed stresses the §3 scalability claim: sixteen
// enclaves (a mix of co-kernels, VMs on Linux, and VMs on co-kernel
// hosts) boot concurrently, all receive distinct IDs, and every pair
// exchanges data with a Linux attacher concurrently.
func TestManyEnclavesMixed(t *testing.T) {
	node := xemem.NewNode(xemem.NodeConfig{Seed: 77, MemBytes: 32 << 30, LinuxCores: 18})
	type exporter struct {
		sess *xpmem.Session
		base pagetable.VA
		name string
	}
	var exps []exporter
	ids := map[xproto.EnclaveID]bool{}
	var mods []interface{ EnclaveID() xproto.EnclaveID }
	for i := 0; i < 8; i++ {
		ck, err := node.BootCoKernel(fmt.Sprintf("k%d", i), 256<<20)
		if err != nil {
			t.Fatal(err)
		}
		sess, heap, err := node.KittenProcess(ck, "exp", 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		exps = append(exps, exporter{sess: sess, base: heap.Base, name: fmt.Sprintf("k%d-data", i)})
		mods = append(mods, ck.Module)
		if i < 4 {
			// VMs on alternating hosts.
			vm, err := node.BootVMOnCoKernel(fmt.Sprintf("vmk%d", i), ck, 64<<20, 1)
			if err != nil {
				t.Fatal(err)
			}
			sess, p := node.GuestProcess(vm, "exp", 0)
			region, err := xemem.AllocLinux(vm.Guest, p, "buf", 1<<20, true)
			if err != nil {
				t.Fatal(err)
			}
			exps = append(exps, exporter{sess: sess, base: region.Base, name: fmt.Sprintf("vmk%d-data", i)})
			mods = append(mods, vm.Module)
		} else {
			vm, err := node.BootVM(fmt.Sprintf("vml%d", i), 64<<20, 1)
			if err != nil {
				t.Fatal(err)
			}
			sess, p := node.GuestProcess(vm, "exp", 0)
			region, err := xemem.AllocLinux(vm.Guest, p, "buf", 1<<20, true)
			if err != nil {
				t.Fatal(err)
			}
			exps = append(exps, exporter{sess: sess, base: region.Base, name: fmt.Sprintf("vml%d-data", i)})
			mods = append(mods, vm.Module)
		}
	}
	if len(exps) != 16 {
		t.Fatalf("built %d exporters", len(exps))
	}

	done := 0
	for i, e := range exps {
		e := e
		i := i
		node.Spawn("pair"+e.name, func(a *sim.Actor) {
			msg := []byte(e.name)
			if _, err := e.sess.Write(e.base, msg); err != nil {
				t.Error(err)
				return
			}
			segid, err := e.sess.Make(a, e.base, 16<<12, xpmem.PermRead, e.name)
			if err != nil {
				t.Error(err)
				return
			}
			// The matching Linux attacher.
			att, attProc := node.LinuxProcess("att"+e.name, 1+i)
			apid, err := xpmem.NewSession(node.LinuxModule(), attProc).GetWith(a, segid, xpmem.GetOpts{Perm: xpmem.PermRead})
			if err != nil {
				t.Error(err)
				return
			}
			va, err := att.AttachWith(a, segid, apid, xpmem.AttachOpts{Bytes: 16 << 12, Perm: xpmem.PermRead})
			if err != nil {
				t.Error(err)
				return
			}
			buf := make([]byte, len(msg))
			if _, err := att.Read(va, buf); err != nil {
				t.Error(err)
				return
			}
			if string(buf) != e.name {
				t.Errorf("pair %s read %q", e.name, buf)
				return
			}
			done++
		})
	}
	if err := node.Run(); err != nil {
		t.Fatal(err)
	}
	if done != 16 {
		t.Fatalf("%d/16 pairs completed", done)
	}
	for _, m := range mods {
		id := m.EnclaveID()
		if id == xproto.NoEnclave || ids[id] {
			t.Fatalf("bad or duplicate enclave ID %d", id)
		}
		ids[id] = true
	}
}

func TestNodeDefaults(t *testing.T) {
	node := xemem.NewNode(xemem.NodeConfig{Seed: 1})
	if node.Phys().Zone(0).Pages() != (32<<30)/4096 {
		t.Fatalf("default memory = %d pages", node.Phys().Zone(0).Pages())
	}
	if len(node.Linux().Cores()) != 4 {
		t.Fatalf("default cores = %d", len(node.Linux().Cores()))
	}
	if node.Costs() == nil || node.World() == nil || node.LinuxModule() == nil {
		t.Fatal("accessors returned nil")
	}
}

// TestBootFailuresSurface: exhausting the management enclave's memory
// fails cleanly instead of corrupting state.
func TestBootFailuresSurface(t *testing.T) {
	node := xemem.NewNode(xemem.NodeConfig{Seed: 3, MemBytes: 1 << 30})
	if _, err := node.BootCoKernel("huge", 8<<30); err == nil {
		t.Fatal("oversized co-kernel boot succeeded")
	}
	if _, err := node.BootVM("hugevm", 8<<30, 1); err == nil {
		t.Fatal("oversized VM boot succeeded")
	}
	// The node is still usable afterwards.
	ck, err := node.BootCoKernel("ok", 128<<20)
	if err != nil {
		t.Fatal(err)
	}
	node.Spawn("wait", func(a *sim.Actor) { ck.Module.WaitReady(a) })
	if err := node.Run(); err != nil {
		t.Fatal(err)
	}
	if ck.Module.EnclaveID() == xproto.NoEnclave {
		t.Fatal("co-kernel failed to bootstrap after earlier boot errors")
	}
}

// TestTwoNodesOneWorld: the §7 multi-node construction — two independent
// nodes in one world do not interfere (separate name servers, memories,
// enclave ID spaces).
func TestTwoNodesOneWorld(t *testing.T) {
	w := sim.NewWorld(4)
	costs := sim.DefaultCosts()
	nodeA := xemem.NewNodeInWorld(w, xemem.NodeConfig{Name: "nodeA", MemBytes: 2 << 30, Costs: costs})
	nodeB := xemem.NewNodeInWorld(w, xemem.NodeConfig{Name: "nodeB", MemBytes: 2 << 30, Costs: costs})
	ckA, err := nodeA.BootCoKernel("k", 128<<20)
	if err != nil {
		t.Fatal(err)
	}
	ckB, err := nodeB.BootCoKernel("k", 128<<20)
	if err != nil {
		t.Fatal(err)
	}
	// Each node runs its own independent export/attach exchange.
	for _, p := range []struct {
		node *xemem.Node
		sess func() (*xpmem.Session, pagetable.VA)
	}{
		{nodeA, func() (*xpmem.Session, pagetable.VA) {
			s, h, err := nodeA.KittenProcess(ckA, "exp", 1<<20)
			if err != nil {
				t.Fatal(err)
			}
			return s, h.Base
		}},
		{nodeB, func() (*xpmem.Session, pagetable.VA) {
			s, h, err := nodeB.KittenProcess(ckB, "exp", 1<<20)
			if err != nil {
				t.Fatal(err)
			}
			return s, h.Base
		}},
	} {
		node := p.node
		exp, base := p.sess()
		att, _ := node.LinuxProcess("att", 1)
		node.Spawn("pair", func(a *sim.Actor) {
			segid, err := exp.Make(a, base, 4096, xpmem.PermRead, "two-node-data")
			if err != nil {
				t.Error(err)
				return
			}
			apid, err := att.GetWith(a, segid, xpmem.GetOpts{Perm: xpmem.PermRead})
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := att.AttachWith(a, segid, apid, xpmem.AttachOpts{Bytes: 4096, Perm: xpmem.PermRead}); err != nil {
				t.Error(err)
			}
		})
	}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	// Both name servers independently allocated segids under the same
	// published name — no cross-node interference.
	if nodeA.LinuxModule().NS.LiveSegids() != 1 || nodeB.LinuxModule().NS.LiveSegids() != 1 {
		t.Fatalf("NS registries: %d / %d",
			nodeA.LinuxModule().NS.LiveSegids(), nodeB.LinuxModule().NS.LiveSegids())
	}
}

func TestVMMapKindDefault(t *testing.T) {
	node := xemem.NewNode(xemem.NodeConfig{Seed: 2, MemBytes: 2 << 30})
	vm, err := node.BootVM("vm0", 128<<20, 1)
	if err != nil {
		t.Fatal(err)
	}
	if vm.MapEntries() != 1 {
		t.Fatalf("fresh VM has %d map entries, want 1 contiguous RAM entry", vm.MapEntries())
	}
	_ = palacios.RBTree
}
