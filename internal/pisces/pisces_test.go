package pisces_test

import (
	"fmt"
	"testing"

	"xemem/internal/core"
	"xemem/internal/linuxos"
	"xemem/internal/mem"
	"xemem/internal/pisces"
	"xemem/internal/proc"
	"xemem/internal/sim"
	"xemem/internal/xproto"
)

func mgmt(t *testing.T) (*sim.World, *mem.PhysMem, *linuxos.Linux, *core.Module) {
	t.Helper()
	w := sim.NewWorld(1)
	pm := mem.NewPhysMem("node", 2<<30)
	l := linuxos.New("linux", w, pm.Zone(0), proc.HostDomain{Mem: pm}, 2)
	m := core.New("linux", w, l, true)
	m.Start()
	return w, pm, l, m
}

func TestCoKernelBootsAndBootstraps(t *testing.T) {
	w, pm, l, m := mgmt(t)
	ck, err := pisces.CreateCoKernel("kitten0", w, pm, l.Zone(), 256<<20, m)
	if err != nil {
		t.Fatal(err)
	}
	w.Spawn("wait", func(a *sim.Actor) { ck.Module.WaitReady(a) })
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if ck.Module.EnclaveID() == xproto.NoEnclave {
		t.Fatal("co-kernel did not receive an enclave ID")
	}
	if ck.Module.EnclaveID() == xproto.NameServerID {
		t.Fatal("co-kernel stole the name server's ID")
	}
	// The partition is a single contiguous block offlined from Linux.
	if ck.Block.Count != (256<<20)/4096 {
		t.Fatalf("block pages = %d", ck.Block.Count)
	}
	if uint64(ck.Block.First)%512 != 0 {
		t.Fatalf("block not 2MB aligned: %#x", uint64(ck.Block.First))
	}
}

func TestCoKernelMemoryComesOutOfLinux(t *testing.T) {
	w, pm, l, m := mgmt(t)
	before := l.Zone().FreePages()
	_, err := pisces.CreateCoKernel("kitten0", w, pm, l.Zone(), 256<<20, m)
	if err != nil {
		t.Fatal(err)
	}
	if got := before - l.Zone().FreePages(); got != (256<<20)/4096 {
		t.Fatalf("offlined %d pages", got)
	}
}

func TestCoKernelAllocationFailure(t *testing.T) {
	w, pm, l, m := mgmt(t)
	if _, err := pisces.CreateCoKernel("huge", w, pm, l.Zone(), 64<<30, m); err == nil {
		t.Fatal("oversized co-kernel accepted")
	}
	_ = w
}

func TestManyCoKernels(t *testing.T) {
	w, pm, l, m := mgmt(t)
	var cks []*pisces.CoKernel
	for i := 0; i < 6; i++ {
		ck, err := pisces.CreateCoKernel(fmt.Sprintf("kitten%d", i), w, pm, l.Zone(), 64<<20, m)
		if err != nil {
			t.Fatal(err)
		}
		cks = append(cks, ck)
	}
	w.Spawn("wait", func(a *sim.Actor) {
		for _, ck := range cks {
			ck.Module.WaitReady(a)
		}
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	seen := map[xproto.EnclaveID]bool{}
	for _, ck := range cks {
		id := ck.Module.EnclaveID()
		if id == xproto.NoEnclave || seen[id] {
			t.Fatalf("bad or duplicate enclave ID %d", id)
		}
		seen[id] = true
	}
}
