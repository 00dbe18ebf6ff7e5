// Package pisces simulates the Pisces lightweight co-kernel architecture
// (§4, §4.5): booting Kitten instances on partitioned cores and memory
// blocks alongside the Linux management enclave, and the IPI-based
// kernel-message channel between them.
//
// The channel is the paper's: a small shared memory region per co-kernel
// through which kernel messages are copied, with IPI vectors for
// notification. The constraint §5.3 identifies — *all* IPI-based
// communication with the Linux management enclave is handled on core 0 —
// is inherited from the Linux module's kernel core, so concurrent
// enclaves contend there exactly as the paper describes.
package pisces

import (
	"fmt"

	"xemem/internal/core"
	"xemem/internal/extent"
	"xemem/internal/kitten"
	"xemem/internal/mem"
	"xemem/internal/sim"
	"xemem/internal/xproto"
)

// link is one direction of an IPI channel.
type link struct {
	name string
	c    *sim.Costs
	peer *link         // the endpoint handed to the peer as the arrival link
	in   *xproto.Inbox // peer's inbox
	wire *sim.Resource // the shared message region, serializing transfers
}

// Send copies the message into the shared region and raises an IPI
// toward the peer (§4.5: "the source enclave then copies the message
// into the shared memory region…").
func (l *link) Send(a *sim.Actor, m *xproto.Message) {
	// The shared region admits one in-flight message at a time.
	l.wire.AcquireOp(a, sim.CopyTime(m.WireSize(), l.c.ChanBW), "chan-copy")
	a.Charge("ipi", l.c.IPILatency)
	l.in.Put(a, m, l.peer)
}

// String names the link.
func (l *link) String() string { return l.name }

// Connect wires an IPI channel between two enclave modules. It must be
// called before either module starts.
func Connect(a, b *core.Module) {
	costs := a.Costs()
	wire := sim.NewResource(fmt.Sprintf("pisces-wire:%s<->%s", a.Name(), b.Name()))
	ab := &link{name: fmt.Sprintf("ipi:%s->%s", a.Name(), b.Name()), c: costs, in: b.In, wire: wire}
	ba := &link{name: fmt.Sprintf("ipi:%s->%s", b.Name(), a.Name()), c: costs, in: a.In, wire: wire}
	ab.peer = ba
	ba.peer = ab
	core.Connect(a, b, ab, ba)
}

// CoKernel is a booted Kitten co-kernel enclave.
type CoKernel struct {
	OS     *kitten.Kitten
	Module *core.Module
	Block  extent.Extent // the contiguous memory partition
	host   *mem.Zone     // where the block returns on destruction
}

// Destroy tears the co-kernel down and onlines its memory block back to
// the host enclave — the dynamic repartitioning §3.2 envisions. It fails
// while the enclave's exports are still attached anywhere (their frames
// are pinned) or any of its frames remain pinned.
func (ck *CoKernel) Destroy(a *sim.Actor) error {
	if err := ck.Module.Stop(a); err != nil {
		return err
	}
	return ck.host.Free(extent.FromExtents(ck.Block))
}

// Crash kills the co-kernel mid-flight — a Pisces partition dying with
// its kernel, not the orderly Destroy. The enclave's memory block is NOT
// returned to the host zone: remote attachers may still hold (poisoned)
// mappings into it, and on real hardware a crashed partition's memory
// cannot be onlined until an operator reclaims it. The fault subsystem's
// fanout (Module.OnEnclaveDown on the survivors) propagates the segid
// and route invalidation.
func (ck *CoKernel) Crash(a *sim.Actor) {
	ck.Module.Crash(a)
}

// CreateCoKernel offlines a contiguous block of memBytes from hostZone,
// boots a Kitten instance on it, wires an IPI channel to the parent
// enclave's module, and starts the co-kernel's XEMEM module. The parent
// is normally the Linux management enclave but may be any enclave — the
// topology is arbitrary (§3.2).
func CreateCoKernel(name string, w *sim.World, costs *sim.Costs, pm *mem.PhysMem, hostZone *mem.Zone, memBytes uint64, parent *core.Module) (*CoKernel, error) {
	block, err := hostZone.AllocContigAligned(memBytes/extent.PageSize, 512)
	if err != nil {
		return nil, fmt.Errorf("pisces: cannot offline %d bytes for %s: %w", memBytes, name, err)
	}
	zone := pm.ZoneFromExtent(0, block)
	k := kitten.New(name, w, costs, pm, zone)
	mod := core.New(name, w, costs, k, false)
	Connect(mod, parent)
	mod.Start()
	return &CoKernel{OS: k, Module: mod, Block: block, host: hostZone}, nil
}
