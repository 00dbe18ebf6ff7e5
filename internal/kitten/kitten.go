// Package kitten simulates the Kitten lightweight kernel (§4): a
// special-purpose HPC OS with statically mapped process address spaces,
// SMARTMAP for local-process sharing, and — the XEMEM modification of
// §4.3 — dynamic heap extension so remote page-frame lists can be mapped
// without sacrificing either property.
//
// Kitten's distinguishing costs in the model: no demand faults (every
// region is fully mapped at process creation), cheap per-page mapping of
// remote lists (no fullweight VMA machinery), and a single core per
// enclave in the co-kernel configurations, so XEMEM serve work appears as
// detours in the enclave's noise profile (§5.5).
package kitten

import (
	"fmt"

	"xemem/internal/core"
	"xemem/internal/extent"
	"xemem/internal/mem"
	"xemem/internal/pagetable"
	"xemem/internal/proc"
	"xemem/internal/sim"
	"xemem/internal/smartmap"
	"xemem/internal/xproto"
)

// Static layout of every Kitten process (all inside top-level slot 0 so
// SMARTMAP windows of other processes can live in slots 1–511).
const (
	textBase  = pagetable.VA(0x400000)
	textPages = 16
	heapBase  = pagetable.VA(0x10000000)
	stackBase = pagetable.VA(0x7f_e000_0000)
	stackPgs  = 512
	// Dynamic heap-extension area: where remote XEMEM attachments land.
	heapExtBase = pagetable.VA(0x60_0000_0000)
)

// Kitten is one Kitten LWK instance managing a partition of the node.
type Kitten struct {
	name    string
	w       *sim.World
	c       *sim.Costs
	core    *sim.Core
	pm      *mem.PhysMem
	zone    *mem.Zone
	smap    *smartmap.Space
	nextPID int
}

// New creates a Kitten instance over the given memory partition with a
// single core, the standard co-kernel configuration.
func New(name string, w *sim.World, costs *sim.Costs, pm *mem.PhysMem, zone *mem.Zone) *Kitten {
	return &Kitten{
		name: name,
		w:    w,
		c:    costs,
		core: sim.NewCore(name + "/core"),
		pm:   pm,
		zone: zone,
		smap: smartmap.New(),
	}
}

// Core returns the enclave's (single) core.
func (k *Kitten) Core() *sim.Core { return k.core }

// Zone returns the enclave's memory partition.
func (k *Kitten) Zone() *mem.Zone { return k.zone }

// NewProcess creates a Kitten process with the static layout: text,
// stack, and a heap of heapPages, all physically contiguous and fully
// mapped at creation (§4.3 — "all virtual address space regions for
// Kitten processes are mapped statically to physical memory as processes
// are created"). It returns the process and its heap region.
func (k *Kitten) NewProcess(name string, heapPages uint64) (*proc.Process, *proc.Region, error) {
	as := proc.NewAddressSpace(proc.HostDomain{Mem: k.pm}, heapExtBase)
	alloc := func(regName string, base pagetable.VA, pages uint64, fl pagetable.Flags) (*proc.Region, error) {
		align := uint64(1)
		if pages >= 512 {
			align = 512 // large-page eligible, like a hugepage-backed buffer
		}
		e, err := k.zone.AllocContigAligned(pages, align)
		if err != nil {
			return nil, fmt.Errorf("kitten %s: %s: %w", k.name, regName, err)
		}
		return as.AddRegion(regName, base, extent.FromExtents(e), fl, false)
	}
	if _, err := alloc("text", textBase, textPages, pagetable.Read|pagetable.Exec|pagetable.User); err != nil {
		return nil, nil, err
	}
	heap, err := alloc("heap", heapBase, heapPages, pagetable.Read|pagetable.Write|pagetable.User)
	if err != nil {
		return nil, nil, err
	}
	if _, err := alloc("stack", stackBase, stackPgs, pagetable.Read|pagetable.Write|pagetable.User); err != nil {
		return nil, nil, err
	}
	k.nextPID++
	p := &proc.Process{PID: k.nextPID, Name: name, AS: as}
	if _, err := k.smap.Register(as.PageTable()); err != nil {
		return nil, nil, err
	}
	return p, heap, nil
}

func permFlags(perm xproto.Perm) pagetable.Flags {
	fl := pagetable.Read | pagetable.User
	if perm&xproto.PermWrite != 0 {
		fl |= pagetable.Write
	}
	return fl
}

// --- core.OS implementation -------------------------------------------

// OSName identifies the kernel instance.
func (k *Kitten) OSName() string { return k.name }

// KernelCore is the core XEMEM kernel work runs on — the enclave's only
// core, which is why serves are visible in the §5.5 noise profile.
func (k *Kitten) KernelCore() *sim.Core { return k.core }

// WalkForExport walks the exporting process's page tables to build the
// frame list, using Kitten's existing page-table walking functions
// (§4.3). Kitten regions are always populated, so no faults occur.
func (k *Kitten) WalkForExport(a *sim.Actor, as *proc.AddressSpace, va pagetable.VA, pages uint64) (extent.List, error) {
	k.core.Exec(a, sim.Time(pages)*k.c.WalkPerPage, "xemem-serve")
	list, faults, err := as.WalkExtents(va, pages)
	if err != nil {
		return extent.List{}, err
	}
	if faults != 0 {
		return extent.List{}, fmt.Errorf("kitten %s: unexpected demand faults (%d) in a static address space", k.name, faults)
	}
	return list, nil
}

// MapRemote maps a remote frame list through the dynamic heap-extension
// mechanism: a new fully populated region in the extension area.
func (k *Kitten) MapRemote(a *sim.Actor, p *proc.Process, list extent.List, perm xproto.Perm) (*proc.Region, error) {
	a.Charge("mmap-setup", k.c.MmapRegionSetup)
	k.core.Exec(a, sim.Time(list.Pages())*k.c.MapPerPageKitten, "xemem-attach")
	return p.AS.AddRegion("xemem-remote", 0, list, permFlags(perm), false)
}

// UnmapRemote tears down a heap-extension region.
func (k *Kitten) UnmapRemote(a *sim.Actor, p *proc.Process, r *proc.Region) error {
	k.core.Exec(a, sim.Time(r.Pages())*k.c.UnmapPerPage, "xemem-detach")
	return p.AS.RemoveRegion(r)
}

// AttachLocal attaches a locally owned segment via SMARTMAP: an O(1)
// top-level-slot share instead of per-page mapping (§4.3 keeps SMARTMAP
// for local processes).
func (k *Kitten) AttachLocal(a *sim.Actor, seg *core.Segment, p *proc.Process, offPages, pages uint64, perm xproto.Perm) (*proc.Region, error) {
	a.Charge("smartmap-attach", k.c.SmartmapAttach)
	srcVA := seg.VA + pagetable.VA(offPages*extent.PageSize)
	win, err := k.smap.Attach(p.AS.PageTable(), seg.Owner.AS.PageTable(), srcVA)
	if err != nil {
		return nil, err
	}
	// Record a window region for bookkeeping. It is lazy with zero
	// populated pages: translations resolve through the shared slot, so
	// the populate path never fires, and detach must not unmap.
	backing, err := seg.Owner.AS.PageTable().ExtentsFor(srcVA, pages)
	if err != nil {
		_ = k.smap.Detach(p.AS.PageTable(), win)
		return nil, err
	}
	r, err := p.AS.AddRegion("smartmap-window", win, backing, permFlags(perm), true)
	if err != nil {
		_ = k.smap.Detach(p.AS.PageTable(), win)
		return nil, err
	}
	return r, nil
}

// DetachLocal releases a SMARTMAP window.
func (k *Kitten) DetachLocal(a *sim.Actor, p *proc.Process, r *proc.Region) error {
	a.Charge("smartmap-detach", k.c.SmartmapAttach)
	if err := k.smap.Detach(p.AS.PageTable(), r.Base); err != nil {
		return err
	}
	return p.AS.ForgetRegion(r)
}

var _ core.OS = (*Kitten)(nil)
