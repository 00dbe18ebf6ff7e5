// Package linuxos simulates a Linux enclave kernel — both the native
// management enclave and the Centos guests running inside Palacios VMs.
//
// The properties the evaluation depends on are modelled faithfully:
//
//   - exports pin memory with get_user_pages and walk page tables to
//     build frame lists (§4.3);
//   - remote frame lists are mapped with vm_mmap + remap_pfn_range,
//     eagerly, at fullweight per-page cost;
//   - *local* (single-OS) XEMEM attachments are populated lazily with
//     page-fault semantics — the overhead source the paper identifies for
//     the recurring-attachment model in the Linux-only configuration
//     (§6.4);
//   - concurrent address-space updates by multiple processes contend on
//     shared mm structures (§5.3), modelled as a per-page coherence
//     penalty whenever more than one mapper is active;
//   - under Pisces, all cross-enclave IPIs are handled on core 0 (§5.3),
//     which is the module's kernel core.
package linuxos

import (
	"fmt"

	"xemem/internal/core"
	"xemem/internal/extent"
	"xemem/internal/mem"
	"xemem/internal/pagetable"
	"xemem/internal/proc"
	"xemem/internal/sim"
	"xemem/internal/xproto"
)

// VirtHooks is implemented by Palacios when this Linux instance runs as a
// guest: imported host frame lists have VMM-side state (guest-physical
// regions and memory-map entries) that must be released on detach.
type VirtHooks interface {
	// ReleaseImport tears down the VMM state backing an imported
	// guest-physical frame list, charging the acting actor.
	ReleaseImport(a *sim.Actor, list extent.List) error
}

// Linux is one Linux kernel instance.
type Linux struct {
	name    string
	w       *sim.World
	c       *sim.Costs
	cores   []*sim.Core
	zone    *mem.Zone
	dom     proc.Domain
	virt    VirtHooks
	nextPID int

	procCore map[*proc.Process]*sim.Core

	// activeMappers counts processes currently inside an address-space
	// update; >1 means shared mm structures are bouncing between cores.
	activeMappers int
}

// New creates a Linux instance with ncores cores over the given zone and
// physical domain (HostDomain natively, the Palacios guest domain in a
// VM).
func New(name string, w *sim.World, zone *mem.Zone, dom proc.Domain, ncores int) *Linux {
	if ncores < 1 {
		ncores = 1
	}
	l := &Linux{
		name: name, w: w, c: w.Costs(), zone: zone, dom: dom,
		procCore: make(map[*proc.Process]*sim.Core),
	}
	for i := 0; i < ncores; i++ {
		l.cores = append(l.cores, sim.NewCore(fmt.Sprintf("%s/core%d", name, i)))
	}
	return l
}

// SetVirtHooks marks this instance as a Palacios guest.
func (l *Linux) SetVirtHooks(v VirtHooks) { l.virt = v }

// Name reports the instance name.
func (l *Linux) Name() string { return l.name }

// Zone returns the instance's memory zone.
func (l *Linux) Zone() *mem.Zone { return l.zone }

// Cores returns the instance's cores (core 0 handles kernel work).
func (l *Linux) Cores() []*sim.Core { return l.cores }

// NewProcess creates an empty Linux process. Its syscall-context work runs
// on the given core index (clamped); user cores should avoid core 0,
// which serves cross-enclave IPIs.
func (l *Linux) NewProcess(name string, coreIdx int) *proc.Process {
	l.nextPID++
	p := &proc.Process{PID: l.nextPID, Name: name, AS: proc.NewAddressSpace(l.dom, 0x7f00_0000_0000)}
	if coreIdx < 0 {
		coreIdx = 0
	}
	if coreIdx >= len(l.cores) {
		coreIdx = len(l.cores) - 1
	}
	l.procCore[p] = l.cores[coreIdx]
	return p
}

// CoreOf reports the core a process's syscall work executes on.
func (l *Linux) CoreOf(p *proc.Process) *sim.Core {
	if c, ok := l.procCore[p]; ok {
		return c
	}
	return l.cores[0]
}

// Alloc gives the process a new anonymous memory region of npages,
// allocated scattered (fullweight allocators fragment) and populated
// lazily unless eager is set (modelling a warmed-up buffer).
func (l *Linux) Alloc(p *proc.Process, name string, npages uint64, eager bool) (*proc.Region, error) {
	backing, err := l.zone.AllocScattered(npages, 512)
	if err != nil {
		return nil, err
	}
	return p.AS.AddRegion(name, 0, backing, pagetable.Read|pagetable.Write|pagetable.User, !eager)
}

// AllocContiguous gives the process a physically contiguous, 2 MB-aligned
// region — a hugepage-backed HPC buffer. Eager regions are fully mapped.
func (l *Linux) AllocContiguous(p *proc.Process, name string, npages uint64, eager bool) (*proc.Region, error) {
	e, err := l.zone.AllocContigAligned(npages, 512)
	if err != nil {
		return nil, err
	}
	return p.AS.AddRegion(name, 0, extent.FromExtents(e), pagetable.Read|pagetable.Write|pagetable.User, !eager)
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
func (l *Linux) OSName() string { return l.name }

// KernelCore is core 0: under Pisces, every cross-enclave IPI lands there
// (§5.3).
func (l *Linux) KernelCore() *sim.Core { return l.cores[0] }

// KernelCores exposes every core for distributed interrupt handling —
// only used when the module is configured with multiple kernel workers
// (the §5.3 future work); the default single worker stays on core 0.
func (l *Linux) KernelCores() []*sim.Core { return l.cores }

// WalkForExport pins (get_user_pages) and walks the exporting process's
// pages, charging fullweight per-page pin+walk costs plus any demand
// faults population triggers.
func (l *Linux) WalkForExport(a *sim.Actor, as *proc.AddressSpace, va pagetable.VA, pages uint64) (extent.List, error) {
	list, faults, err := as.WalkExtents(va, pages)
	if err != nil {
		return extent.List{}, err
	}
	cost := sim.Time(pages)*(l.c.WalkPerPage+l.c.PinPerPage) + sim.Time(faults)*l.c.FaultLinux
	l.cores[0].Exec(a, cost, "xemem-serve")
	return list, nil
}

// MapRemote maps a remote frame list with vm_mmap + remap_pfn_range:
// eager per-page population at fullweight cost, plus the coherence
// penalty when other processes are concurrently updating memory maps, and
// nested-paging overhead inside a guest.
func (l *Linux) MapRemote(a *sim.Actor, p *proc.Process, list extent.List, perm xproto.Perm) (*proc.Region, error) {
	perPage := l.c.MapPerPageLinux
	var coherence, nested sim.Time
	if l.activeMappers > 0 {
		coherence = l.c.CoherencePerPage
		perPage += coherence
	}
	if l.virt != nil {
		nested = l.c.NestedMapPerPage
		perPage += nested
	}
	l.activeMappers++
	a.Charge("mmap-setup", l.c.MmapRegionSetup)
	// The coherence and nested-paging components ride inside the single
	// map charge (splitting the Exec would change the schedule); attribute
	// them separately so traces can decompose the §5.3 dip exactly.
	if obs := a.Observer(); obs != nil {
		if coherence > 0 {
			obs.Count("mm-coherence", a, sim.Time(list.Pages())*coherence)
		}
		if nested > 0 {
			obs.Count("nested-map", a, sim.Time(list.Pages())*nested)
		}
	}
	l.CoreOf(p).Exec(a, sim.Time(list.Pages())*perPage, "xemem-attach")
	r, err := p.AS.AddRegion("xemem-remote", 0, list, permFlags(perm), false)
	l.activeMappers--
	return r, err
}

// UnmapRemote tears down a region created by MapRemote, releasing any
// VMM-side import state when running as a guest.
func (l *Linux) UnmapRemote(a *sim.Actor, p *proc.Process, r *proc.Region) error {
	l.CoreOf(p).Exec(a, sim.Time(r.Pages())*l.c.UnmapPerPage, "xemem-detach")
	backing := r.Backing
	if err := p.AS.RemoveRegion(r); err != nil {
		return err
	}
	if l.virt != nil {
		return l.virt.ReleaseImport(a, backing)
	}
	return nil
}

// AttachLocal implements single-OS XEMEM attachment with Linux's
// page-fault semantics (§6.4): the attach itself only creates the VMA;
// pages populate on first touch at fault cost.
func (l *Linux) AttachLocal(a *sim.Actor, seg *core.Segment, p *proc.Process, offPages, pages uint64, perm xproto.Perm) (*proc.Region, error) {
	a.Charge("mmap-setup", l.c.MmapRegionSetup)
	srcVA := seg.VA + pagetable.VA(offPages*extent.PageSize)
	// Resolve the source frames (populating the exporter if needed).
	backing, faults, err := seg.Owner.AS.WalkExtents(srcVA, pages)
	if err != nil {
		return nil, err
	}
	if faults > 0 {
		l.cores[0].Exec(a, sim.Time(faults)*l.c.FaultLinux, "fault")
	}
	return p.AS.AddRegion("xemem-local", 0, backing, permFlags(perm), true)
}

// DetachLocal unmaps whatever a local attachment faulted in.
func (l *Linux) DetachLocal(a *sim.Actor, p *proc.Process, r *proc.Region) error {
	l.CoreOf(p).Exec(a, sim.Time(r.Populated)*l.c.UnmapPerPage, "xemem-detach")
	return p.AS.RemoveRegion(r)
}

var _ core.OS = (*Linux)(nil)
