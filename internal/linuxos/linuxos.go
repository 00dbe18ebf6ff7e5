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
	"xemem/internal/sim/snapshot"
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
	virt    VirtHooks //xemem:nosnap -- nil when native; virtualization wiring installed by SetVirtHooks at build time
	nextPID int

	procCore map[*proc.Process]*sim.Core
	// procs holds every process in creation order — procCore is keyed by
	// host pointer, so snapshot encoding iterates this slice instead.
	procs []*proc.Process

	// activeMappers counts processes currently inside an address-space
	// update; >1 means shared mm structures are bouncing between cores.
	activeMappers int //xemem:nosnap -- reentrancy meter around one address-space update; the paired decrement runs before the actor yields for good, so it is zero whenever the world is quiescent for a snapshot
}

// New creates a Linux instance with ncores cores over the given zone and
// physical domain (HostDomain natively, the Palacios guest domain in a
// VM).
func New(name string, w *sim.World, costs *sim.Costs, zone *mem.Zone, dom proc.Domain, ncores int) *Linux {
	if ncores < 1 {
		ncores = 1
	}
	l := &Linux{
		name: name, w: w, c: costs, zone: zone, dom: dom,
		procCore: make(map[*proc.Process]*sim.Core),
	}
	for i := 0; i < ncores; i++ {
		l.cores = append(l.cores, sim.NewCore(fmt.Sprintf("%s/core%d", name, i)))
	}
	w.AddSnapshotComponent("os/"+name, l.EncodeSnapshot)
	return l
}

// SetVirtHooks marks this instance as a Palacios guest.
func (l *Linux) SetVirtHooks(v VirtHooks) { l.virt = v }

// Name reports the instance name (also its snapshot section suffix).
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
	l.procs = append(l.procs, p)
	return p
}

// EncodeSnapshot appends the kernel instance's state to e: every process
// in creation order with its PID and address space, then every core's
// scheduling state and statistics in index order. The zone is owned by
// the node's PhysMem (or the VMM) and is captured there.
func (l *Linux) EncodeSnapshot(e *snapshot.Enc) {
	e.Str(l.name)
	e.U64(uint64(l.nextPID))
	e.U64(uint64(len(l.procs)))
	for _, p := range l.procs {
		e.U64(uint64(p.PID))
		e.Str(p.Name)
		p.AS.EncodeSnapshot(e)
	}
	e.U64(uint64(len(l.cores)))
	for _, c := range l.cores {
		c.EncodeSnapshot(e)
	}
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

// ExportWalkCost charges what a repeat WalkForExport would: a cached
// window was walked (and so populated) by a previous serve, so the
// repeat takes zero demand faults and costs the per-page pin+walk price.
func (l *Linux) ExportWalkCost(a *sim.Actor, pages uint64) {
	l.cores[0].Exec(a, sim.Time(pages)*(l.c.WalkPerPage+l.c.PinPerPage), "xemem-serve")
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

// ChargeFaults bills demand faults taken by a user-level access on the
// process's core. Workload drivers call it with the fault counts returned
// by AddressSpace accessors.
func (l *Linux) ChargeFaults(a *sim.Actor, p *proc.Process, faults int) {
	if faults > 0 {
		l.CoreOf(p).Exec(a, sim.Time(faults)*l.c.FaultLinux, "fault")
	}
}

var _ core.OS = (*Linux)(nil)
