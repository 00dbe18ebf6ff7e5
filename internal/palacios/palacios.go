// Package palacios simulates the Palacios virtual machine monitor's XEMEM
// support (§4.4): the guest-physical→host-physical memory map, the
// virtual PCI device used for two-way notifications, and the two
// translation paths of Fig. 4.
//
// The memory map is, as in Palacios, a red-black tree whose entries map
// physically contiguous guest regions to physically contiguous host
// regions. A VM's own RAM is one large entry; but host frames arriving
// through an XEMEM attachment are delivered as a flat frame list with no
// contiguity guarantee, and — matching the production implementation the
// paper measures — the VMM inserts one tree entry per page. The §5.4
// result (≈80 % of guest-attachment time spent updating the tree, 3.99 vs
// 8.79 GB/s) is regenerated from the real visit and rotation counts of
// those inserts. The radix-tree map the paper proposes as future work is
// not modelled.
package palacios

import (
	"fmt"

	"xemem/internal/core"
	"xemem/internal/extent"
	"xemem/internal/linuxos"
	"xemem/internal/mem"
	"xemem/internal/proc"
	"xemem/internal/rbtree"
	"xemem/internal/sim"
	"xemem/internal/xproto"
)

// guest-physical layout: RAM frames start at ramBase; imported XEMEM
// regions are allocated upward from importBase, far above any RAM.
const (
	ramBase    = extent.PFN(0x200)
	importBase = uint64(1) << 32
)

// VM is one Palacios virtual machine: a Linux guest enclave whose
// physical address space translates through the VMM memory map, connected
// to its host enclave by the virtual PCI channel.
type VM struct {
	name string
	c    *sim.Costs
	pm   *mem.PhysMem
	mmap *rbtree.Map

	Guest  *linuxos.Linux
	Module *core.Module

	gpaNext uint64
	imports map[extent.PFN]*importRec // import region base → record

	// Import-cycle memoization: the per-page insert/delete work for an
	// attach/detach cycle of a single-extent host list is a deterministic
	// function of (map entries before, pages). The first cycle performs
	// every insert and delete on the real tree and records the exact
	// charged time; identical later cycles replay the charge against a
	// single compressed structural entry. This keeps 500-attachment
	// experiments affordable without altering a single charged
	// nanosecond.
	insertMemo map[memoKey]sim.Time
	removeMemo map[memoKey]sim.Time

	// MapInsertTime accumulates the simulated time charged for memory-map
	// insertions during imports — Table 2's "(w/o rb-tree inserts)"
	// column subtracts it.
	MapInsertTime sim.Time
	// MapInserts counts entries inserted during imports.
	MapInserts int
}

// Launch creates a VM with memBytes of RAM carved contiguously from
// hostZone, boots a Linux guest with guestCores vcpus, wires the virtual
// PCI channel to the host enclave's module, and starts the guest's XEMEM
// module.
func Launch(name string, w *sim.World, pm *mem.PhysMem, hostZone *mem.Zone, memBytes uint64, guestCores int, host *core.Module) (*VM, error) {
	pages := memBytes / extent.PageSize
	block, err := hostZone.AllocContigAligned(pages, 512)
	if err != nil {
		return nil, fmt.Errorf("palacios: cannot allocate %d bytes of guest RAM for %s: %w", memBytes, name, err)
	}
	vm := &VM{
		name: name, c: w.Costs(), pm: pm,
		mmap:       rbtree.New(),
		gpaNext:    importBase,
		imports:    make(map[extent.PFN]*importRec),
		insertMemo: make(map[memoKey]sim.Time),
		removeMemo: make(map[memoKey]sim.Time),
	}
	// Guest RAM: one large contiguous entry, the common Palacios case
	// where "the size of the memory map is limited" (§5.4).
	if _, err := vm.mmap.Insert(uint64(ramBase), pages, uint64(block.First)); err != nil {
		return nil, err
	}

	guestZone := mem.NewDetachedZone(0, extent.Extent{First: ramBase, Count: pages})
	vm.Guest = linuxos.New(name+"-guest", w, guestZone, guestDomain{vm: vm}, guestCores)
	vm.Guest.SetVirtHooks(vm)
	vm.Module = core.New(name+"-guest", w, vm.Guest, false)
	connectPCI(vm, host)
	vm.Module.Start()
	return vm, nil
}

// MapEntries reports the guest memory map's current entry count. Only
// tests read it: palacios's external tests and the root package's check
// that maps and unmaps leave no stray entry.
func (vm *VM) MapEntries() int { return vm.mmap.Size() }

// translateOut converts a guest-physical frame list to host frames by
// walking the memory map (Fig. 4(b)), charging a per-run map walk plus a
// per-page translation cost to the acting actor.
func (vm *VM) translateOut(a *sim.Actor, gpa extent.List) (extent.List, error) {
	out, visits, err := vm.walk(gpa)
	if err != nil {
		return extent.List{}, err
	}
	a.Charge("gpa-xlate", sim.Time(visits)*vm.c.RBVisit+sim.Time(gpa.Pages())*vm.c.PalaciosXlatePerPage)
	return out, nil
}

// walk resolves a guest-physical frame list run by run through the
// memory map, reporting the map nodes the lookups visited.
func (vm *VM) walk(gpa extent.List) (extent.List, int, error) {
	var out extent.List
	visits := 0
	for _, e := range gpa.Extents() {
		g := uint64(e.First)
		rem := e.Count
		for rem > 0 {
			hpa, runStart, runCount, st, ok := vm.mmap.Lookup(g)
			visits += st.Visits
			if !ok {
				return extent.List{}, visits, fmt.Errorf("palacios %s: guest frame %#x unmapped", vm.name, g)
			}
			take := min(runCount-(g-runStart), rem)
			out.Append(extent.PFN(hpa), take)
			g += take
			rem -= take
		}
	}
	return out, visits, nil
}

type memoKey struct {
	baseEntries int
	pages       uint64
}

type importRec struct {
	pages uint64
	// compressed imports hold one structural map entry; their charge was
	// replayed from the memo rather than measured on live inserts.
	compressed bool
	memo       memoKey
}

// importList implements Fig. 4(a): allocate a new guest-physical region
// equal in size to the shared memory, and update the memory map to point
// it at the host frames — one entry per page, since the frame list
// carries no contiguity guarantee. Each host extent goes into the map as
// one InsertRun, whose summed visits and rotations are what the per-page
// inserts would charge. The insert time is charged to the acting actor
// and accumulated in MapInsertTime.
func (vm *VM) importList(a *sim.Actor, host extent.List) (extent.List, error) {
	pages := host.Pages()
	gpaFirst := vm.gpaNext
	vm.gpaNext += pages
	rec := &importRec{pages: pages}
	key := memoKey{baseEntries: vm.mmap.Size(), pages: pages}

	var spent sim.Time
	if cached, ok := vm.insertMemo[key]; ok && host.Len() == 1 {
		// Replay an identical earlier cycle against one compressed entry.
		if _, err := vm.mmap.Insert(gpaFirst, pages, uint64(host.Extents()[0].First)); err != nil {
			return extent.List{}, err
		}
		spent = cached
		rec.compressed = true
		rec.memo = key
	} else {
		g := gpaFirst
		for _, e := range host.Extents() {
			st, err := vm.mmap.InsertRun(g, e.Count, uint64(e.First))
			if err != nil {
				return extent.List{}, err
			}
			spent += sim.Time(st.Visits)*vm.c.RBVisit + sim.Time(st.Rotations)*vm.c.RBRotate
			g += e.Count
		}
		if host.Len() == 1 {
			vm.insertMemo[key] = spent
			rec.memo = key
		}
	}
	vm.MapInserts += int(pages)
	a.Charge("map-insert", spent)
	vm.MapInsertTime += spent
	vm.imports[extent.PFN(gpaFirst)] = rec
	return extent.FromExtents(extent.Extent{First: extent.PFN(gpaFirst), Count: pages}), nil
}

// ReleaseImport tears down the memory-map entries behind an imported
// guest-physical list (the guest detached): a live import's pages as one
// DeleteRun, a memoized import's compressed entry as one Delete. A
// removal charges its visits and rotations alike at RBVisit.
// Implements linuxos.VirtHooks.
func (vm *VM) ReleaseImport(a *sim.Actor, list extent.List) error {
	var spent sim.Time
	for _, e := range list.Extents() {
		base := e.First
		rec, ok := vm.imports[base]
		if !ok || rec.pages != e.Count {
			return fmt.Errorf("palacios %s: release of unknown import %v", vm.name, e)
		}
		if rec.compressed {
			st, err := vm.mmap.Delete(uint64(base))
			if err != nil {
				return err
			}
			if cached, ok := vm.removeMemo[rec.memo]; ok {
				spent += cached
			} else {
				spent += sim.Time(st.Visits+st.Rotations) * vm.c.RBVisit
			}
		} else {
			st, err := vm.mmap.DeleteRun(uint64(base), e.Count)
			if err != nil {
				return err
			}
			cost := sim.Time(st.Visits+st.Rotations) * vm.c.RBVisit
			spent += cost
			if rec.memo != (memoKey{}) {
				vm.removeMemo[rec.memo] = cost
			}
		}
		delete(vm.imports, base)
	}
	a.Charge("map-remove", spent)
	return nil
}

var _ linuxos.VirtHooks = (*VM)(nil)

// guestDomain translates guest-physical frame lists to host frames for
// functional memory access (no simulated cost: protocol paths charge
// their own translation time).
type guestDomain struct{ vm *VM }

// TranslateList resolves every run through the memory map.
func (d guestDomain) TranslateList(l extent.List) (extent.List, error) {
	out, _, err := d.vm.walk(l)
	return out, err
}

// Host returns the node's host physical memory.
func (d guestDomain) Host() *mem.PhysMem { return d.vm.pm }

var _ proc.Domain = guestDomain{}

// --- Virtual PCI channel (§4.4, §4.5) -----------------------------------

type pciLink struct {
	name    string
	vm      *VM
	toGuest bool
	peer    *pciLink
	in      *xproto.Inbox
}

// Send implements the Palacios host/guest channel. Messages without frame
// lists use the simple command-header path; attach responses carry frame
// lists that are translated as they cross the VM boundary (Fig. 4).
func (l *pciLink) Send(a *sim.Actor, m *xproto.Message) {
	c := l.vm.c
	if m.List.Pages() > 0 {
		if m.Type != xproto.MsgAttachResp {
			panic(fmt.Sprintf("palacios: unexpected frame list on %s message", m.Type))
		}
		var translated extent.List
		var err error
		if l.toGuest {
			translated, err = l.vm.importList(a, m.List)
		} else {
			translated, err = l.vm.translateOut(a, m.List)
		}
		if err != nil {
			// Deliver a failure so the requester unblocks rather than
			// hanging; the owner's pins are reclaimed at VM teardown.
			m = &xproto.Message{Type: m.Type, Status: xproto.StatusError, Src: m.Src, Dst: m.Dst, ReqID: m.ReqID, Segid: m.Segid}
		} else {
			cp := *m
			cp.List = translated
			m = &cp
		}
	}
	a.Charge("pci-copy", sim.CopyTime(m.WireSize(), c.PCICopyBW))
	if l.toGuest {
		a.Charge("irq-inject", c.IRQInject) // raise a virtual IRQ on the device
	} else {
		a.Charge("hypercall", c.Hypercall) // trigger an exit into the host
	}
	l.in.Put(a, m, l.peer)
}

// String names the link.
func (l *pciLink) String() string { return l.name }

// connectPCI wires the virtual PCI channel between the guest module and
// its host enclave's module.
func connectPCI(vm *VM, host *core.Module) {
	toGuest := &pciLink{name: fmt.Sprintf("pci:%s->%s", host.Name(), vm.name), vm: vm, toGuest: true, in: vm.Module.In}
	toHost := &pciLink{name: fmt.Sprintf("pci:%s->%s", vm.name, host.Name()), vm: vm, toGuest: false, in: host.In}
	toGuest.peer = toHost
	toHost.peer = toGuest
	core.Connect(host, vm.Module, toGuest, toHost)
}
