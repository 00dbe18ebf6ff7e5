// Package proc provides the process and address-space abstraction shared
// by every enclave OS in the reproduction (Kitten, Linux, and Linux guests
// under Palacios).
//
// An AddressSpace is a set of named regions backed by frame lists in the
// OS's physical domain, realized through a real 4-level page table.
// Regions can be populated eagerly (Kitten's static mapping policy, §4.3)
// or lazily with demand faults (Linux's page-fault semantics, §6.4 — the
// source of the single-OS recurring-attachment overhead the paper
// observes). Reads and writes translate through the page table and the
// OS's physical domain to the node's host memory, so data written by a
// process in one enclave is genuinely visible to an attached process in
// another.
//
// The package is functional only; OS layers charge simulated time using
// the fault and page counts these methods report.
package proc

import (
	"fmt"
	"sort"

	"xemem/internal/extent"
	"xemem/internal/mem"
	"xemem/internal/pagetable"
)

// Domain translates frame lists from an OS's physical domain to host
// physical frames. Native enclaves use the identity HostDomain; a Palacios
// guest's domain walks the VMM memory map.
type Domain interface {
	// TranslateList converts domain frames to host frames, preserving
	// order and total page count.
	TranslateList(l extent.List) (extent.List, error)
	// Host returns the node's host physical memory.
	Host() *mem.PhysMem
}

// HostDomain is the identity domain of a native enclave.
type HostDomain struct {
	Mem *mem.PhysMem
}

// TranslateList returns l unchanged: native frames are host frames.
func (d HostDomain) TranslateList(l extent.List) (extent.List, error) { return l, nil }

// Host returns the node's physical memory.
func (d HostDomain) Host() *mem.PhysMem { return d.Mem }

// Region is a contiguous range of virtual address space backed by a frame
// list in the owning OS's physical domain.
type Region struct {
	Name    string
	Base    pagetable.VA
	Backing extent.List
	Flags   pagetable.Flags
	// Lazy regions are populated page-by-page on first touch (demand
	// faults); eager regions are fully mapped at creation.
	Lazy bool
	// Populated counts PTEs currently installed for this region.
	Populated uint64
}

// Pages reports the region's size in pages.
func (r *Region) Pages() uint64 { return r.Backing.Pages() }

// End reports the first address past the region.
func (r *Region) End() pagetable.VA {
	return r.Base + pagetable.VA(r.Pages()*extent.PageSize)
}

// Contains reports whether va falls inside the region.
func (r *Region) Contains(va pagetable.VA) bool { return va >= r.Base && va < r.End() }

// AddressSpace is one process's virtual address space.
type AddressSpace struct {
	pt      *pagetable.Table
	dom     Domain
	regions []*Region // sorted by Base
	mmapCur pagetable.VA
	frames  extent.List
}

// NewAddressSpace creates an empty address space over dom whose automatic
// region placement starts at mmapBase and grows upward.
func NewAddressSpace(dom Domain, mmapBase pagetable.VA) *AddressSpace {
	return &AddressSpace{pt: pagetable.New(), dom: dom, mmapCur: mmapBase}
}

// Domain reports the address space's physical domain.
func (as *AddressSpace) Domain() Domain { return as.dom }

// PageTable exposes the underlying table (used by SMARTMAP, which shares
// top-level slots between local processes).
func (as *AddressSpace) PageTable() *pagetable.Table { return as.pt }

// Regions returns the regions sorted by base address.
func (as *AddressSpace) Regions() []*Region {
	out := make([]*Region, len(as.regions))
	copy(out, as.regions)
	return out
}

// ReserveVA allocates npages of unused virtual address space from the
// automatic placement area, 2 MB-aligned so large-page mappings remain
// possible.
func (as *AddressSpace) ReserveVA(npages uint64) pagetable.VA {
	const align = 512 * extent.PageSize // 2 MB
	va := (uint64(as.mmapCur) + align - 1) &^ uint64(align-1)
	as.mmapCur = pagetable.VA(va + npages*extent.PageSize)
	return pagetable.VA(va)
}

// AddRegion creates a region at base (or an automatically reserved range
// when base is 0) backed by the given frame list. Eager regions are fully
// mapped immediately; lazy regions install no PTEs until touched or
// populated. Overlapping an existing region is an error.
func (as *AddressSpace) AddRegion(name string, base pagetable.VA, backing extent.List, flags pagetable.Flags, lazy bool) (*Region, error) {
	if backing.Pages() == 0 {
		return nil, fmt.Errorf("proc: empty region %q", name)
	}
	if base == 0 {
		base = as.ReserveVA(backing.Pages())
	}
	if base.Offset() != 0 {
		return nil, fmt.Errorf("proc: unaligned region %q at %#x", name, uint64(base))
	}
	r := &Region{Name: name, Base: base, Backing: backing, Flags: flags, Lazy: lazy}
	i := sort.Search(len(as.regions), func(i int) bool { return as.regions[i].Base >= base })
	if i > 0 && as.regions[i-1].End() > base {
		return nil, fmt.Errorf("proc: region %q overlaps %q", name, as.regions[i-1].Name)
	}
	if i < len(as.regions) && r.End() > as.regions[i].Base {
		return nil, fmt.Errorf("proc: region %q overlaps %q", name, as.regions[i].Name)
	}
	if !lazy {
		if err := as.pt.MapList(base, backing, flags); err != nil {
			return nil, err
		}
		r.Populated = backing.Pages()
	}
	as.regions = append(as.regions, nil)
	copy(as.regions[i+1:], as.regions[i:])
	as.regions[i] = r
	return r, nil
}

// RemoveRegion unmaps whatever PTEs the region has populated and forgets
// the region. The backing frames are not freed — ownership of frames
// belongs to the OS layer.
func (as *AddressSpace) RemoveRegion(r *Region) error {
	for i, have := range as.regions {
		if have != r {
			continue
		}
		if r.Populated == r.Pages() {
			// Fully populated: one ranged unmap preserves large leaves.
			if err := as.pt.Unmap(r.Base, r.Pages()); err != nil {
				return err
			}
		} else if r.Populated > 0 {
			// Sparse (lazy) population: partition the range into mapped and
			// unmapped runs and unmap each mapped run, instead of probing
			// every page.
			va := r.Base
			rem := r.Pages()
			for rem > 0 {
				run, mapped := as.pt.MappedRun(va, rem)
				if mapped {
					if err := as.pt.Unmap(va, run); err != nil {
						return err
					}
				}
				va += pagetable.VA(run * extent.PageSize)
				rem -= run
			}
		}
		as.regions = append(as.regions[:i], as.regions[i+1:]...)
		return nil
	}
	return fmt.Errorf("proc: region %q not in address space", r.Name)
}

// ForgetRegion drops the region record without touching the page table.
// SMARTMAP windows use it: their translations live in a borrowed top-level
// slot that the borrower must not unmap.
func (as *AddressSpace) ForgetRegion(r *Region) error {
	for i, have := range as.regions {
		if have == r {
			as.regions = append(as.regions[:i], as.regions[i+1:]...)
			return nil
		}
	}
	return fmt.Errorf("proc: region %q not in address space", r.Name)
}

// FindRegion returns the region containing va, or nil.
func (as *AddressSpace) FindRegion(va pagetable.VA) *Region {
	i := sort.Search(len(as.regions), func(i int) bool { return as.regions[i].End() > va })
	if i < len(as.regions) && as.regions[i].Contains(va) {
		return as.regions[i]
	}
	return nil
}

// PopulateRange installs PTEs for pages [va, va+npages) that are not yet
// mapped, pulling frames from their regions' backing lists. It reports how
// many demand faults (page installs) occurred — the OS layer charges fault
// cost per install. This is both the demand-fault path and the
// get_user_pages population path (§4.3).
func (as *AddressSpace) PopulateRange(va pagetable.VA, npages uint64) (faults int, err error) {
	if va.Offset() != 0 {
		return 0, fmt.Errorf("proc: unaligned populate at %#x", uint64(va))
	}
	for npages > 0 {
		run, mapped := as.pt.MappedRun(va, npages)
		if mapped {
			va += pagetable.VA(run * extent.PageSize)
			npages -= run
			continue
		}
		r := as.FindRegion(va)
		if r == nil {
			return faults, fmt.Errorf("proc: fault at %#x outside any region", uint64(va))
		}
		// The unmapped run may extend past the region's end (into the next
		// region, or into unmapped space that errors on the next lap).
		if rem := (r.End() - va).Page(); run > rem {
			run = rem
		}
		idx := (va - r.Base).Page()
		part, err := r.Backing.Slice(idx, run)
		if err != nil {
			return faults, err
		}
		// Install each physically contiguous run of backing frames with one
		// ranged map: identical PTEs (4 KB leaves) and fault count to the
		// per-page demand loop, O(1)-ish host work per extent.
		for _, e := range part.Extents() {
			if err := as.pt.MapRun(va, e.First, e.Count, r.Flags); err != nil {
				return faults, err
			}
			r.Populated += e.Count
			faults += int(e.Count)
			va += pagetable.VA(e.Count * extent.PageSize)
			npages -= e.Count
		}
	}
	return faults, nil
}

// PopulateAll installs every missing PTE of a region (a first-touch burst
// over the whole range). A fully unpopulated region is mapped in one
// ranged operation, which preserves large-page leaves. It reports how
// many pages were installed.
func (as *AddressSpace) PopulateAll(r *Region) (uint64, error) {
	if r.Populated == 0 {
		if err := as.pt.MapList(r.Base, r.Backing, r.Flags); err != nil {
			return 0, err
		}
		r.Populated = r.Pages()
		return r.Pages(), nil
	}
	faults, err := as.PopulateRange(r.Base, r.Pages())
	return uint64(faults), err
}

// WalkExtents produces the frame list (in the OS's domain) backing
// [va, va+npages), populating lazy pages first — the serve side of the
// XEMEM protocol. It reports demand faults taken during population.
// A fully mapped range is walked once: population would install nothing.
func (as *AddressSpace) WalkExtents(va pagetable.VA, npages uint64) (extent.List, int, error) {
	if l, err := as.pt.ExtentsFor(va, npages); err == nil {
		return l, 0, nil
	}
	faults, err := as.PopulateRange(va, npages)
	if err != nil {
		return extent.List{}, faults, err
	}
	l, err := as.pt.ExtentsFor(va, npages)
	return l, faults, err
}

// Read copies len(p) bytes from va into p, demand-populating lazy pages.
// It reports the number of faults taken.
func (as *AddressSpace) Read(va pagetable.VA, p []byte) (int, error) {
	return as.access(va, p, mem.OpRead)
}

// Write copies p into the address space at va, demand-populating lazy
// pages. It reports the number of faults taken.
func (as *AddressSpace) Write(va pagetable.VA, p []byte) (int, error) {
	return as.access(va, p, mem.OpWrite)
}

// Add adds p into the address space at va in place, byte-wise mod 256,
// demand-populating lazy pages; the pages must be readable and writable.
// It reports the number of faults taken.
func (as *AddressSpace) Add(va pagetable.VA, p []byte) (int, error) {
	return as.access(va, p, mem.OpAdd)
}

// access applies op to [va, va+len(p)). It resolves the range leaf by
// leaf — demand-populating unmapped runs, counting the faults, and
// checking each leaf's permissions as the MMU would — while appending
// every leaf's frames to one domain frame list. The data then moves with
// one TranslateList and one PhysMem.Access (read, write or in-place add)
// per call, however many leaves the access spans. A protection fault or
// populate error still applies op to the prefix resolved before it, then
// returns that error. The frame list is the address space's own scratch,
// so a warm access allocates nothing; access never yields, so no other
// access can reach it mid-call.
func (as *AddressSpace) access(va pagetable.VA, p []byte, op mem.Op) (int, error) {
	faults := 0
	frames := &as.frames // domain frames of the leaves resolved so far
	frames.Reset()
	done := uint64(0) // bytes of p those leaves cover
	for done < uint64(len(p)) {
		cur := va + pagetable.VA(done)
		rest := uint64(len(p)) - done
		pageVA := cur - pagetable.VA(cur.Offset())
		// Pages the remaining access touches, counted from cur's page.
		touched := (cur.Offset() + rest + extent.PageSize - 1) / extent.PageSize
		run, mapped := as.pt.MappedRun(pageVA, touched)
		if !mapped {
			// Demand-populate the unmapped run (clamped to the pages this
			// access actually touches) and re-resolve.
			n, err := as.PopulateRange(pageVA, run)
			faults += n
			if err != nil {
				return faults, as.copyPrefix(*frames, va.Offset(), p[:done], op, err)
			}
			continue
		}
		f, flags, _, _ := as.pt.Walk(cur)
		// Enforce the mapping's permissions, as the MMU would: a write
		// through a read-only XEMEM attachment is a protection fault, and
		// an add both reads and writes. Flags are uniform within a leaf,
		// and a mapped run never extends past one leaf, so one check
		// covers the whole run.
		if op != mem.OpRead && flags&pagetable.Write == 0 {
			return faults, as.copyPrefix(*frames, va.Offset(), p[:done], op,
				fmt.Errorf("proc: write protection fault at %#x (%v)", uint64(cur), flags))
		}
		if op != mem.OpWrite && flags&pagetable.Read == 0 {
			return faults, as.copyPrefix(*frames, va.Offset(), p[:done], op,
				fmt.Errorf("proc: read protection fault at %#x (%v)", uint64(cur), flags))
		}
		// Frames inside a leaf are physically contiguous, so one extent
		// covers the part of the run this access touches.
		n := min(run*extent.PageSize-cur.Offset(), rest)
		frames.Append(f, (cur.Offset()+n+extent.PageSize-1)/extent.PageSize)
		done += n
	}
	return faults, as.copyFrames(*frames, va.Offset(), p, op)
}

// copyPrefix applies op to the prefix an access resolved before it
// stopped on cause, then reports cause (or the copy's own error).
func (as *AddressSpace) copyPrefix(frames extent.List, off uint64, p []byte, op mem.Op, cause error) error {
	if err := as.copyFrames(frames, off, p, op); err != nil {
		return err
	}
	return cause
}

// copyFrames applies op between p and the domain frames, starting off
// bytes into the first frame.
func (as *AddressSpace) copyFrames(frames extent.List, off uint64, p []byte, op mem.Op) error {
	if len(p) == 0 {
		return nil
	}
	hostList, err := as.dom.TranslateList(frames)
	if err != nil {
		return err
	}
	return as.dom.Host().Access(hostList, off, p, op)
}

// Process is a schedulable program instance inside one enclave OS.
type Process struct {
	PID  int
	Name string
	AS   *AddressSpace
}
