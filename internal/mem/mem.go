// Package mem simulates a node's physical memory: NUMA zones with
// contiguous-block and scattered allocation, sparse frame contents, and
// frame pinning.
//
// Frames hold real bytes, materialized lazily on first write, so the
// simulation can model a 32 GB node without allocating 32 GB of host
// memory while still giving zero-copy semantics: when an attaching process
// in one enclave maps the frames exported by a process in another enclave,
// both resolve to the same backing array and see each other's writes.
package mem

import (
	"fmt"
	"sort"

	"xemem/internal/extent"
	"xemem/internal/sim/snapshot"
)

// PageSize and PageShift mirror the extent package's base granularity.
const (
	PageSize  = extent.PageSize
	PageShift = extent.PageShift
)

// PFN is re-exported for convenience.
type PFN = extent.PFN

// PhysMem is one node's host physical memory.
type PhysMem struct {
	name   string
	zones  []*Zone
	frames map[PFN][]byte
	// slab is the bump allocator backing newly materialized frames: one
	// slabPages-page host allocation is carved into page-sized backing
	// arrays instead of a make per frame. Only NEW frames draw from it —
	// a freed-and-reallocated frame keeps its old array (and stale
	// contents), exactly as before.
	slab []byte //xemem:nosnap -- host-side allocator free pool; frame contents are snapshotted per-frame
	// pins counts pin references per extent. Pin/Unpin operate on whole
	// frame lists and must be symmetric (unpin what was pinned); keeping
	// intervals instead of per-page counts makes pinning a 1 GB region
	// O(extents) instead of O(pages).
	pins map[extent.Extent]int
}

// slabPages is how many frame backings one slab allocation yields: 64
// pages = 256 KB per host allocation, amortizing a 1 GB attach's
// materialization from 262144 allocations to 4096.
const slabPages = 64

// framesHint caps the frames map's pre-sized bucket count. Most worlds
// touch a tiny fraction of their simulated memory; the hint only needs to
// cover the common warm-up so early growth rehashes disappear.
const framesHint = 4096

// NewPhysMem creates physical memory with one zone per given size (in
// bytes, rounded down to whole pages), modelling NUMA sockets. Frame
// numbers start at 0x100 to catch null-frame bugs.
func NewPhysMem(name string, zoneBytes ...uint64) *PhysMem {
	var pages uint64
	for _, zb := range zoneBytes {
		pages += zb / PageSize
	}
	hint := uint64(framesHint)
	if pages < hint {
		hint = pages
	}
	m := &PhysMem{
		name:   name,
		frames: make(map[PFN][]byte, hint),
		pins:   make(map[extent.Extent]int),
	}
	// Zones start 2 MB-aligned (512 frames) so aligned allocations within
	// them can be large-page mapped.
	next := PFN(0x200)
	for i, zb := range zoneBytes {
		pages := zb / PageSize
		z := &Zone{
			id:    i,
			start: next,
			limit: next + PFN(pages),
			owner: m,
		}
		z.free = []extent.Extent{{First: z.start, Count: pages}}
		z.freePages = pages
		m.zones = append(m.zones, z)
		next = z.limit
	}
	return m
}

// Name reports the node name this memory belongs to.
func (m *PhysMem) Name() string { return m.name }

// NumZones reports the number of NUMA zones.
func (m *PhysMem) NumZones() int { return len(m.zones) }

// Zone returns NUMA zone i.
func (m *PhysMem) Zone(i int) *Zone { return m.zones[i] }

// valid reports whether f lies within any zone.
func (m *PhysMem) valid(f PFN) bool {
	for _, z := range m.zones {
		if f >= z.start && f < z.limit {
			return true
		}
	}
	return false
}

// Frame returns the backing bytes of frame f, materializing them on first
// use. It panics on frames outside every zone — that is a simulation bug,
// the moral equivalent of a machine check.
func (m *PhysMem) Frame(f PFN) []byte {
	if !m.valid(f) {
		panic(fmt.Sprintf("mem: access to invalid frame %#x on %s", uint64(f), m.name))
	}
	b, ok := m.frames[f]
	if !ok {
		if len(m.slab) < PageSize {
			m.slab = make([]byte, slabPages*PageSize)
		}
		// Full slice-cap so appends through one frame's slice can never
		// bleed into its slab neighbour.
		b = m.slab[:PageSize:PageSize]
		m.slab = m.slab[PageSize:]
		m.frames[f] = b
	}
	return b
}

// Materialized reports whether frame f has backing bytes yet (i.e. has
// ever been written). Reading an unmaterialized frame yields zeros without
// materializing it.
func (m *PhysMem) Materialized(f PFN) bool {
	_, ok := m.frames[f]
	return ok
}

// ReadAt copies bytes out of the frame list l starting at byte offset off.
func (m *PhysMem) ReadAt(l extent.List, off uint64, p []byte) error {
	return m.access(l, off, p, false)
}

// WriteAt copies p into the frame list l starting at byte offset off.
func (m *PhysMem) WriteAt(l extent.List, off uint64, p []byte) error {
	return m.access(l, off, p, true)
}

func (m *PhysMem) access(l extent.List, off uint64, p []byte, write bool) error {
	if off+uint64(len(p)) > l.Bytes() {
		return fmt.Errorf("mem: access [%d,+%d) beyond %d-byte region", off, len(p), l.Bytes())
	}
	// Iterate the extent runs directly rather than resolving every page
	// through l.Page (which scans the extents from the start each call and
	// made large copies O(pages × extents)). Frames are still touched one at
	// a time because each materializes its own 4 KB backing array.
	for _, e := range l.Extents() {
		if len(p) == 0 {
			break
		}
		eb := e.Count * PageSize
		if off >= eb {
			off -= eb
			continue
		}
		f := e.First + PFN(off/PageSize)
		inPage := off % PageSize
		end := e.First + PFN(e.Count)
		for len(p) > 0 && f < end {
			n := PageSize - inPage
			if n > uint64(len(p)) {
				n = uint64(len(p))
			}
			if write {
				copy(m.Frame(f)[inPage:inPage+n], p[:n])
			} else if m.Materialized(f) {
				copy(p[:n], m.Frame(f)[inPage:inPage+n])
			} else {
				for i := range p[:n] {
					p[i] = 0
				}
			}
			p = p[n:]
			inPage = 0
			f++
		}
		off = 0
	}
	return nil
}

// Pin increments the pin count of every extent in l, preventing the
// frames from being freed — the get_user_pages analogue (§4.3). Unpin
// must later be called with the same extent shapes.
func (m *PhysMem) Pin(l extent.List) {
	for _, e := range l.Extents() {
		m.pins[e]++
	}
}

// Unpin decrements pin counts previously taken by Pin. The extents must
// match a prior Pin exactly.
func (m *PhysMem) Unpin(l extent.List) error {
	for _, e := range l.Extents() {
		if m.pins[e] == 0 {
			return fmt.Errorf("mem: unpin of unpinned extent %v", e)
		}
		m.pins[e]--
		if m.pins[e] == 0 {
			delete(m.pins, e)
		}
	}
	return nil
}

// Pinned reports the pin count covering frame f (the sum over pinned
// intervals containing it).
func (m *PhysMem) Pinned(f PFN) int {
	n := 0
	for e, c := range m.pins {
		if e.Contains(f) {
			n += c
		}
	}
	return n
}

// pinnedOverlap reports whether any pinned interval overlaps e.
func (m *PhysMem) pinnedOverlap(e extent.Extent) bool {
	for p := range m.pins {
		if e.First < p.End() && p.First < e.End() {
			return true
		}
	}
	return false
}

// EncodeSnapshot appends the memory's full state to e: per-zone allocator
// state, every materialized frame's contents (collected and sorted by PFN
// — the frames map's iteration order is host-dependent), and the pin
// table sorted by extent. The slab bump allocator is host bookkeeping and
// is not captured.
func (m *PhysMem) EncodeSnapshot(e *snapshot.Enc) {
	e.Str(m.name)
	e.U64(uint64(len(m.zones)))
	for _, z := range m.zones {
		e.U64(uint64(z.start))
		e.U64(uint64(z.limit))
		e.U64(z.freePages)
		e.U64(uint64(z.rotor))
		e.U64(uint64(len(z.free)))
		for _, fe := range z.free {
			e.U64(uint64(fe.First))
			e.U64(fe.Count)
		}
	}
	pfns := make([]PFN, 0, len(m.frames))
	for f := range m.frames {
		pfns = append(pfns, f)
	}
	sort.Slice(pfns, func(i, j int) bool { return pfns[i] < pfns[j] })
	e.U64(uint64(len(pfns)))
	for _, f := range pfns {
		e.U64(uint64(f))
		e.Blob(m.frames[f])
	}
	pins := make([]extent.Extent, 0, len(m.pins))
	for p := range m.pins {
		pins = append(pins, p)
	}
	sort.Slice(pins, func(i, j int) bool {
		if pins[i].First != pins[j].First {
			return pins[i].First < pins[j].First
		}
		return pins[i].Count < pins[j].Count
	})
	e.U64(uint64(len(pins)))
	for _, p := range pins {
		e.U64(uint64(p.First))
		e.U64(p.Count)
		e.U64(uint64(m.pins[p]))
	}
}

// ZoneFromExtent creates an allocator over an arbitrary extent of this
// memory. Pisces uses it when it offlines a contiguous block from the
// Linux management enclave and hands it to a co-kernel: the block's pages
// remain valid frames of the host memory, but a fresh allocator owns them.
func (m *PhysMem) ZoneFromExtent(id int, e extent.Extent) *Zone {
	if !m.valid(e.First) || !m.valid(e.End()-1) {
		panic(fmt.Sprintf("mem: zone extent %v outside physical memory", e))
	}
	return &Zone{
		id:        id,
		start:     e.First,
		limit:     e.End(),
		owner:     m,
		free:      []extent.Extent{e},
		freePages: e.Count,
	}
}

// NewDetachedZone creates an allocator over a frame-number space that is
// not backed by this node's host memory — Palacios uses one for each VM's
// guest-physical address space, whose frames translate to host frames
// through the VMM memory map rather than identity.
func NewDetachedZone(id int, e extent.Extent) *Zone {
	return &Zone{
		id:        id,
		start:     e.First,
		limit:     e.End(),
		owner:     nil,
		free:      []extent.Extent{e},
		freePages: e.Count,
	}
}

// Zone is a NUMA memory zone with a first-fit extent allocator.
type Zone struct {
	id        int
	start     PFN
	limit     PFN
	owner     *PhysMem
	free      []extent.Extent // sorted by First, non-adjacent
	freePages uint64
	// rotor distributes scattered allocations across free extents to model
	// the fragmentation of a long-running fullweight OS allocator.
	rotor int
}

// ID reports the zone's NUMA index.
func (z *Zone) ID() int { return z.id }

// Pages reports the zone's total page count.
func (z *Zone) Pages() uint64 { return uint64(z.limit - z.start) }

// FreePages reports the number of currently free pages.
func (z *Zone) FreePages() uint64 { return z.freePages }

// AllocContig allocates n physically contiguous pages (first fit). This is
// how co-kernel enclaves receive their memory blocks: Pisces hands whole
// contiguous regions to Kitten instances.
func (z *Zone) AllocContig(n uint64) (extent.Extent, error) {
	return z.AllocContigAligned(n, 1)
}

// AllocContigAligned allocates n physically contiguous pages whose first
// frame is a multiple of align. Large allocations use 2 MB alignment
// (align=512) so page tables can map them with large leaves, as a real
// kernel's hugepage-backed buffers would be.
func (z *Zone) AllocContigAligned(n, align uint64) (extent.Extent, error) {
	if n == 0 {
		return extent.Extent{}, fmt.Errorf("mem: zero-page allocation")
	}
	if align == 0 {
		align = 1
	}
	for i, e := range z.free {
		first := (uint64(e.First) + align - 1) / align * align
		skip := first - uint64(e.First)
		if e.Count < skip+n {
			continue
		}
		out := extent.Extent{First: PFN(first), Count: n}
		// Carve [first, first+n) out of the free extent, possibly
		// leaving a head fragment.
		tailFirst := out.End()
		tailCount := e.End() - tailFirst
		if skip > 0 {
			z.free[i].Count = skip
			if tailCount > 0 {
				z.free = append(z.free, extent.Extent{})
				copy(z.free[i+2:], z.free[i+1:])
				z.free[i+1] = extent.Extent{First: tailFirst, Count: uint64(tailCount)}
			}
		} else if tailCount > 0 {
			z.free[i] = extent.Extent{First: tailFirst, Count: uint64(tailCount)}
		} else {
			z.free = append(z.free[:i], z.free[i+1:]...)
		}
		z.freePages -= n
		return out, nil
	}
	return extent.Extent{}, fmt.Errorf("mem: zone %d cannot satisfy %d contiguous pages aligned %d (%d free)", z.id, n, align, z.freePages)
}

// AllocScattered allocates n pages as chunks of at most chunk pages drawn
// round-robin from distinct free extents — the fragmented allocation
// pattern of a fullweight OS. The resulting list is genuinely
// non-contiguous whenever the zone has multiple free extents.
func (z *Zone) AllocScattered(n, chunk uint64) (extent.List, error) {
	if chunk == 0 {
		chunk = 1
	}
	if n > z.freePages {
		return extent.List{}, fmt.Errorf("mem: zone %d cannot satisfy %d pages (%d free)", z.id, n, z.freePages)
	}
	var out extent.List
	for n > 0 {
		if len(z.free) == 0 {
			panic("mem: freePages inconsistent with free list")
		}
		z.rotor %= len(z.free)
		e := &z.free[z.rotor]
		take := chunk
		if take > e.Count {
			take = e.Count
		}
		if take > n {
			take = n
		}
		// Take from the tail of the extent so consecutive chunks from the
		// same extent are in descending order and never coalesce in the
		// output list.
		first := e.First + PFN(e.Count-take)
		e.Count -= take
		if e.Count == 0 {
			z.free = append(z.free[:z.rotor], z.free[z.rotor+1:]...)
		} else {
			z.rotor++
		}
		z.freePages -= take
		out.Append(first, take)
		n -= take
	}
	return out, nil
}

// Free returns the frames of l to the zone. Freeing a pinned or
// already-free frame is an error.
func (z *Zone) Free(l extent.List) error {
	for _, e := range l.Extents() {
		if e.First < z.start || e.End() > z.limit {
			return fmt.Errorf("mem: free of %v outside zone %d", e, z.id)
		}
		if z.owner != nil && z.owner.pinnedOverlap(e) {
			return fmt.Errorf("mem: free of pinned extent %v", e)
		}
		if err := z.insertFree(e); err != nil {
			return err
		}
		z.freePages += e.Count
	}
	return nil
}

// insertFree merges e back into the sorted free list.
func (z *Zone) insertFree(e extent.Extent) error {
	i := sort.Search(len(z.free), func(i int) bool { return z.free[i].First >= e.First })
	// Overlap checks against neighbours (double free detection).
	if i > 0 && z.free[i-1].End() > e.First {
		return fmt.Errorf("mem: double free of %v", e)
	}
	if i < len(z.free) && e.End() > z.free[i].First {
		return fmt.Errorf("mem: double free of %v", e)
	}
	z.free = append(z.free, extent.Extent{})
	copy(z.free[i+1:], z.free[i:])
	z.free[i] = e
	// Merge with successor, then predecessor.
	if i+1 < len(z.free) && z.free[i].End() == z.free[i+1].First {
		z.free[i].Count += z.free[i+1].Count
		z.free = append(z.free[:i+1], z.free[i+2:]...)
	}
	if i > 0 && z.free[i-1].End() == z.free[i].First {
		z.free[i-1].Count += z.free[i].Count
		z.free = append(z.free[:i], z.free[i+1:]...)
	}
	return nil
}

// FreeExtents reports a copy of the free list (diagnostics and tests).
func (z *Zone) FreeExtents() []extent.Extent {
	out := make([]extent.Extent, len(z.free))
	copy(out, z.free)
	return out
}
