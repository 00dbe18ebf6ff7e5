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
	"encoding/binary"
	"fmt"
	"sort"

	"xemem/internal/extent"
)

// PageSize mirrors the extent package's base granularity.
const PageSize = extent.PageSize

// PFN is re-exported for convenience.
type PFN = extent.PFN

// PhysMem is one node's host physical memory.
type PhysMem struct {
	name   string
	zones  []*Zone
	frames map[PFN][]byte
	// slab is the bump allocator backing newly materialized frames: one
	// host allocation is carved into page-sized backing arrays instead of
	// a make per frame. Only NEW frames draw from it — a freed-and-
	// reallocated frame keeps its old array (and stale contents), exactly
	// as before.
	slab []byte
	// pins counts pin references per extent. Pin/Unpin operate on whole
	// frame lists and must be symmetric (unpin what was pinned); keeping
	// intervals instead of per-page counts makes pinning a 1 GB region
	// O(extents) instead of O(pages).
	pins map[extent.Extent]int
}

// slabPages caps how many frame backings one slab allocation yields: 64
// pages = 256 KB per host allocation. Below the cap a slab is as large
// as all the frames materialized before it (the first is one page), so
// a node that writes a few control pages allocates kilobytes, the
// backing doubles with each slab, and a power-of-two frame count leaves
// no slab tail idle. A 1 GB materialization takes 4,102 allocations:
// seven slabs up to 64 frames, then full ones.
const slabPages = 64

// NewPhysMem creates physical memory with one zone per given size (in
// bytes, rounded down to whole pages), modelling NUMA sockets. Frame
// numbers start at 0x100 to catch null-frame bugs.
func NewPhysMem(name string, zoneBytes ...uint64) *PhysMem {
	m := &PhysMem{
		name:   name,
		frames: make(map[PFN][]byte),
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
			m.slab = make([]byte, min(max(1, len(m.frames)), slabPages)*PageSize)
		}
		// Full slice-cap so appends through one frame's slice can never
		// bleed into its slab neighbour.
		b = m.slab[:PageSize:PageSize]
		m.slab = m.slab[PageSize:]
		m.frames[f] = b
	}
	return b
}

// Op is what an access does with the bytes it addresses.
type Op uint8

const (
	// OpRead copies memory out into the caller's buffer.
	OpRead Op = iota
	// OpWrite copies the caller's buffer into memory.
	OpWrite
	// OpAdd adds the caller's buffer into memory in place, byte-wise mod
	// 256: a reduce's fold, with no read-back into a host buffer.
	OpAdd
)

// ReadAt copies bytes out of the frame list l starting at byte offset off.
func (m *PhysMem) ReadAt(l extent.List, off uint64, p []byte) error {
	return m.Access(l, off, p, OpRead)
}

// WriteAt copies p into the frame list l starting at byte offset off.
func (m *PhysMem) WriteAt(l extent.List, off uint64, p []byte) error {
	return m.Access(l, off, p, OpWrite)
}

// Access applies op to the bytes of the frame list l starting at byte
// offset off, p long: a read into p, or a write or add of p. Reading an
// unmaterialized frame yields zeros without materializing it, at one
// frames lookup per page; writes and adds materialize (a fresh frame is
// zero, so an add into it stores p).
func (m *PhysMem) Access(l extent.List, off uint64, p []byte, op Op) error {
	if off > l.Bytes() || uint64(len(p)) > l.Bytes()-off {
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
			switch op {
			case OpRead:
				if b, ok := m.frames[f]; ok {
					copy(p[:n], b[inPage:inPage+n])
				} else {
					clear(p[:n])
				}
			case OpWrite:
				copy(m.Frame(f)[inPage:inPage+n], p[:n])
			default:
				addBytes(m.Frame(f)[inPage:inPage+n], p[:n])
			}
			p = p[n:]
			inPage = 0
			f++
		}
		off = 0
	}
	return nil
}

// addBytes adds src into dst byte-wise, mod 256, over len(dst) bytes.
// It sums eight lanes per word: clearing each lane's top bit (h) before
// the 64-bit add leaves at most 0x7f+0x7f = 0xfe per lane, so no carry
// crosses into the next lane; xoring the top bits back in, (a^b)&h,
// completes each lane's top bit mod 2 and drops its carry out. Every
// lane therefore holds exactly (a+b) mod 256. The main loop takes four
// words per step through 32-byte array pointers, so one bounds check
// covers each step; the tail goes a word, then a byte, at a time.
func addBytes(dst, src []byte) {
	le := binary.LittleEndian // any order works: each lane sums on its own
	n := len(dst)
	src = src[:n]
	i := 0
	for ; i+32 <= n; i += 32 {
		d := (*[32]byte)(dst[i:])
		s := (*[32]byte)(src[i:])
		le.PutUint64(d[0:], add8(le.Uint64(d[0:]), le.Uint64(s[0:])))
		le.PutUint64(d[8:], add8(le.Uint64(d[8:]), le.Uint64(s[8:])))
		le.PutUint64(d[16:], add8(le.Uint64(d[16:]), le.Uint64(s[16:])))
		le.PutUint64(d[24:], add8(le.Uint64(d[24:]), le.Uint64(s[24:])))
	}
	for ; i+8 <= n; i += 8 {
		le.PutUint64(dst[i:], add8(le.Uint64(dst[i:]), le.Uint64(src[i:])))
	}
	for ; i < n; i++ {
		dst[i] += src[i]
	}
}

// add8 sums the eight byte lanes of a and b, each mod 256 (see addBytes).
func add8(a, b uint64) uint64 {
	const h = 0x8080808080808080
	return ((a &^ h) + (b &^ h)) ^ ((a ^ b) & h)
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
// intervals containing it). Only tests read it, across packages: core's,
// xpmem's and palacios's tests wait on it to see a detach release the
// exporter's pins.
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

// Audit checks the memory's allocator and pin invariants: every zone's
// free list is sorted, disjoint, non-adjacent and inside the zone, and
// sums to its free-page count; every pinned extent holds a positive
// count. It reports the first violation, zones in index order and pins
// in extent order, so the same state always names the same one.
func (m *PhysMem) Audit() error {
	for _, z := range m.zones {
		var sum uint64
		next := z.start
		for i, e := range z.free {
			switch {
			case e.Count == 0:
				return fmt.Errorf("zone %d: free extent %d is empty", z.id, i)
			case e.First < next || (i > 0 && e.First == next):
				return fmt.Errorf("zone %d: free extent %v overlaps or abuts its predecessor", z.id, e)
			case e.End() > z.limit:
				return fmt.Errorf("zone %d: free extent %v beyond the zone's end %#x", z.id, e, uint64(z.limit))
			}
			next = e.End()
			sum += e.Count
		}
		if sum != z.freePages {
			return fmt.Errorf("zone %d: free list holds %d pages but freePages is %d", z.id, sum, z.freePages)
		}
	}
	for _, p := range m.PinnedExtents() {
		if n := m.pins[p]; n <= 0 {
			return fmt.Errorf("pin count %d on extent %v", n, p)
		}
	}
	return nil
}

// PinnedExtents lists the pinned extents in frame order.
func (m *PhysMem) PinnedExtents() []extent.Extent {
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
	return pins
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

// FreePages reports the number of currently free pages. Only tests read
// it, across packages: pisces's and core's co-kernel tests count free
// pages to show a partition's block leaves its host zone and comes back
// whole.
func (z *Zone) FreePages() uint64 { return z.freePages }

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
