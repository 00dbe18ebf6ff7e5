// Package pagetable implements x86-64-style 4-level page tables over
// simulated physical frames.
//
// Tables are real radix structures (PML4 → PDPT → PD → PT) with 512
// entries per level and large-page leaves at the 1 GB and 2 MB levels when
// virtual and physical alignment allow, exactly as a kernel would build
// them. The one storage difference is the run entry (see entRun): a full
// PT node of 4 KB leaves over consecutive frames is kept as one PD entry,
// which every query answers for as the node it stands for.
//
// Every enclave OS in the reproduction — Kitten, Linux, and Linux guests
// inside Palacios — owns one Table per process address space; the XEMEM
// serve path walks them to generate page-frame lists (§4.3), and the
// attach path populates them with remote frame lists.
//
// The package is purely functional: simulated-time costs for walks and
// mapping operations are charged by the OS layers, which know their own
// per-page prices.
package pagetable

import (
	"fmt"

	"xemem/internal/extent"
)

// VA is a virtual address. Only the canonical low 48 bits are used.
type VA uint64

// Page reports the 4 KB-page index of the address.
func (v VA) Page() uint64 { return uint64(v) >> extent.PageShift }

// Offset reports the offset within the address's 4 KB page.
func (v VA) Offset() uint64 { return uint64(v) & (extent.PageSize - 1) }

// Flags are per-mapping permissions.
type Flags uint8

// Permission bits.
const (
	Read Flags = 1 << iota
	Write
	Exec
	User
)

func (f Flags) String() string {
	b := []byte("----")
	if f&Read != 0 {
		b[0] = 'r'
	}
	if f&Write != 0 {
		b[1] = 'w'
	}
	if f&Exec != 0 {
		b[2] = 'x'
	}
	if f&User != 0 {
		b[3] = 'u'
	}
	return string(b)
}

// Entry encoding: bit0 present, bit1 leaf, bits2-5 flags, bit6 run,
// frame<<12.
//
// A run entry is a level-1 leaf that stands for a full PT node of 4 KB
// leaves over consecutive frames with one flag set: entry j of that node
// would map frame+j. The frame need not be 2 MB-aligned. It is a storage
// form only: Walk, MappedRun, ExtentsFor, Mapped() and Tables() answer
// exactly as for the PT node it stands for, and a descent that must go
// below it expands it into that node first (see split).
const (
	entPresent = 1 << 0
	entLeaf    = 1 << 1
	flagShift  = 2
	flagMask   = 0xf << flagShift
	entRun     = 1 << 6
	pfnShift   = 12
)

// pagesAtLevel[i] is the number of 4 KB pages covered by one entry at
// level i (0 = PT, 1 = PD, 2 = PDPT, 3 = PML4). Every span is a power of
// two, so the hot paths take offsets within one with a mask.
var pagesAtLevel = [4]uint64{1, 512, 512 * 512, 512 * 512 * 512}

// table is one radix node. next[i] is non-nil exactly when ents[i] is an
// interior entry, so a node whose used count is 0 has every entry zero
// and every next slot nil: it can be recycled as it is. A PD node's
// run entries (see entRun) are leaves and have no child.
type table struct {
	ents [512]uint64
	next []*table // allocated lazily; index-aligned with ents
	used int      // number of present entries
	lent int      // SMARTMAP borrowers whose top-level slot points here
}

func (t *table) child(i int) *table {
	if t.next == nil {
		return nil
	}
	return t.next[i]
}

func (t *table) setChild(i int, c *table) {
	if t.next == nil {
		t.next = make([]*table, 512)
	}
	t.next[i] = c
}

// Table is one address space's page-table tree.
type Table struct {
	root   *table
	mapped uint64       // total 4 KB pages mapped (excluding shared slots)
	tables int          // radix nodes allocated, plus one per run entry
	shared map[int]bool // top-level slots borrowed via ShareSlot
	free   []*table     // emptied nodes, all-zero, reused before allocating
}

// New returns an empty table.
func New() *Table {
	return &Table{root: &table{}, tables: 1}
}

// Mapped reports the number of 4 KB pages currently mapped. Mapped and
// Tables are test oracles for other packages: proc's tests compare the
// counts between its batched and per-page populate paths and check that
// a removed region leaves no PTE behind.
func (t *Table) Mapped() uint64 { return t.mapped }

// Tables reports the number of radix nodes allocated, counting each run
// entry as the PT node it stands for.
func (t *Table) Tables() int { return t.tables }

// newTable returns an empty node, recycled from the free list when it
// holds one. Freed nodes are already all-zero (see table), so a recycled
// node needs no clearing, and one address space's page-table memory is
// reused across map/unmap cycles instead of going back to the GC.
func (t *Table) newTable() *table {
	t.tables++
	n := len(t.free)
	if n == 0 {
		return &table{}
	}
	c := t.free[n-1]
	t.free = t.free[:n-1]
	return c
}

func index(va VA, level int) int {
	return int(uint64(va) >> (12 + 9*level) & 511)
}

// MapList maps the frames of l starting at virtual address va (which must
// be page-aligned), using 1 GB and 2 MB leaves when both the virtual
// address and the frame run are size-aligned. It fails without side
// effects on misalignment, and fails (with partial mappings rolled back)
// if any page in the range is already mapped.
func (t *Table) MapList(va VA, l extent.List, flags Flags) error {
	if va.Offset() != 0 {
		return fmt.Errorf("pagetable: unaligned map at %#x", uint64(va))
	}
	done := uint64(0)
	cur := va
	for _, e := range l.Extents() {
		first, count := e.First, e.Count
		for count > 0 {
			step, err := t.mapRun(cur, first, count, flags)
			done += step
			if err != nil {
				// Roll back what this call mapped so failed maps do not
				// leave a half-populated range.
				_ = t.Unmap(va, done)
				return err
			}
			cur += VA(step * extent.PageSize)
			first += extent.PFN(step)
			count -= step
		}
	}
	return nil
}

// mapRun maps the largest aligned leaf possible at va, or failing that
// the 4 KB leaves up to the end of va's PT node, and returns how many
// 4 KB pages it installed (on error, the ones installed before the
// conflict). Inside a PT node no 2 MB or 1 GB leaf can be aligned, so
// the batch installs exactly the leaves a per-page attempt would.
func (t *Table) mapRun(va VA, f extent.PFN, count uint64, flags Flags) (uint64, error) {
	for level := 2; level >= 1; level-- {
		span := pagesAtLevel[level]
		if count >= span && uint64(va)>>12%span == 0 && uint64(f)%span == 0 {
			if err := t.set(va, level, f, flags); err != nil {
				return 0, err
			}
			return span, nil
		}
	}
	return t.mapPT(va, f, count, flags)
}

// Map maps a single 4 KB page.
func (t *Table) Map(va VA, f extent.PFN, flags Flags) error {
	return t.MapRun(va, f, 1, flags)
}

// MapRun maps count 4 KB pages starting at va to the physically
// contiguous frames starting at f, always with 4 KB leaves. It is
// equivalent to count successive Map calls — the demand-fault install
// path uses it to batch-populate runs — but descends the radix tree once
// per PT node (512 entries) instead of once per page. Like a sequence of
// Map calls, it fails on the first already-mapped page, leaving earlier
// pages of the run mapped.
func (t *Table) MapRun(va VA, f extent.PFN, count uint64, flags Flags) error {
	if va.Offset() != 0 {
		return fmt.Errorf("pagetable: unaligned map at %#x", uint64(va))
	}
	for count > 0 {
		n, err := t.mapPT(va, f, count, flags)
		if err != nil {
			return err
		}
		va += VA(n * extent.PageSize)
		f += extent.PFN(n)
		count -= n
	}
	return nil
}

// mapPT installs 4 KB leaves for the contiguous frames starting at f,
// from va up to count pages or the end of va's PT node, in one descent.
// It reports how many leaves it installed; on a conflict that is the
// number installed before it. One shared-slot check covers the whole
// batch: a PT node always lies inside one top-level slot. A batch that
// would fill a whole absent PT node is stored as one run entry instead.
func (t *Table) mapPT(va VA, f extent.PFN, count uint64, flags Flags) (uint64, error) {
	if err := t.guardShared(va, "map"); err != nil {
		return 0, err
	}
	node := t.root
	for level := 3; level > 0; level-- {
		i := index(va, level)
		e := node.ents[i]
		if e&entPresent == 0 {
			if level == 1 && count >= 512 && va.Page()%512 == 0 {
				node.ents[i] = entPresent | entLeaf | entRun | uint64(flags)<<flagShift | uint64(f)<<pfnShift
				node.used++
				t.tables++
				t.mapped += 512
				return 512, nil
			}
			child := t.newTable()
			node.setChild(i, child)
			node.ents[i] = entPresent
			node.used++
			node = child
			continue
		}
		if e&entRun != 0 {
			t.split(node, i, level) // conflicts fail below, page by page
		} else if e&entLeaf != 0 {
			return 0, fmt.Errorf("pagetable: %#x already mapped by a level-%d leaf", uint64(va), level)
		}
		node = node.child(i)
	}
	i := index(va, 0)
	n := min(uint64(512-i), count)
	ents := node.ents[i : i+int(n)]
	leaf := entPresent | entLeaf | uint64(flags)<<flagShift | uint64(f)<<pfnShift
	var err error
	for j := range ents {
		if ents[j]&entPresent != 0 {
			err = fmt.Errorf("pagetable: %#x already mapped", uint64(va)+uint64(j)*extent.PageSize)
			n = uint64(j)
			break
		}
		ents[j] = leaf
		leaf += 1 << pfnShift
	}
	node.used += int(n)
	t.mapped += n
	return n, err
}

// MappedRun reports how many consecutive 4 KB pages starting at va, up
// to limit, share va's mapped/unmapped state, and what that state is. A
// mapped run never extends past the leaf that maps va — frames are only
// known contiguous within one leaf — so over 4 KB leaves it is a single
// page. An unmapped run extends to the end of the absent entry's span,
// and across consecutive absent entries of a PT node. Callers iterate it
// to partition a range into leaves and holes without probing every page
// of a hole: the populate, sparse-teardown, access and audit paths.
func (t *Table) MappedRun(va VA, limit uint64) (n uint64, mapped bool) {
	node := t.root
	for level := 3; level >= 0; level-- {
		i := index(va, level)
		e := node.ents[i]
		span := pagesAtLevel[level]
		if level == 0 && e&entPresent == 0 {
			// A hole inside an existing PT node: extend across consecutive
			// absent entries so sparse populates batch whole gaps. (Mapped
			// runs must not be extended this way — frames are only known
			// contiguous within a single leaf.)
			run := uint64(1)
			max := uint64(512 - i)
			if max > limit {
				max = limit
			}
			for run < max && node.ents[i+int(run)]&entPresent == 0 {
				run++
			}
			return run, false
		}
		if e&entRun != 0 {
			span = 1 // a run entry's leaves are 4 KB
		}
		if e&entPresent == 0 || e&entLeaf != 0 {
			run := span - va.Page()&(span-1)
			if run > limit {
				run = limit
			}
			return run, e&entPresent != 0
		}
		node = node.child(i)
	}
	panic("pagetable: PT entry without leaf bit") // unreachable: level-0 entries are always leaves
}

// set installs a leaf at the given level for va.
func (t *Table) set(va VA, leafLevel int, f extent.PFN, flags Flags) error {
	if err := t.guardShared(va, "map"); err != nil {
		return err
	}
	node := t.root
	for level := 3; level > leafLevel; level-- {
		i := index(va, level)
		e := node.ents[i]
		if e&entPresent == 0 {
			child := t.newTable()
			node.setChild(i, child)
			node.ents[i] = entPresent
			node.used++
			node = child
			continue
		}
		if e&entRun != 0 {
			t.split(node, i, level) // conflicts fail below, page by page
		} else if e&entLeaf != 0 {
			return fmt.Errorf("pagetable: %#x already mapped by a level-%d leaf", uint64(va), level)
		}
		node = node.child(i)
	}
	i := index(va, leafLevel)
	if node.ents[i]&entPresent != 0 {
		return fmt.Errorf("pagetable: %#x already mapped", uint64(va))
	}
	node.ents[i] = entPresent | entLeaf | uint64(flags)<<flagShift | uint64(f)<<pfnShift
	node.used++
	t.mapped += pagesAtLevel[leafLevel]
	return nil
}

// Walk resolves va to its backing 4 KB frame. It reports the frame, the
// mapping's flags, the size in bytes of the leaf that mapped it, and
// whether the address is mapped at all.
func (t *Table) Walk(va VA) (f extent.PFN, flags Flags, leafBytes uint64, ok bool) {
	f, flags, span, run, ok := t.leaf(va)
	if run {
		span = 1 // a run entry's leaves are 4 KB
	}
	return f, flags, span * extent.PageSize, ok
}

// leaf resolves va to its backing frame through the entry that maps it,
// reporting the mapping's flags, the entry's span in 4 KB pages, and
// whether the entry is a run entry. Unlike Walk it reports a run entry
// as its whole span of 512 consecutive frames.
func (t *Table) leaf(va VA) (f extent.PFN, flags Flags, span uint64, run, ok bool) {
	node := t.root
	for level := 3; level >= 0; level-- {
		i := index(va, level)
		e := node.ents[i]
		if e&entPresent == 0 {
			return 0, 0, 0, false, false
		}
		if e&entLeaf != 0 {
			span = pagesAtLevel[level]
			within := va.Page() & (span - 1)
			return extent.PFN(e>>pfnShift) + extent.PFN(within), Flags(e >> flagShift & 0xf), span, e&entRun != 0, true
		}
		node = node.child(i)
	}
	panic("pagetable: PT entry without leaf bit") // unreachable: level-0 entries are always leaves
}

// ExtentsFor walks npages pages starting at va and returns the backing
// frames as an extent list — the serve side of the XEMEM protocol. Any
// hole in the range is an error.
func (t *Table) ExtentsFor(va VA, npages uint64) (extent.List, error) {
	if va.Offset() != 0 {
		return extent.List{}, fmt.Errorf("pagetable: unaligned walk at %#x", uint64(va))
	}
	var out extent.List
	for npages > 0 {
		f, _, span, _, ok := t.leaf(va)
		if !ok {
			return extent.List{}, fmt.Errorf("pagetable: hole at %#x during walk", uint64(va))
		}
		// Take the rest of this entry (or the rest of the request): a run
		// entry's 512 leaves map consecutive frames, so they come in one
		// step.
		take := span - va.Page()&(span-1)
		if take > npages {
			take = npages
		}
		out.Append(f, take)
		va += VA(take * extent.PageSize)
		npages -= take
	}
	return out, nil
}

// Unmap removes npages pages starting at va. Large-page leaves that are
// only partially covered are split first, as a kernel would. Unmapping an
// unmapped page is an error.
func (t *Table) Unmap(va VA, npages uint64) error {
	if va.Offset() != 0 {
		return fmt.Errorf("pagetable: unaligned unmap at %#x", uint64(va))
	}
	for npages > 0 {
		n, err := t.unmapOne(va, npages)
		if err != nil {
			return err
		}
		va += VA(n * extent.PageSize)
		npages -= n
	}
	return nil
}

// unmapOne removes the leaf covering va if it fits entirely within the
// remaining range; otherwise it splits the leaf and retries. A 4 KB leaf
// takes the present leaves after it in the same PT node with it, up to
// npages, so one walk clears a whole run: the next call reports the
// absent entry that stopped it. A full PT node that the range covers
// whole is dropped without reading its entries: none can be absent, so
// the scan would clear all 512; a run entry it covers whole is cleared
// like any large leaf. It returns how many 4 KB pages were removed.
func (t *Table) unmapOne(va VA, npages uint64) (uint64, error) {
	if err := t.guardShared(va, "unmap"); err != nil {
		return 0, err
	}
	node := t.root
	// root → current, for interior-table GC, with slots[k] the index of
	// visited[k] in visited[k-1]. Fixed-size arrays: the walk visits at
	// most one node per level, and level-0 entries are always leaves, so
	// the chain never exceeds the root plus three children. (Keeping this
	// off the heap matters: unmapOne runs once per leaf or PT-node run of
	// every teardown.)
	var visited [4]*table
	var slots [4]int
	visited[0] = node
	nv := 1
	for level := 3; level >= 0; level-- {
		i := index(va, level)
		e := node.ents[i]
		if e&entPresent == 0 {
			return 0, fmt.Errorf("pagetable: unmap of unmapped address %#x", uint64(va))
		}
		if e&entLeaf != 0 {
			span := pagesAtLevel[level]
			within := va.Page() & (span - 1)
			if within != 0 || span > npages {
				// Partial coverage: split this leaf into 512 children one
				// level down and descend.
				t.split(node, i, level)
				node = node.child(i)
				visited[nv], slots[nv] = node, i
				nv++
				continue
			}
			n := uint64(1)
			if level == 0 {
				limit := min(uint64(512-i), npages)
				for n < limit && node.ents[i+int(n)]&entPresent != 0 {
					n++
				}
			}
			if e&entRun != 0 {
				t.tables-- // the PT node it stood for
			}
			clear(node.ents[i : i+int(n)])
			node.used -= int(n)
			t.mapped -= n * span
			t.garbageCollect(visited[:nv], slots[:nv])
			return n * span, nil
		}
		node = node.child(i)
		visited[nv], slots[nv] = node, i
		nv++
		if level == 1 && node.used == 512 && npages >= 512 && va.Page()%512 == 0 {
			clear(node.ents[:])
			node.used = 0
			t.mapped -= 512
			t.garbageCollect(visited[:nv], slots[:nv])
			return 512, nil
		}
	}
	return 0, fmt.Errorf("pagetable: walk fell through at %#x", uint64(va))
}

// split converts the large leaf at node.ents[i] (level >= 1) into a child
// table of 512 leaves one level down. A run entry becomes the PT node it
// stands for, which Tables() already counts.
func (t *Table) split(node *table, i, level int) {
	e := node.ents[i]
	if e&entRun != 0 {
		t.tables--
	}
	base := extent.PFN(e >> pfnShift)
	fl := uint64(e & flagMask)
	child := t.newTable()
	childSpan := pagesAtLevel[level-1]
	for j := 0; j < 512; j++ {
		child.ents[j] = entPresent | entLeaf | fl | uint64(base+extent.PFN(uint64(j)*childSpan))<<pfnShift
	}
	child.used = 512
	node.setChild(i, child)
	node.ents[i] = entPresent // interior entry now
}

// garbageCollect unlinks the interior tables an unmap emptied, walking
// the visited chain (root first) bottom-up, and puts them on the free
// list. slots[k] is visited[k]'s index in its parent, so each unlink is
// O(1). The root is never freed, and neither is a node lent to a
// SMARTMAP borrower (see ShareSlot): the walk stops there.
func (t *Table) garbageCollect(visited []*table, slots []int) {
	for k := len(visited) - 1; k > 0; k-- {
		n := visited[k]
		if n.used > 0 || n.lent > 0 {
			return
		}
		parent, j := visited[k-1], slots[k]
		parent.ents[j] = 0
		parent.next[j] = nil
		parent.used--
		t.tables--
		t.free = append(t.free, n)
	}
}
