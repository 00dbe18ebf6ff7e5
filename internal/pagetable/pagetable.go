// Package pagetable implements x86-64-style 4-level page tables over
// simulated physical frames.
//
// Tables are real radix structures (PML4 → PDPT → PD → PT) with 512
// entries per level and large-page leaves at the 1 GB and 2 MB levels when
// virtual and physical alignment allow, exactly as a kernel would build
// them. Every enclave OS in the reproduction — Kitten, Linux, and Linux
// guests inside Palacios — owns one Table per process address space; the
// XEMEM serve path walks them to generate page-frame lists (§4.3), and the
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

// Entry encoding: bit0 present, bit1 leaf, bits2-5 flags, frame<<12.
const (
	entPresent = 1 << 0
	entLeaf    = 1 << 1
	flagShift  = 2
	flagMask   = 0xf << flagShift
	pfnShift   = 12
)

// pagesAtLevel[i] is the number of 4 KB pages covered by one entry at
// level i (0 = PT, 1 = PD, 2 = PDPT, 3 = PML4).
var pagesAtLevel = [4]uint64{1, 512, 512 * 512, 512 * 512 * 512}

type table struct {
	ents [512]uint64
	next []*table // allocated lazily; index-aligned with ents
	used int      // number of present entries
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
	tables int          // number of table nodes allocated (diagnostics)
	shared map[int]bool // top-level slots borrowed via ShareSlot
}

// New returns an empty table.
func New() *Table {
	return &Table{root: &table{}, tables: 1}
}

// Mapped reports the number of 4 KB pages currently mapped.
func (t *Table) Mapped() uint64 { return t.mapped }

// Tables reports the number of radix nodes allocated.
func (t *Table) Tables() int { return t.tables }

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
// batch: a PT node always lies inside one top-level slot.
func (t *Table) mapPT(va VA, f extent.PFN, count uint64, flags Flags) (uint64, error) {
	if err := t.guardShared(va, "map"); err != nil {
		return 0, err
	}
	node := t.root
	for level := 3; level > 0; level-- {
		i := index(va, level)
		e := node.ents[i]
		if e&entPresent == 0 {
			child := &table{}
			t.tables++
			node.setChild(i, child)
			node.ents[i] = entPresent
			node.used++
			node = child
			continue
		}
		if e&entLeaf != 0 {
			return 0, fmt.Errorf("pagetable: %#x already mapped by a level-%d leaf", uint64(va), level)
		}
		node = node.child(i)
	}
	i := index(va, 0)
	n := min(uint64(512-i), count)
	var err error
	for j := uint64(0); j < n; j++ {
		if node.ents[i+int(j)]&entPresent != 0 {
			err = fmt.Errorf("pagetable: %#x already mapped", uint64(va)+j*extent.PageSize)
			n = j
			break
		}
		node.ents[i+int(j)] = entPresent | entLeaf | uint64(flags)<<flagShift | uint64(f+extent.PFN(j))<<pfnShift
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
// of a hole: the populate, sparse-teardown, access and snapshot paths.
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
		if e&entPresent == 0 || e&entLeaf != 0 {
			run := span - va.Page()%span
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
			child := &table{}
			t.tables++
			node.setChild(i, child)
			node.ents[i] = entPresent
			node.used++
			node = child
			continue
		}
		if e&entLeaf != 0 {
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
	node := t.root
	for level := 3; level >= 0; level-- {
		i := index(va, level)
		e := node.ents[i]
		if e&entPresent == 0 {
			return 0, 0, 0, false
		}
		if e&entLeaf != 0 {
			base := extent.PFN(e >> pfnShift)
			span := pagesAtLevel[level]
			within := va.Page() % span
			return base + extent.PFN(within), Flags(e >> flagShift & 0xf), span * extent.PageSize, true
		}
		node = node.child(i)
	}
	panic("pagetable: PT entry without leaf bit") // unreachable: level-0 entries are always leaves
}

// Translate resolves va to (frame, in-page offset). It is the hot path
// used by process-level memory access.
func (t *Table) Translate(va VA) (extent.PFN, uint64, error) {
	f, _, _, ok := t.Walk(va)
	if !ok {
		return 0, 0, fmt.Errorf("pagetable: fault at %#x", uint64(va))
	}
	return f, va.Offset(), nil
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
		f, _, leafBytes, ok := t.Walk(va)
		if !ok {
			return extent.List{}, fmt.Errorf("pagetable: hole at %#x during walk", uint64(va))
		}
		// Take the rest of this leaf (or the rest of the request).
		leafPages := leafBytes / extent.PageSize
		within := va.Page() % leafPages
		take := leafPages - within
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
// absent entry that stopped it. It returns how many 4 KB pages were
// removed.
func (t *Table) unmapOne(va VA, npages uint64) (uint64, error) {
	if err := t.guardShared(va, "unmap"); err != nil {
		return 0, err
	}
	node := t.root
	// root → current, for interior-table GC. A fixed-size array: the walk
	// visits at most one node per level, and level-0 entries are always
	// leaves, so the chain never exceeds the root plus three children.
	// (Keeping this off the heap matters: unmapOne runs once per leaf or
	// PT-node run of every teardown.)
	var visited [4]*table
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
			within := va.Page() % span
			if within != 0 || span > npages {
				// Partial coverage: split this leaf into 512 children one
				// level down and descend.
				t.split(node, i, level)
				node = node.child(i)
				visited[nv] = node
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
			clear(node.ents[i : i+int(n)])
			if node.next != nil {
				clear(node.next[i : i+int(n)])
			}
			node.used -= int(n)
			t.mapped -= n * span
			t.garbageCollect(visited[:nv])
			return n * span, nil
		}
		node = node.child(i)
		visited[nv] = node
		nv++
	}
	return 0, fmt.Errorf("pagetable: walk fell through at %#x", uint64(va))
}

// split converts the large leaf at node.ents[i] (level >= 1) into a child
// table of 512 leaves one level down.
func (t *Table) split(node *table, i, level int) {
	e := node.ents[i]
	base := extent.PFN(e >> pfnShift)
	fl := uint64(e & flagMask)
	child := &table{}
	t.tables++
	childSpan := pagesAtLevel[level-1]
	for j := 0; j < 512; j++ {
		child.ents[j] = entPresent | entLeaf | fl | uint64(base+extent.PFN(uint64(j)*childSpan))<<pfnShift
	}
	child.used = 512
	node.setChild(i, child)
	node.ents[i] = entPresent // interior entry now
}

// garbageCollect frees interior tables emptied by an unmap, walking the
// visited chain (root first) bottom-up. The root is never freed.
func (t *Table) garbageCollect(visited []*table) {
	for i := len(visited) - 1; i > 0; i-- {
		n := visited[i]
		if n.used > 0 {
			return
		}
		parent := visited[i-1]
		for j := 0; j < 512; j++ {
			if parent.child(j) == n {
				parent.ents[j] = 0
				parent.next[j] = nil
				parent.used--
				t.tables--
				break
			}
		}
	}
}
