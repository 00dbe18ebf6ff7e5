package pagetable

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"xemem/internal/extent"
)

// The per-page references below are the map and unmap paths as they were
// before the batched PT-node descent: one root-to-leaf set per 4 KB page,
// one walk per leaf, and an unlink that finds an emptied node by scanning
// its parent's 512 slots. They are kept as oracles for the batched paths
// (with their O(1) unlink and whole-PT-node drop), which must leave
// exactly the same leaves, Mapped() and Tables(), and fail with exactly
// the same errors. The oracle never recycles a node: every one it
// allocates is fresh. Nor does it write run entries: every PT node it
// builds is a node, so a reference table must be built by these paths
// alone.

// mapListPerPage is MapList with a per-page install for 4 KB stretches
// and a per-leaf rollback.
func (t *Table) mapListPerPage(va VA, l extent.List, flags Flags) error {
	done := uint64(0)
	cur := va
	for _, e := range l.Extents() {
		first, count := e.First, e.Count
		for count > 0 {
			step, err := t.mapLeafPerPage(cur, first, count, flags)
			if err != nil {
				_ = t.unmapPerLeaf(va, done)
				return err
			}
			cur += VA(step * extent.PageSize)
			first += extent.PFN(step)
			count -= step
			done += step
		}
	}
	return nil
}

// mapLeafPerPage installs the largest aligned leaf at va: 1 GB, 2 MB, or
// a single 4 KB page.
func (t *Table) mapLeafPerPage(va VA, f extent.PFN, count uint64, flags Flags) (uint64, error) {
	level := 0
	for l := 2; l >= 1; l-- {
		span := pagesAtLevel[l]
		if count >= span && uint64(va)>>12%span == 0 && uint64(f)%span == 0 {
			level = l
			break
		}
	}
	if err := t.set(va, level, f, flags); err != nil {
		return 0, err
	}
	return pagesAtLevel[level], nil
}

// mapRunPerPage is MapRun as count single-page installs.
func (t *Table) mapRunPerPage(va VA, f extent.PFN, count uint64, flags Flags) error {
	for i := uint64(0); i < count; i++ {
		if err := t.set(va+VA(i*extent.PageSize), 0, f+extent.PFN(i), flags); err != nil {
			return err
		}
	}
	return nil
}

// unmapPerLeaf is Unmap with one root-to-leaf walk per leaf removed.
func (t *Table) unmapPerLeaf(va VA, npages uint64) error {
	for npages > 0 {
		n, err := t.unmapLeaf(va, npages)
		if err != nil {
			return err
		}
		va += VA(n * extent.PageSize)
		npages -= n
	}
	return nil
}

func (t *Table) unmapLeaf(va VA, npages uint64) (uint64, error) {
	if err := t.guardShared(va, "unmap"); err != nil {
		return 0, err
	}
	node := t.root
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
			if va.Page()%span != 0 || span > npages {
				t.split(node, i, level)
				node = node.child(i)
				visited[nv] = node
				nv++
				continue
			}
			node.ents[i] = 0
			node.used--
			if node.next != nil {
				node.next[i] = nil
			}
			t.mapped -= span
			t.unlinkScan(visited[:nv])
			return span, nil
		}
		node = node.child(i)
		visited[nv] = node
		nv++
	}
	return 0, fmt.Errorf("pagetable: walk fell through at %#x", uint64(va))
}

// unlinkScan is the oracle's interior-table GC: it frees the tables an
// unmap emptied, bottom-up along the visited chain, finding each in its
// parent by a scan of all 512 slots. Like garbageCollect it never frees
// the root or a node lent to a SMARTMAP borrower; unlike it, it drops
// the node instead of recycling it.
func (t *Table) unlinkScan(visited []*table) {
	for i := len(visited) - 1; i > 0; i-- {
		n := visited[i]
		if n.used > 0 || n.lent > 0 {
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

// extentsPerPage is ExtentsFor as one Walk per 4 KB page, whatever leaf
// maps it.
func (t *Table) extentsPerPage(va VA, npages uint64) (extent.List, error) {
	if va.Offset() != 0 {
		return extent.List{}, fmt.Errorf("pagetable: unaligned walk at %#x", uint64(va))
	}
	var out extent.List
	for p := uint64(0); p < npages; p++ {
		f, _, _, ok := t.Walk(va + VA(p*extent.PageSize))
		if !ok {
			return extent.List{}, fmt.Errorf("pagetable: hole at %#x during walk", uint64(va)+p*extent.PageSize)
		}
		out.Append(f, 1)
	}
	return out, nil
}

const gbPages = 512 * 512

// isRun reports whether va's PD slot holds a run entry.
func isRun(t *Table, va VA) bool {
	node := t.root
	for level := 3; level > 1; level-- {
		if node = node.child(index(va, level)); node == nil {
			return false
		}
	}
	return node.ents[index(va, 1)]&entRun != 0
}

func pageVA(p uint64) VA { return VA(p * extent.PageSize) }

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// sameState fails the test unless the batched and reference tables agree
// on Mapped(), Tables(), the Walk of every page in [first, first+n) and
// the ExtentsFor of that range (against the reference's per-page walk),
// and every node on the batched table's free list is all-zero.
func sameState(t *testing.T, what string, batched, ref *Table, first, n uint64) {
	t.Helper()
	recyclable(t, what, batched)
	if batched.Mapped() != ref.Mapped() || batched.Tables() != ref.Tables() {
		t.Fatalf("%s: (mapped, tables) batched (%d, %d), reference (%d, %d)",
			what, batched.Mapped(), batched.Tables(), ref.Mapped(), ref.Tables())
	}
	bl, berr := batched.ExtentsFor(pageVA(first), n)
	rl, rerr := ref.extentsPerPage(pageVA(first), n)
	if errText(berr) != errText(rerr) || !slices.Equal(bl.Extents(), rl.Extents()) {
		t.Fatalf("%s: ExtentsFor batched (%v, %q), reference per-page walk (%v, %q)",
			what, bl, errText(berr), rl, errText(rerr))
	}
	for p := first; p < first+n; p++ {
		bf, bfl, bl, bok := batched.Walk(pageVA(p))
		rf, rfl, rl, rok := ref.Walk(pageVA(p))
		if bf != rf || bfl != rfl || bl != rl || bok != rok {
			t.Fatalf("%s: walk(%#x): batched (%#x,%v,%d,%v), reference (%#x,%v,%d,%v)",
				what, uint64(pageVA(p)), uint64(bf), bfl, bl, bok, uint64(rf), rfl, rl, rok)
		}
	}
}

// TestBatchedPathsMatchPerPageOracle drives MapList, MapRun and Unmap and
// their per-page references through the same seeded mix of operations
// over a 1 GB-plus window: unaligned-PFN extents that cross PT-node and
// 1 GB boundaries, 2 MB- and 1 GB-aligned extents, partial unmaps that
// split large leaves, and unmaps and maps that run into holes and
// conflicts. Five compound cases aim at the node-lifetime paths: full PT
// nodes unmapped whole, a full range with one hole, a re-map after an
// unmap (recycled nodes), a split 2 MB leaf refilled and dropped whole,
// and run entries mapped, conflicted with, expanded, refilled and
// dropped. After every operation both tables must hold the same leaves
// and counts, and each operation must fail the same way.
func TestBatchedPathsMatchPerPageOracle(t *testing.T) {
	// Pages [lo, hi): the 1 GB slot at 1 GB plus a margin either side, so
	// runs cross both 1 GB boundaries.
	const lo, hi = gbPages - 3000, 2*gbPages + 3000
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		batched, ref := New(), New()
		// start picks an interesting first page: near a PT-node or 1 GB
		// boundary, 2 MB-aligned, or anywhere.
		start := func() uint64 {
			switch rng.Intn(4) {
			case 0:
				b := []uint64{gbPages, 2 * gbPages}[rng.Intn(2)]
				return b - uint64(rng.Intn(700)) + uint64(rng.Intn(200))
			case 1:
				return (lo+uint64(rng.Intn(hi-lo)))&^511 - uint64(rng.Intn(40))
			case 2:
				return (lo + uint64(rng.Intn(hi-lo))) &^ 511
			}
			return lo + uint64(rng.Intn(hi-lo-1500))
		}
		// unalignedPFN never admits a large leaf.
		unalignedPFN := func() extent.PFN { return extent.PFN(0x100000 + rng.Intn(1<<20)*512 + 1 + rng.Intn(511)) }
		check := func(i int, op string, first, n uint64, berr, rerr error) {
			t.Helper()
			what := fmt.Sprintf("seed %d op %d %s(%#x, %d)", seed, i, op, uint64(pageVA(first)), n)
			if errText(berr) != errText(rerr) {
				t.Fatalf("%s: error batched %q, reference %q", what, errText(berr), errText(rerr))
			}
			sameState(t, what, batched, ref, first, n)
		}

		// vacate unmaps every mapped page of [p, p+n) from both tables,
		// one MappedRun at a time, so a map that follows lands on a hole.
		vacate := func(i int, p, n uint64) {
			t.Helper()
			for q := p; q < p+n; {
				run, mapped := batched.MappedRun(pageVA(q), p+n-q)
				if mapped {
					check(i, "Unmap", q, run, batched.Unmap(pageVA(q), run), ref.unmapPerLeaf(pageVA(q), run))
				}
				q += run
			}
		}
		mapList := func(i int, p uint64, l extent.List) {
			t.Helper()
			check(i, "MapList", p, l.Pages(),
				batched.MapList(pageVA(p), l, Read), ref.mapListPerPage(pageVA(p), l, Read))
		}
		unmap := func(i int, p, n uint64) {
			t.Helper()
			check(i, "Unmap", p, n, batched.Unmap(pageVA(p), n), ref.unmapPerLeaf(pageVA(p), n))
		}

		// Start from a 1 GB leaf so the partial unmaps below split it.
		gb := extent.FromExtents(extent.Extent{First: 3 * gbPages, Count: gbPages})
		check(-1, "MapList", gbPages, gbPages,
			batched.MapList(pageVA(gbPages), gb, Read|Write), ref.mapListPerPage(pageVA(gbPages), gb, Read|Write))
		for i := 0; i < 300; i++ {
			first := start()
			// Whole PT nodes: a 512-aligned start and 1-3 nodes' worth.
			p, pn := first&^511, uint64(512*(1+rng.Intn(3)))
			switch rng.Intn(10) {
			case 0, 1: // MapList of 1-3 extents, unaligned or 2 MB-aligned
				var l extent.List
				for k := rng.Intn(3); k >= 0; k-- {
					if rng.Intn(3) == 0 {
						l.Append(extent.PFN(0x200000+rng.Intn(1<<10)*512), uint64(512*(1+rng.Intn(3))+rng.Intn(2)*rng.Intn(300)))
					} else {
						l.Append(unalignedPFN(), uint64(1+rng.Intn(1500)))
					}
				}
				flags := Flags(1 + rng.Intn(15))
				check(i, "MapList", first, l.Pages(),
					batched.MapList(pageVA(first), l, flags), ref.mapListPerPage(pageVA(first), l, flags))
			case 2: // MapRun
				f, n := unalignedPFN(), uint64(1+rng.Intn(1500))
				check(i, "MapRun", first, n,
					batched.MapRun(pageVA(first), f, n, Read), ref.mapRunPerPage(pageVA(first), f, n, Read))
			case 3, 4: // Unmap: sparse holes, partial large leaves, or both
				n := uint64(1 + rng.Intn(3000))
				if rng.Intn(10) == 0 {
					n = uint64(rng.Intn(gbPages))
				}
				unmap(i, first, n)
			case 5: // full PT nodes, unmapped whole
				vacate(i, p, pn)
				mapList(i, p, extent.FromExtents(extent.Extent{First: unalignedPFN(), Count: pn}))
				unmap(i, p, pn)
			case 6: // full PT nodes but one hole: the scan path and its error
				vacate(i, p, pn)
				mapList(i, p, extent.FromExtents(extent.Extent{First: unalignedPFN(), Count: pn}))
				unmap(i, p+uint64(rng.Intn(int(pn))), 1)
				unmap(i, p, pn)
			case 7: // re-map after unmap, onto recycled nodes
				n := uint64(1 + rng.Intn(1500))
				vacate(i, first, n)
				mapList(i, first, extent.FromExtents(extent.Extent{First: unalignedPFN(), Count: n}))
				unmap(i, first, n)
				mapList(i, first, extent.FromExtents(extent.Extent{First: unalignedPFN(), Count: n}))
			case 8: // a 2 MB leaf split by a one-page unmap, refilled, dropped whole
				vacate(i, p, 512)
				mapList(i, p, extent.FromExtents(extent.Extent{First: extent.PFN(0x200000 + rng.Intn(1<<10)*512), Count: 512}))
				hole, f := p+uint64(rng.Intn(512)), unalignedPFN()
				unmap(i, hole, 1)
				check(i, "MapRun", hole, 1, batched.MapRun(pageVA(hole), f, 1, Read), ref.mapRunPerPage(pageVA(hole), f, 1, Read))
				unmap(i, p, 512)
			case 9: // two run entries, one by MapRun and one by MapList; a one-page map into one, a one-page unmap from the other, a refill, a whole drop
				vacate(i, p, 1024)
				f := unalignedPFN()
				check(i, "MapRun", p, 512, batched.MapRun(pageVA(p), f, 512, Read), ref.mapRunPerPage(pageVA(p), f, 512, Read))
				mapList(i, p+512, extent.FromExtents(extent.Extent{First: unalignedPFN(), Count: 512}))
				for _, q := range []uint64{p, p + 512} {
					if !isRun(batched, pageVA(q)) {
						t.Fatalf("seed %d op %d: full PT node at %#x not stored as a run entry", seed, i, uint64(pageVA(q)))
					}
				}
				mapAt, unmapAt := p+uint64(rng.Intn(512)), p+512+uint64(rng.Intn(512))
				if rng.Intn(2) == 0 {
					mapAt, unmapAt = unmapAt, mapAt
				}
				// Map goes through mapPT, the per-page set through set:
				// both expand the run entry and fail on its first page.
				g := unalignedPFN()
				berr := batched.Map(pageVA(mapAt), g, Read)
				if rng.Intn(2) == 0 {
					berr = batched.mapRunPerPage(pageVA(mapAt), g, 1, Read)
				}
				check(i, "Map", mapAt, 1, berr, ref.mapRunPerPage(pageVA(mapAt), g, 1, Read))
				unmap(i, unmapAt, 1)
				check(i, "MapRun", unmapAt, 1, batched.MapRun(pageVA(unmapAt), g, 1, Read), ref.mapRunPerPage(pageVA(unmapAt), g, 1, Read))
				unmap(i, p, 1024)
			}
		}
		// Every page any operation above can reach.
		sameState(t, fmt.Sprintf("seed %d final", seed), batched, ref, lo-600, hi-lo+5600)
	}
}

// TestExtentsForOverRunEntries: ExtentsFor takes a run entry's 512
// frames in one step, and its list and errors equal a per-page Walk's
// over ranges that start, end and break inside run entries and cross
// into 2 MB leaves and 4 KB PT nodes.
func TestExtentsForOverRunEntries(t *testing.T) {
	const base = gbPages - 3*512 + 17 // mid-PT-node start
	l := extent.FromExtents(
		extent.Extent{First: 0x123457, Count: 3000},      // run entries between partial PT nodes
		extent.Extent{First: 0x300000, Count: 1024},      // 2 MB-aligned frames, but base+3000 is not
		extent.Extent{First: 0x777001, Count: 2*512 + 5}, // consecutive run entries, a 1 GB crossing
	)
	pt := New()
	if err := pt.MapList(pageVA(base), l, Read); err != nil {
		t.Fatal(err)
	}
	if !isRun(pt, pageVA(base+495)) {
		t.Fatalf("full PT node at %#x not stored as a run entry", uint64(pageVA(base+495)))
	}
	ref := New()
	if err := ref.mapListPerPage(pageVA(base), l, Read); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		first := base - 3 + uint64(rng.Intn(int(l.Pages())))
		n := uint64(rng.Intn(int(base+l.Pages()+3-first))) + 1
		sameState(t, fmt.Sprintf("range %d", i), pt, ref, first, n)
	}
	got, err := pt.ExtentsFor(pageVA(base), l.Pages())
	if err != nil || !slices.Equal(got.Extents(), l.Extents()) {
		t.Fatalf("whole range = (%v, %v), want %v", got, err, l)
	}
	if err := pt.Unmap(pageVA(base+1000), 1); err != nil {
		t.Fatal(err)
	}
	if err := ref.unmapPerLeaf(pageVA(base+1000), 1); err != nil {
		t.Fatal(err)
	}
	sameState(t, "hole in an expanded run entry", pt, ref, base, l.Pages())
}

// TestMapListConflictAfterLargeLeavesRollsBack: a MapList that lays a
// 1 GB and a 2 MB leaf and then runs into a mapped page in the middle of
// a PT node fails the way the per-page reference does and restores
// Mapped() and Tables() to their pre-call values.
func TestMapListConflictAfterLargeLeavesRollsBack(t *testing.T) {
	conflict := uint64(2*gbPages + 512 + 300) // 300 entries into a PT node
	l := extent.FromExtents(
		extent.Extent{First: 3 * gbPages, Count: gbPages}, // 1 GB leaf at 1 GB
		extent.Extent{First: 5 * gbPages, Count: 512},     // 2 MB leaf at 2 GB
		extent.Extent{First: 0x1234567, Count: 700},       // 4 KB leaves from 2 GB + 2 MB
	)
	batched, ref := New(), New()
	for _, pt := range []*Table{batched, ref} {
		if err := pt.Map(pageVA(conflict), 0x999, Read); err != nil {
			t.Fatal(err)
		}
	}
	mapped, tables := batched.Mapped(), batched.Tables()
	berr := batched.MapList(pageVA(gbPages), l, Read|Write)
	rerr := ref.mapListPerPage(pageVA(gbPages), l, Read|Write)
	if want := fmt.Sprintf("pagetable: %#x already mapped", uint64(pageVA(conflict))); errText(berr) != want || errText(rerr) != want {
		t.Fatalf("errors: batched %q, reference %q, want %q", errText(berr), errText(rerr), want)
	}
	if batched.Mapped() != mapped || batched.Tables() != tables {
		t.Fatalf("after rollback (mapped, tables) = (%d, %d), want (%d, %d)",
			batched.Mapped(), batched.Tables(), mapped, tables)
	}
	sameState(t, "rollback", batched, ref, gbPages, l.Pages())
	if f, _, _, ok := batched.Walk(pageVA(conflict)); !ok || f != 0x999 {
		t.Fatalf("conflicting page → %#x ok=%v, want 0x999", uint64(f), ok)
	}
}

// TestUnmapHoleMidPTNode: an Unmap that splits a 2 MB leaf and then runs
// into a hole in the middle of a PT node removes exactly the pages before
// the hole and reports the hole with the per-leaf path's error.
func TestUnmapHoleMidPTNode(t *testing.T) {
	const base = 7 * 512 // 2 MB-aligned page
	l := extent.FromExtents(
		extent.Extent{First: 0x4000 * 512, Count: 512}, // one 2 MB leaf
		extent.Extent{First: 0x123457, Count: 1000},    // 4 KB leaves over two PT nodes
	)
	hole := uint64(base + 512 + 700) // entry 188 of its PT node
	batched, ref := New(), New()
	if err := batched.MapList(pageVA(base), l, Read); err != nil {
		t.Fatal(err)
	}
	if err := batched.Unmap(pageVA(hole), 1); err != nil {
		t.Fatal(err)
	}
	// The reference is built by the per-page paths only, so it holds no
	// run entries the per-leaf unmap cannot account for.
	if err := ref.mapListPerPage(pageVA(base), l, Read); err != nil {
		t.Fatal(err)
	}
	if err := ref.unmapPerLeaf(pageVA(hole), 1); err != nil {
		t.Fatal(err)
	}
	berr := batched.Unmap(pageVA(base+100), 1400)
	rerr := ref.unmapPerLeaf(pageVA(base+100), 1400)
	want := fmt.Sprintf("pagetable: unmap of unmapped address %#x", uint64(pageVA(hole)))
	if errText(berr) != want || errText(rerr) != want {
		t.Fatalf("errors: batched %q, reference %q, want %q", errText(berr), errText(rerr), want)
	}
	// Pages [base+100, hole) are gone; the 100 before and the tail after
	// the hole stay.
	if got, want := batched.Mapped(), uint64(1512-1-(hole-(base+100))); got != want {
		t.Fatalf("mapped = %d, want %d", got, want)
	}
	sameState(t, "unmap into hole", batched, ref, base, l.Pages())
}

// FuzzMapUnmap decodes its input, four bytes per operation, into
// MapList, MapRun and Unmap calls over the sixteen PT nodes around the
// 1 GB boundary, and drives the production table and the per-page oracle
// side by side. After each operation both must report the same error
// text, Mapped() and Tables(), and the same Walk on every page the
// operation touched; the production free list must stay all-zero.
//
// Operation bytes: op%3 picks the call and op>>2 its flags; a puts the
// start on a 64-page grid; b and c give the length (1-4096 pages, or a
// whole number of PT nodes when c&0x10 is set); c&0x20 picks 2 MB-aligned
// frames, which admit 2 MB leaves, over unaligned ones.
func FuzzMapUnmap(f *testing.F) {
	f.Add([]byte{0, 32, 31, 0x10, 2, 32, 31, 0x10})                                 // whole PT nodes mapped, then dropped whole
	f.Add([]byte{0, 32, 31, 0x30, 2, 36, 0, 0, 2, 32, 31, 0x10})                    // 2 MB leaf split, then unmapped into the hole
	f.Add([]byte{0, 32, 255, 0x1f, 2, 40, 100, 3, 1, 40, 100, 3, 2, 32, 255, 0x1f}) // unmap, refill, drop whole across 1 GB
	// Run entries by MapList and MapRun, a one-page map into the first,
	// a one-page unmap from the second and its refill, a whole drop.
	f.Add([]byte{0, 32, 31, 0x10, 1, 40, 31, 0x10, 4, 36, 0, 0, 2, 44, 0, 0, 1, 44, 0, 0, 2, 32, 64, 0x10})
	// An unaligned MapList over partial and whole PT nodes, a hole in a
	// whole one, then an unmap that runs into it and a drop of the rest.
	f.Add([]byte{0, 30, 200, 0, 2, 50, 0, 0, 2, 30, 200, 0, 2, 51, 150, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		const lo = gbPages - 8*512
		batched, ref := New(), New()
		for i := 0; len(data) >= 4; i++ {
			op, a, b, c := data[0], data[1], data[2], data[3]
			data = data[4:]
			first := lo + uint64(a)%128*64
			n := 1 + (uint64(b)<<4 | uint64(c&15))
			if c&0x10 != 0 {
				n = max(512, n&^511)
			}
			pfn := extent.PFN(0x100001 + uint64(op)*1031)
			if c&0x20 != 0 {
				pfn = extent.PFN(0x200000 + uint64(c>>6)*512)
			}
			flags := Flags(1 + op>>2%15)
			var berr, rerr error
			var name string
			switch op % 3 {
			case 0:
				name = "MapList"
				l := extent.FromExtents(extent.Extent{First: pfn, Count: n})
				berr, rerr = batched.MapList(pageVA(first), l, flags), ref.mapListPerPage(pageVA(first), l, flags)
			case 1:
				name = "MapRun"
				berr, rerr = batched.MapRun(pageVA(first), pfn, n, flags), ref.mapRunPerPage(pageVA(first), pfn, n, flags)
			default:
				name = "Unmap"
				berr, rerr = batched.Unmap(pageVA(first), n), ref.unmapPerLeaf(pageVA(first), n)
			}
			what := fmt.Sprintf("op %d %s(%#x, %d)", i, name, uint64(pageVA(first)), n)
			if errText(berr) != errText(rerr) {
				t.Fatalf("%s: error batched %q, reference %q", what, errText(berr), errText(rerr))
			}
			sameState(t, what, batched, ref, first, n)
		}
	})
}
