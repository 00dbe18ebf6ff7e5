package pagetable

import (
	"fmt"
	"math/rand"
	"testing"

	"xemem/internal/extent"
)

// The per-page references below are the map and unmap paths as they were
// before the batched PT-node descent: one root-to-leaf set per 4 KB page
// and one walk per leaf. They are kept as oracles for the batched paths,
// which must leave exactly the same leaves, Mapped() and Tables(), and
// fail with exactly the same errors.

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
			t.garbageCollect(visited[:nv])
			return span, nil
		}
		node = node.child(i)
		visited[nv] = node
		nv++
	}
	return 0, fmt.Errorf("pagetable: walk fell through at %#x", uint64(va))
}

const gbPages = 512 * 512

func pageVA(p uint64) VA { return VA(p * extent.PageSize) }

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// sameState fails the test unless the batched and reference tables agree
// on Mapped(), Tables(), and the Walk of every page in [first, first+n).
func sameState(t *testing.T, what string, batched, ref *Table, first, n uint64) {
	t.Helper()
	if batched.Mapped() != ref.Mapped() || batched.Tables() != ref.Tables() {
		t.Fatalf("%s: (mapped, tables) batched (%d, %d), reference (%d, %d)",
			what, batched.Mapped(), batched.Tables(), ref.Mapped(), ref.Tables())
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
// conflicts. After every operation both tables must hold the same
// leaves and counts, and each operation must fail the same way.
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

		// Start from a 1 GB leaf so the partial unmaps below split it.
		gb := extent.FromExtents(extent.Extent{First: 3 * gbPages, Count: gbPages})
		check(-1, "MapList", gbPages, gbPages,
			batched.MapList(pageVA(gbPages), gb, Read|Write), ref.mapListPerPage(pageVA(gbPages), gb, Read|Write))
		for i := 0; i < 300; i++ {
			first := start()
			switch rng.Intn(5) {
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
			default: // Unmap: sparse holes, partial large leaves, or both
				n := uint64(1 + rng.Intn(3000))
				if rng.Intn(10) == 0 {
					n = uint64(rng.Intn(gbPages))
				}
				check(i, "Unmap", first, n,
					batched.Unmap(pageVA(first), n), ref.unmapPerLeaf(pageVA(first), n))
			}
		}
		// Every page any operation above can reach.
		sameState(t, fmt.Sprintf("seed %d final", seed), batched, ref, lo-600, hi-lo+5600)
	}
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
	for _, pt := range []*Table{batched, ref} {
		if err := pt.MapList(pageVA(base), l, Read); err != nil {
			t.Fatal(err)
		}
		if err := pt.Unmap(pageVA(hole), 1); err != nil {
			t.Fatal(err)
		}
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
