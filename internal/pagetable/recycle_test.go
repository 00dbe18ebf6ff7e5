package pagetable

import (
	"testing"

	"xemem/internal/extent"
)

// recyclable fails the test unless every node on pt's free list is
// all-zero: no present entry, no child, no borrower. newTable hands them
// out without clearing.
func recyclable(t *testing.T, what string, pt *Table) {
	t.Helper()
	for k, n := range pt.free {
		if n.used != 0 || n.lent != 0 || n.ents != [512]uint64{} {
			t.Fatalf("%s: free node %d not zero (used %d, lent %d)", what, k, n.used, n.lent)
		}
		for j, c := range n.next {
			if c != nil {
				t.Fatalf("%s: free node %d keeps child %d", what, k, j)
			}
		}
	}
}

// TestMapUnmapCycleReusesNodes: once a 1 GB map/unmap cycle has built
// its radix nodes, the next cycle allocates nothing. Frames one page off
// 2 MB alignment force 4 KB leaves, so the range fills 512 PT nodes
// under one PD (and its PDPT); unmapping it frees all 514 back onto the
// table's free list, and mapping again draws them off it.
func TestMapUnmapCycleReusesNodes(t *testing.T) {
	pt := New()
	l := extent.FromExtents(extent.Extent{First: 0x100001, Count: gbPages})
	va := pageVA(gbPages)
	tables := pt.Tables()
	cycle := func() {
		recyclable(t, "before map", pt)
		if err := pt.MapList(va, l, Read|Write); err != nil {
			t.Fatal(err)
		}
		if got, want := pt.Tables(), tables+514; got != want {
			t.Fatalf("after map Tables() = %d, want %d", got, want)
		}
		if err := pt.Unmap(va, gbPages); err != nil {
			t.Fatal(err)
		}
		if pt.Tables() != tables || pt.Mapped() != 0 {
			t.Fatalf("after unmap (tables, mapped) = (%d, %d), want (%d, 0)", pt.Tables(), pt.Mapped(), tables)
		}
	}
	cycle()
	if len(pt.free) != 514 {
		t.Fatalf("free list holds %d nodes after the warm-up cycle, want 514", len(pt.free))
	}
	if allocs := testing.AllocsPerRun(1, cycle); allocs != 0 {
		t.Fatalf("a warm map/unmap cycle allocated %v times, want 0", allocs)
	}
	recyclable(t, "after cycles", pt)
}
