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
// 2 MB alignment force 4 KB leaves, so the range covers 512 full PT
// nodes under one PD (and its PDPT): Tables() grows by 514 and an unmap
// gives all 514 back.
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
	if allocs := testing.AllocsPerRun(1, cycle); allocs != 0 {
		t.Fatalf("a warm map/unmap cycle allocated %v times, want 0", allocs)
	}
	recyclable(t, "after cycles", pt)
}

// TestColdFullNodesAllocateNoPTNodes: a cold 1 GB MapList of 4 KB leaves
// stores each full PT node as one run entry in the PD, so it allocates
// only the PDPT and PD nodes and the child slices of the root and PDPT —
// no PT node, and no child slice for the PD.
func TestColdFullNodesAllocateNoPTNodes(t *testing.T) {
	l := extent.FromExtents(extent.Extent{First: 0x100001, Count: gbPages})
	va := pageVA(gbPages)
	var pt *Table
	allocs := testing.AllocsPerRun(1, func() {
		pt = New() // the Table and its root node
		if err := pt.MapList(va, l, Read|Write); err != nil {
			t.Fatal(err)
		}
	})
	if want := 2.0 + 4; allocs != want {
		t.Fatalf("New plus a cold 1 GB MapList allocated %v times, want %v", allocs, want)
	}
	if pt.Tables() != 1+514 || pt.Mapped() != gbPages {
		t.Fatalf("(tables, mapped) = (%d, %d), want (515, %d)", pt.Tables(), pt.Mapped(), gbPages)
	}
}
