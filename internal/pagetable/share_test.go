package pagetable

import (
	"testing"

	"xemem/internal/extent"
)

// TestWindowSurvivesSourceRefill: a SMARTMAP window follows its source
// slot through an unmap that empties the slot. The borrowed PDPT node is
// lent, so the source keeps it linked and maps the refill through it
// instead of building a fresh one the window cannot see; and it is never
// recycled, so the window cannot alias the source's other slots.
func TestWindowSurvivesSourceRefill(t *testing.T) {
	const first, refill = VA(0x1000_0000), VA(0x4000_0000_0)
	share := func(t *testing.T) (src, dst *Table) {
		t.Helper()
		src, dst = New(), New()
		if err := src.Map(first, 0x300, Read); err != nil {
			t.Fatal(err)
		}
		if err := dst.ShareSlot(1, src, 0); err != nil {
			t.Fatal(err)
		}
		if err := src.Unmap(first, 1); err != nil {
			t.Fatal(err)
		}
		return src, dst
	}

	t.Run("refill slot 0", func(t *testing.T) {
		src, dst := share(t)
		if err := src.Map(refill, 0x400, Read|Write); err != nil {
			t.Fatal(err)
		}
		f, flags, _, ok := dst.Walk(SlotBase(1) + refill)
		if !ok || f != 0x400 || flags != Read|Write {
			t.Fatalf("window walk = (%#x, %v, ok=%v), want (0x400, rw--, ok=true)", uint64(f), flags, ok)
		}
		if _, _, _, ok := dst.Walk(SlotBase(1) + first); ok {
			t.Fatal("window still resolves the unmapped page")
		}
	})

	t.Run("map in slot 1", func(t *testing.T) {
		src, dst := share(t)
		// Enough pages for fresh PDPT, PD and PT nodes: any node the
		// source freed would be recycled here.
		l := extent.FromExtents(extent.Extent{First: 0x100001, Count: 1024})
		if err := src.MapList(SlotBase(1), l, Read); err != nil {
			t.Fatal(err)
		}
		for p := uint64(0); p < l.Pages(); p++ {
			off := VA(p * extent.PageSize)
			if f, _, _, ok := dst.Walk(SlotBase(1) + off); ok {
				t.Fatalf("window resolves source slot-1 page %#x to frame %#x", uint64(SlotBase(1)+off), uint64(f))
			}
		}
		if err := dst.UnshareSlot(1); err != nil {
			t.Fatal(err)
		}
		if lent := src.root.child(0).lent; lent != 0 {
			t.Fatalf("after UnshareSlot the source node is lent %d times, want 0", lent)
		}
	})
}

// TestWindowOverRunEntries: a SMARTMAP window onto a slot whose PT nodes
// are stored as run entries resolves every page to the source's frame as
// a 4 KB leaf, and still does after a one-page source unmap expands one
// of them.
func TestWindowOverRunEntries(t *testing.T) {
	const base, hole = 512 * 8, 512*8 + 700 // two whole PT nodes; the hole is in the second
	src, dst := New(), New()
	l := extent.FromExtents(extent.Extent{First: 0x100001, Count: 1024})
	if err := src.MapList(pageVA(base), l, Read|Write); err != nil {
		t.Fatal(err)
	}
	if !isRun(src, pageVA(base)) || !isRun(src, pageVA(hole)) {
		t.Fatal("full PT nodes not stored as run entries")
	}
	if err := dst.ShareSlot(1, src, 0); err != nil {
		t.Fatal(err)
	}
	check := func(what string, holed bool) {
		t.Helper()
		for p := uint64(base); p < base+1024; p++ {
			sf, sfl, sl, sok := src.Walk(pageVA(p))
			df, dfl, dl, dok := dst.Walk(SlotBase(1) + pageVA(p))
			if df != sf || dfl != sfl || dl != sl || dok != sok {
				t.Fatalf("%s: window walk(%#x) = (%#x,%v,%d,%v), source (%#x,%v,%d,%v)",
					what, uint64(pageVA(p)), uint64(df), dfl, dl, dok, uint64(sf), sfl, sl, sok)
			}
			if holed && p == hole {
				if dok {
					t.Fatalf("%s: window resolves the unmapped page", what)
				}
				continue
			}
			if !dok || df != extent.PFN(0x100001+p-base) || dl != extent.PageSize {
				t.Fatalf("%s: window walk(%#x) = (%#x, %d B, ok=%v), want (%#x, 4096 B, ok=true)",
					what, uint64(pageVA(p)), uint64(df), dl, dok, 0x100001+p-base)
			}
		}
		if n, mapped := dst.MappedRun(SlotBase(1)+pageVA(base), 1024); n != 1 || !mapped {
			t.Fatalf("%s: window MappedRun = (%d, %v), want (1, true)", what, n, mapped)
		}
	}
	check("whole", false)
	if err := src.Unmap(pageVA(hole), 1); err != nil {
		t.Fatal(err)
	}
	if isRun(src, pageVA(hole)) || !isRun(src, pageVA(base)) {
		t.Fatal("a one-page unmap did not expand exactly its own run entry")
	}
	check("after a one-page source unmap", true)
}
