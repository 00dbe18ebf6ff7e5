package pagetable

import (
	"slices"
	"testing"
	"testing/quick"

	"xemem/internal/extent"
)

func TestMapWalkSinglePage(t *testing.T) {
	pt := New()
	if err := pt.Map(0x1000, 0x200, Read|Write|User); err != nil {
		t.Fatal(err)
	}
	f, fl, leaf, ok := pt.Walk(0x1234)
	if !ok {
		t.Fatal("walk missed")
	}
	if f != 0x200 || fl != Read|Write|User || leaf != extent.PageSize {
		t.Fatalf("walk = %#x %v %d", uint64(f), fl, leaf)
	}
	if _, _, _, ok := pt.Walk(0x2000); ok {
		t.Fatal("unmapped address should miss")
	}
	if pt.Mapped() != 1 {
		t.Fatalf("mapped = %d", pt.Mapped())
	}
}

func TestUnalignedMapRejected(t *testing.T) {
	pt := New()
	if err := pt.Map(0x1001, 0x200, Read); err == nil {
		t.Fatal("unaligned map should fail")
	}
}

func TestDoubleMapRejected(t *testing.T) {
	pt := New()
	if err := pt.Map(0x1000, 0x200, Read); err != nil {
		t.Fatal(err)
	}
	if err := pt.Map(0x1000, 0x300, Read); err == nil {
		t.Fatal("double map should fail")
	}
}

func TestMapListUsesLargePages(t *testing.T) {
	pt := New()
	// 4 MB contiguous, 2 MB-aligned in both VA and PFN: two 2 MB leaves.
	l := extent.FromExtents(extent.Extent{First: 512, Count: 1024})
	if err := pt.MapList(VA(512*extent.PageSize), l, Read|Write); err != nil {
		t.Fatal(err)
	}
	_, _, leaf, ok := pt.Walk(VA(512 * extent.PageSize))
	if !ok || leaf != 2<<20 {
		t.Fatalf("leaf = %d, want 2MB", leaf)
	}
	if pt.Mapped() != 1024 {
		t.Fatalf("mapped = %d", pt.Mapped())
	}
	// Every page translates to the right frame.
	for i := uint64(0); i < 1024; i += 97 {
		f, _, _, ok := pt.Walk(VA((512 + i) * extent.PageSize))
		if !ok || f != extent.PFN(512+i) {
			t.Fatalf("page %d → %#x", i, uint64(f))
		}
	}
}

func TestMapListUnalignedFramesUsesSmallPages(t *testing.T) {
	pt := New()
	// Frames not 512-aligned: only 4 KB leaves possible.
	l := extent.FromExtents(extent.Extent{First: 100, Count: 600})
	if err := pt.MapList(VA(512*extent.PageSize), l, Read); err != nil {
		t.Fatal(err)
	}
	_, _, leaf, ok := pt.Walk(VA(512 * extent.PageSize))
	if !ok || leaf != extent.PageSize {
		t.Fatalf("leaf = %d, want 4KB", leaf)
	}
	if pt.Mapped() != 600 {
		t.Fatalf("mapped = %d", pt.Mapped())
	}
}

func TestMapListRollbackOnConflict(t *testing.T) {
	pt := New()
	if err := pt.Map(VA(5*extent.PageSize), 0x999, Read); err != nil {
		t.Fatal(err)
	}
	l := extent.FromExtents(extent.Extent{First: 0x200, Count: 10})
	if err := pt.MapList(0, l, Read); err == nil {
		t.Fatal("conflicting MapList should fail")
	}
	// Pages 0-4 must have been rolled back.
	for i := uint64(0); i < 5; i++ {
		if _, _, _, ok := pt.Walk(VA(i * extent.PageSize)); ok {
			t.Fatalf("page %d not rolled back", i)
		}
	}
	if pt.Mapped() != 1 {
		t.Fatalf("mapped = %d after rollback", pt.Mapped())
	}
}

func TestExtentsForRoundTrip(t *testing.T) {
	pt := New()
	l := extent.FromExtents(
		extent.Extent{First: 0x1000, Count: 512},
		extent.Extent{First: 0x5000, Count: 3},
		extent.Extent{First: 0x300, Count: 70},
	)
	base := VA(1 << 30)
	if err := pt.MapList(base, l, Read|Write); err != nil {
		t.Fatal(err)
	}
	got, err := pt.ExtentsFor(base, l.Pages())
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.Extents(), l.Extents()) {
		t.Fatalf("ExtentsFor = %v, want %v", got, l)
	}
	// Sub-range walk.
	sub, err := pt.ExtentsFor(base+VA(510*extent.PageSize), 10)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := l.Slice(510, 10)
	if !slices.Equal(sub.Extents(), want.Extents()) {
		t.Fatalf("sub walk = %v, want %v", sub, want)
	}
}

func TestExtentsForHoleFails(t *testing.T) {
	pt := New()
	if err := pt.Map(0, 0x200, Read); err != nil {
		t.Fatal(err)
	}
	if _, err := pt.ExtentsFor(0, 2); err == nil {
		t.Fatal("walk across hole should fail")
	}
}

func TestUnmapExact(t *testing.T) {
	pt := New()
	l := extent.FromExtents(extent.Extent{First: 0x200, Count: 16})
	if err := pt.MapList(0x10000, l, Read); err != nil {
		t.Fatal(err)
	}
	if err := pt.Unmap(0x10000, 16); err != nil {
		t.Fatal(err)
	}
	if pt.Mapped() != 0 {
		t.Fatalf("mapped = %d", pt.Mapped())
	}
	if err := pt.Unmap(0x10000, 1); err == nil {
		t.Fatal("unmap of unmapped should fail")
	}
}

func TestUnmapSplitsLargePage(t *testing.T) {
	pt := New()
	l := extent.FromExtents(extent.Extent{First: 512, Count: 512}) // one 2MB leaf
	base := VA(512 * extent.PageSize)
	if err := pt.MapList(base, l, Read|Write); err != nil {
		t.Fatal(err)
	}
	// Unmap 16 pages from the middle.
	if err := pt.Unmap(base+VA(100*extent.PageSize), 16); err != nil {
		t.Fatal(err)
	}
	if pt.Mapped() != 512-16 {
		t.Fatalf("mapped = %d", pt.Mapped())
	}
	if _, _, _, ok := pt.Walk(base + VA(100*extent.PageSize)); ok {
		t.Fatal("unmapped page still walks")
	}
	// Neighbours survive with correct frames and are now 4KB leaves.
	f, _, leaf, ok := pt.Walk(base + VA(99*extent.PageSize))
	if !ok || f != extent.PFN(512+99) || leaf != extent.PageSize {
		t.Fatalf("neighbour walk = %#x leaf=%d ok=%v", uint64(f), leaf, ok)
	}
	f, _, _, ok = pt.Walk(base + VA(116*extent.PageSize))
	if !ok || f != extent.PFN(512+116) {
		t.Fatalf("post-hole walk = %#x ok=%v", uint64(f), ok)
	}
}

func TestInteriorTableGC(t *testing.T) {
	pt := New()
	base := pt.Tables()
	l := extent.FromExtents(extent.Extent{First: 0x200, Count: 8})
	if err := pt.MapList(0x40000000, l, Read); err != nil {
		t.Fatal(err)
	}
	grown := pt.Tables()
	if grown <= base {
		t.Fatal("mapping should allocate tables")
	}
	if err := pt.Unmap(0x40000000, 8); err != nil {
		t.Fatal(err)
	}
	if pt.Tables() != base {
		t.Fatalf("tables = %d after full unmap, want %d", pt.Tables(), base)
	}
}

func TestFlagsString(t *testing.T) {
	if got := (Read | Write | User).String(); got != "rw-u" {
		t.Fatalf("flags = %q", got)
	}
	if got := Flags(0).String(); got != "----" {
		t.Fatalf("flags = %q", got)
	}
}

// Property: MapList then ExtentsFor is the identity on arbitrary lists,
// and Unmap restores the empty state.
func TestMapWalkUnmapProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 60}
	err := quick.Check(func(seeds []uint16) bool {
		pt := New()
		var l extent.List
		next := extent.PFN(0x1000)
		for _, s := range seeds {
			next += extent.PFN(s%13) + 1 // gaps prevent coalescing
			count := uint64(s%700) + 1
			l.Append(next, count)
			next += extent.PFN(count)
		}
		if l.Pages() == 0 {
			return true
		}
		base := VA(7 << 21) // 2MB-aligned VA
		if err := pt.MapList(base, l, Read|Write); err != nil {
			return false
		}
		got, err := pt.ExtentsFor(base, l.Pages())
		if err != nil || !slices.Equal(got.Extents(), l.Extents()) {
			return false
		}
		if pt.Mapped() != l.Pages() {
			return false
		}
		if err := pt.Unmap(base, l.Pages()); err != nil {
			return false
		}
		return pt.Mapped() == 0 && pt.Tables() == 1
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
}

// Property: partial unmaps of random sub-ranges leave exactly the
// complement mapped.
func TestPartialUnmapProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 40}
	err := quick.Check(func(offRaw, lenRaw uint16) bool {
		const total = 2048 // 8 MB region, large-page eligible
		pt := New()
		l := extent.FromExtents(extent.Extent{First: 512, Count: total})
		base := VA(1 << 30)
		if err := pt.MapList(base, l, Read); err != nil {
			return false
		}
		off := uint64(offRaw) % total
		n := uint64(lenRaw)%(total-off) + 1
		if err := pt.Unmap(base+VA(off*extent.PageSize), n); err != nil {
			return false
		}
		if pt.Mapped() != total-n {
			return false
		}
		for _, probe := range []uint64{0, off / 2, off, off + n - 1, off + n, total - 1} {
			_, _, _, ok := pt.Walk(base + VA(probe*extent.PageSize))
			inHole := probe >= off && probe < off+n
			if probe < total && ok == inHole {
				return false
			}
		}
		return true
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
}
