package extent

import (
	"testing"
	"testing/quick"
)

func TestAppendCoalesces(t *testing.T) {
	var l List
	l.Append(10, 5)
	l.Append(15, 5) // adjacent: coalesce
	l.Append(30, 2) // gap: new extent
	if l.Len() != 2 {
		t.Fatalf("Len = %d, want 2", l.Len())
	}
	if l.Pages() != 12 {
		t.Fatalf("Pages = %d, want 12", l.Pages())
	}
	if l.Extents()[0] != (Extent{First: 10, Count: 10}) {
		t.Fatalf("first extent = %v", l.Extents()[0])
	}
}

func TestAppendZeroIgnored(t *testing.T) {
	var l List
	l.Append(5, 0)
	if l.Len() != 0 || l.Pages() != 0 {
		t.Fatalf("zero append changed list: %v", l)
	}
}

// TestResetKeepsStorage: a reset list is empty, does not coalesce with
// what it held before, and refills without allocating.
func TestResetKeepsStorage(t *testing.T) {
	var l List
	fill := func() {
		l.Reset()
		l.Append(10, 5)
		l.Append(30, 2)
		l.Append(40, 1)
	}
	fill()
	l.Reset()
	if l.Len() != 0 || l.Pages() != 0 {
		t.Fatalf("after Reset: %v", l)
	}
	l.Append(41, 1) // would coalesce with the old tail [40,+1)
	if !l.Equal(FromExtents(Extent{First: 41, Count: 1})) {
		t.Fatalf("after Reset and Append: %v", l)
	}
	if allocs := testing.AllocsPerRun(10, fill); allocs != 0 {
		t.Fatalf("refilling a reset list allocated %v times, want 0", allocs)
	}
}

func TestPageIndexing(t *testing.T) {
	l := FromExtents(Extent{10, 3}, Extent{100, 2})
	want := []PFN{10, 11, 12, 100, 101}
	for i, w := range want {
		got, err := l.Page(uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		if got != w {
			t.Fatalf("Page(%d) = %d, want %d", i, got, w)
		}
	}
	if _, err := l.Page(5); err == nil {
		t.Fatal("Page(5) should fail")
	}
}

func TestSlice(t *testing.T) {
	l := FromExtents(Extent{10, 4}, Extent{50, 4})
	s, err := l.Slice(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := FromExtents(Extent{12, 2}, Extent{50, 2})
	if !s.Equal(want) {
		t.Fatalf("Slice = %v, want %v", s, want)
	}
	if _, err := l.Slice(6, 4); err == nil {
		t.Fatal("out-of-range slice should fail")
	}
	// Full slice is identity.
	full, err := l.Slice(0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !full.Equal(l) {
		t.Fatalf("full slice %v != original %v", full, l)
	}
	// Empty slice.
	empty, err := l.Slice(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if empty.Pages() != 0 {
		t.Fatalf("empty slice has %d pages", empty.Pages())
	}
}

// TestWireSize checks that the wire size counts coalesced extents: an
// 8-byte header plus 16 bytes per extent, whatever the page counts.
func TestWireSize(t *testing.T) {
	if got := (List{}).WireSize(); got != 8 {
		t.Fatalf("empty list: %d bytes, want 8", got)
	}
	l := FromExtents(Extent{0xdeadb, 17}, Extent{1, 1}, Extent{2, 511}, Extent{0xffff0, 512})
	if got := l.WireSize(); got != 8+16*3 {
		t.Fatalf("3 extents after coalescing: %d bytes, want %d", got, 8+16*3)
	}
}

// Property: slicing then re-concatenating reproduces the original list.
func TestSliceConcatProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	err := quick.Check(func(seeds []uint16, cut uint16) bool {
		var l List
		base := PFN(1)
		for _, s := range seeds {
			count := uint64(s%64) + 1
			gap := PFN(s % 7)
			if gap > 0 {
				base += gap // force a new extent
			}
			l.Append(base, count)
			base += PFN(count)
		}
		if l.Pages() == 0 {
			return true
		}
		k := uint64(cut) % l.Pages()
		a, err := l.Slice(0, k)
		if err != nil {
			return false
		}
		b, err := l.Slice(k, l.Pages()-k)
		if err != nil {
			return false
		}
		a.AppendList(b)
		return a.Equal(l)
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
}

// Property: Page(i) agrees with element-wise expansion.
func TestPageAgreesWithExpansion(t *testing.T) {
	l := FromExtents(Extent{5, 3}, Extent{20, 1}, Extent{9, 2})
	var flat []PFN
	for _, e := range l.Extents() {
		for i := uint64(0); i < e.Count; i++ {
			flat = append(flat, e.First+PFN(i))
		}
	}
	for i, w := range flat {
		got, err := l.Page(uint64(i))
		if err != nil || got != w {
			t.Fatalf("Page(%d) = %d,%v want %d", i, got, err, w)
		}
	}
}
