package pagetable

import (
	"testing"

	"xemem/internal/extent"
)

// TestMapRunMatchesPerPageMap: MapRun must install exactly the state that
// the equivalent sequence of per-page root-to-leaf installs would.
func TestMapRunMatchesPerPageMap(t *testing.T) {
	runs := []struct {
		va    VA
		f     extent.PFN
		count uint64
	}{
		{0x1000, 0x200, 3},
		{VA(510 * extent.PageSize), 0x900, 700},            // crosses a PT-node boundary
		{VA(3 * 512 * 512 * extent.PageSize), 0x5000, 600}, // crosses a 1 GB boundary
	}
	batched, perPage := New(), New()
	for _, r := range runs {
		if err := batched.MapRun(r.va, r.f, r.count, Read|Write); err != nil {
			t.Fatalf("MapRun(%#x): %v", uint64(r.va), err)
		}
		if err := perPage.mapRunPerPage(r.va, r.f, r.count, Read|Write); err != nil {
			t.Fatalf("per-page map(%#x): %v", uint64(r.va), err)
		}
	}
	if batched.Mapped() != perPage.Mapped() {
		t.Fatalf("mapped: batched %d, per-page %d", batched.Mapped(), perPage.Mapped())
	}
	if batched.Tables() != perPage.Tables() {
		t.Fatalf("tables: batched %d, per-page %d", batched.Tables(), perPage.Tables())
	}
	for _, r := range runs {
		for i := uint64(0); i < r.count; i++ {
			va := r.va + VA(i*extent.PageSize)
			bf, bfl, bl, bok := batched.Walk(va)
			pf, pfl, pl, pok := perPage.Walk(va)
			if bf != pf || bfl != pfl || bl != pl || bok != pok {
				t.Fatalf("walk(%#x): batched (%#x,%v,%d,%v) per-page (%#x,%v,%d,%v)",
					uint64(va), uint64(bf), bfl, bl, bok, uint64(pf), pfl, pl, pok)
			}
		}
	}
}

// TestMapRunConflict: mapping over an existing page fails, and the pages
// installed before the conflict stay mapped with correct bookkeeping (the
// caller — proc's populate path — never retries into the same range).
func TestMapRunConflict(t *testing.T) {
	pt := New()
	if err := pt.Map(VA(5*extent.PageSize), 0x999, Read); err != nil {
		t.Fatal(err)
	}
	if err := pt.MapRun(0, 0x100, 10, Read); err == nil {
		t.Fatal("MapRun over a mapped page should fail")
	}
	// Pages 0-4 installed, page 5 untouched (the pre-existing mapping).
	for i := uint64(0); i < 5; i++ {
		f, _, _, ok := pt.Walk(VA(i * extent.PageSize))
		if !ok || f != extent.PFN(0x100+i) {
			t.Fatalf("page %d → %#x ok=%v", i, uint64(f), ok)
		}
	}
	if f, _, _, _ := pt.Walk(VA(5 * extent.PageSize)); f != 0x999 {
		t.Fatalf("conflicting page overwritten: %#x", uint64(f))
	}
	if pt.Mapped() != 6 {
		t.Fatalf("mapped = %d, want 6", pt.Mapped())
	}
	// Bookkeeping must be consistent: a full unmap of what is mapped
	// releases every interior table.
	for i := uint64(0); i < 6; i++ {
		if err := pt.Unmap(VA(i*extent.PageSize), 1); err != nil {
			t.Fatalf("unmap page %d: %v", i, err)
		}
	}
	if pt.Mapped() != 0 || pt.Tables() != 1 {
		t.Fatalf("after unmap: mapped=%d tables=%d", pt.Mapped(), pt.Tables())
	}
}

// TestMapRunLargeLeafConflict: a run colliding with a 2 MB leaf reports
// the large-page conflict rather than silently splitting it.
func TestMapRunLargeLeafConflict(t *testing.T) {
	pt := New()
	l := extent.FromExtents(extent.Extent{First: 512, Count: 512})
	if err := pt.MapList(VA(512*extent.PageSize), l, Read); err != nil {
		t.Fatal(err)
	}
	if err := pt.MapRun(VA(512*extent.PageSize), 0x100, 1, Read); err == nil {
		t.Fatal("MapRun into a 2MB leaf should fail")
	}
}

// TestMappedRunSpans checks run partitioning: leaf-granular mapped runs,
// hole runs that span absent subtrees or consecutive absent PT entries,
// always clamped to the limit.
func TestMappedRunSpans(t *testing.T) {
	pt := New()
	// Empty table: the hole at va 0 spans the whole absent 512 GB subtree,
	// clamped to limit.
	if n, mapped := pt.MappedRun(0, 100); n != 100 || mapped {
		t.Fatalf("empty table run = (%d,%v)", n, mapped)
	}

	// 2 MB leaf at 2 MB, then 4 KB pages at 4 MB..4 MB+3p with a hole after.
	l := extent.FromExtents(extent.Extent{First: 512, Count: 512})
	if err := pt.MapList(VA(2<<20), l, Read); err != nil {
		t.Fatal(err)
	}
	if err := pt.MapRun(VA(4<<20), 0x2000, 3, Read); err != nil {
		t.Fatal(err)
	}

	// Inside the 2 MB leaf: mapped run extends to the leaf end.
	if n, mapped := pt.MappedRun(VA(2<<20), 1000); n != 512 || !mapped {
		t.Fatalf("2MB leaf run = (%d,%v), want (512,true)", n, mapped)
	}
	if n, mapped := pt.MappedRun(VA(2<<20)+VA(100*extent.PageSize), 1000); n != 412 || !mapped {
		t.Fatalf("mid-leaf run = (%d,%v), want (412,true)", n, mapped)
	}
	// Clamp wins when smaller.
	if n, mapped := pt.MappedRun(VA(2<<20), 7); n != 7 || !mapped {
		t.Fatalf("clamped leaf run = (%d,%v)", n, mapped)
	}
	// The three 4 KB pages: one leaf per run.
	if n, mapped := pt.MappedRun(VA(4<<20), 100); n != 1 || !mapped {
		t.Fatalf("4KB leaf run = (%d,%v), want (1,true)", n, mapped)
	}
	// The hole after them sits inside an existing PT node: the run extends
	// across the remaining absent entries of that node (512-3), clamped.
	if n, mapped := pt.MappedRun(VA(4<<20)+VA(3*extent.PageSize), 10000); n != 509 || mapped {
		t.Fatalf("intra-node hole run = (%d,%v), want (509,false)", n, mapped)
	}
	if n, mapped := pt.MappedRun(VA(4<<20)+VA(3*extent.PageSize), 5); n != 5 || mapped {
		t.Fatalf("clamped hole run = (%d,%v)", n, mapped)
	}
	// A hole between mapped 4 KB entries stops at the next present entry.
	if err := pt.Map(VA(4<<20)+VA(9*extent.PageSize), 0x3000, Read); err != nil {
		t.Fatal(err)
	}
	if n, mapped := pt.MappedRun(VA(4<<20)+VA(3*extent.PageSize), 10000); n != 6 || mapped {
		t.Fatalf("bounded hole run = (%d,%v), want (6,false)", n, mapped)
	}
	// 3 MB is in the middle of the 2 MB leaf (it covers 2..4 MB).
	if n, mapped := pt.MappedRun(VA(3<<20), 10000); n != 256 || !mapped {
		t.Fatalf("mid-2MB-leaf run = (%d,%v), want (256,true)", n, mapped)
	}
	// The hole at 6 MB (absent level-1 subtree under a present level-2
	// node): span is that whole missing 2 MB region.
	if n, mapped := pt.MappedRun(VA(6<<20), 10000); n != 512 || mapped {
		t.Fatalf("absent-subtree hole run = (%d,%v), want (512,false)", n, mapped)
	}

	// Walking a range by MappedRun covers it exactly: total pages add up.
	var total, mappedPages uint64
	for va, limit := VA(2<<20), uint64(1024); limit > 0; {
		n, mapped := pt.MappedRun(va, limit)
		if n == 0 || n > limit {
			t.Fatalf("bad run length %d (limit %d)", n, limit)
		}
		total += n
		if mapped {
			mappedPages += n
		}
		va += VA(n * extent.PageSize)
		limit -= n
	}
	if total != 1024 || mappedPages != 512+3+1 {
		t.Fatalf("coverage: total=%d mapped=%d", total, mappedPages)
	}
}
