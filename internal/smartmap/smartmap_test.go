package smartmap

import (
	"strings"
	"testing"

	"xemem/internal/extent"
	"xemem/internal/mem"
	"xemem/internal/pagetable"
	"xemem/internal/proc"
)

func mkProc(t *testing.T, pm *mem.PhysMem, pages uint64) (*proc.AddressSpace, *proc.Region) {
	t.Helper()
	as := proc.NewAddressSpace(proc.HostDomain{Mem: pm}, 0x10_0000_0000)
	backing, err := pm.Zone(0).AllocContigAligned(pages, 1)
	if err != nil {
		t.Fatal(err)
	}
	r, err := as.AddRegion("heap", 0, extent.FromExtents(backing), pagetable.Read|pagetable.Write|pagetable.User, false)
	if err != nil {
		t.Fatal(err)
	}
	return as, r
}

func TestWindowZeroCopy(t *testing.T) {
	pm := mem.NewPhysMem("node", 64<<20)
	src, srcRegion := mkProc(t, pm, 16)
	dst, _ := mkProc(t, pm, 4)

	s := New()
	if _, err := s.Register(src.PageTable()); err != nil {
		t.Fatal(err)
	}
	win, err := s.Attach(dst.PageTable(), src.PageTable(), srcRegion.Base)
	if err != nil {
		t.Fatal(err)
	}

	// Source writes; the borrower reads the same bytes through the window
	// with zero copies — translations resolve through the shared subtree.
	if _, err := src.Write(srcRegion.Base+123, []byte("smartmap")); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 8)
	if _, err := dst.Read(win+123, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "smartmap" {
		t.Fatalf("window read = %q", got)
	}

	// Writes made by the source AFTER attachment are visible: live view.
	if _, err := src.Write(srcRegion.Base+4096, []byte("later")); err != nil {
		t.Fatal(err)
	}
	got5 := make([]byte, 5)
	if _, err := dst.Read(win+4096, got5); err != nil {
		t.Fatal(err)
	}
	if string(got5) != "later" {
		t.Fatalf("live view read = %q", got5)
	}
}

func TestWindowAddressMath(t *testing.T) {
	va, err := Window(3, 0x1234000)
	if err != nil {
		t.Fatal(err)
	}
	if va != pagetable.VA(3<<39|0x1234000) {
		t.Fatalf("window = %#x", uint64(va))
	}
	if _, err := Window(1, pagetable.SlotBase(2)); err == nil {
		t.Fatal("address outside slot 0 accepted")
	}
}

func TestBorrowerCannotMutateWindow(t *testing.T) {
	pm := mem.NewPhysMem("node", 64<<20)
	src, srcRegion := mkProc(t, pm, 8)
	dst, _ := mkProc(t, pm, 4)
	s := New()
	s.Register(src.PageTable())
	win, err := s.Attach(dst.PageTable(), src.PageTable(), srcRegion.Base)
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.PageTable().Unmap(win, 1); err == nil {
		t.Fatal("borrower unmapped through a shared slot")
	}
	if err := dst.PageTable().Map(win+8*4096, 0x200, pagetable.Read); err == nil {
		t.Fatal("borrower mapped into a shared slot")
	}
}

// TestBorrowerCannotMutateWindowInBatches: the batched map and unmap
// paths check the shared slot once per PT node, so a range spanning
// several PT nodes through a borrowed window must fail as a single page
// does, and leave the source table exactly as it was. A MapList that
// starts below the window and runs into it rolls back its own part.
func TestBorrowerCannotMutateWindowInBatches(t *testing.T) {
	const pages = 1100 // three PT nodes
	pm := mem.NewPhysMem("node", 64<<20)
	src, srcRegion := mkProc(t, pm, pages)
	dst, _ := mkProc(t, pm, 4)
	s := New()
	s.Register(src.PageTable())
	win, err := s.Attach(dst.PageTable(), src.PageTable(), srcRegion.Base)
	if err != nil {
		t.Fatal(err)
	}
	spt, dpt := src.PageTable(), dst.PageTable()
	// The source's translations over its region and as far again past it.
	walk := func() []extent.PFN {
		out := make([]extent.PFN, 2*pages)
		for i := range out {
			if f, _, _, ok := spt.Walk(srcRegion.Base + pagetable.VA(i*4096)); ok {
				out[i] = f
			}
		}
		return out
	}
	srcMapped, srcTables, srcPFNs := spt.Mapped(), spt.Tables(), walk()
	dstMapped, dstTables := dpt.Mapped(), dpt.Tables()

	past := win + pages*4096 // unmapped in the source, inside the window
	below := pagetable.SlotBase(pagetable.SlotOf(win)) - 300*4096
	l := extent.FromExtents(extent.Extent{First: 0x3001, Count: pages})
	for _, c := range []struct {
		op  string
		err error
	}{
		{"Unmap", dpt.Unmap(win, pages)},
		{"MapList", dpt.MapList(past, l, pagetable.Read)},
		{"MapRun", dpt.MapRun(past, 0x3001, pages, pagetable.Read)},
		{"MapList into the window", dpt.MapList(below, l, pagetable.Read)},
	} {
		if c.err == nil || !strings.Contains(c.err.Error(), "would mutate a shared (SMARTMAP) slot") {
			t.Fatalf("%s of %d pages through a borrowed slot: err = %v", c.op, pages, c.err)
		}
	}
	if spt.Mapped() != srcMapped || spt.Tables() != srcTables {
		t.Fatalf("source (mapped, tables) = (%d, %d), want (%d, %d)", spt.Mapped(), spt.Tables(), srcMapped, srcTables)
	}
	for i, f := range walk() {
		if f != srcPFNs[i] {
			t.Fatalf("source page %d now → %#x, was %#x", i, uint64(f), uint64(srcPFNs[i]))
		}
	}
	if dpt.Mapped() != dstMapped || dpt.Tables() != dstTables {
		t.Fatalf("borrower (mapped, tables) = (%d, %d) after rollback, want (%d, %d)",
			dpt.Mapped(), dpt.Tables(), dstMapped, dstTables)
	}
}

func TestRefCountedDetach(t *testing.T) {
	pm := mem.NewPhysMem("node", 64<<20)
	src, srcRegion := mkProc(t, pm, 8)
	dst, _ := mkProc(t, pm, 4)
	s := New()
	s.Register(src.PageTable())

	w1, err := s.Attach(dst.PageTable(), src.PageTable(), srcRegion.Base)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := s.Attach(dst.PageTable(), src.PageTable(), srcRegion.Base+4096)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Detach(dst.PageTable(), w1); err != nil {
		t.Fatal(err)
	}
	// Second window still translates.
	if _, _, _, ok := dst.PageTable().Walk(w2); !ok {
		t.Fatal("window died while a reference remained")
	}
	if err := s.Detach(dst.PageTable(), w2); err != nil {
		t.Fatal(err)
	}
	if _, _, _, ok := dst.PageTable().Walk(w2); ok {
		t.Fatal("window survives final detach")
	}
	if err := s.Detach(dst.PageTable(), w2); err == nil {
		t.Fatal("detach of detached window accepted")
	}
}

func TestUnregisteredSourceRejected(t *testing.T) {
	pm := mem.NewPhysMem("node", 64<<20)
	src, srcRegion := mkProc(t, pm, 4)
	dst, _ := mkProc(t, pm, 4)
	s := New()
	if _, err := s.Attach(dst.PageTable(), src.PageTable(), srcRegion.Base); err == nil {
		t.Fatal("attach to unregistered source accepted")
	}
}

func TestRegisterIdempotent(t *testing.T) {
	pm := mem.NewPhysMem("node", 64<<20)
	src, _ := mkProc(t, pm, 4)
	s := New()
	r1, _ := s.Register(src.PageTable())
	r2, _ := s.Register(src.PageTable())
	if r1 != r2 {
		t.Fatalf("ranks differ: %d vs %d", r1, r2)
	}
}

func TestRankExhaustion(t *testing.T) {
	s := New()
	for i := 0; i < 511; i++ {
		if _, err := s.Register(pagetable.New()); err != nil {
			t.Fatalf("register %d: %v", i, err)
		}
	}
	if _, err := s.Register(pagetable.New()); err == nil {
		t.Fatal("512th registration accepted")
	}
}
