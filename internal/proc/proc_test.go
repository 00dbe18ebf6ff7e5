package proc

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"xemem/internal/extent"
	"xemem/internal/mem"
	"xemem/internal/pagetable"
)

func newAS(t *testing.T) (*AddressSpace, *mem.PhysMem, *mem.Zone) {
	t.Helper()
	pm := mem.NewPhysMem("node", 64<<20)
	return NewAddressSpace(HostDomain{Mem: pm}, 0x7f00_0000_0000), pm, pm.Zone(0)
}

func TestEagerRegionReadWrite(t *testing.T) {
	as, _, z := newAS(t)
	backing, err := z.AllocScattered(16, 4)
	if err != nil {
		t.Fatal(err)
	}
	r, err := as.AddRegion("heap", 0, backing, pagetable.Read|pagetable.Write|pagetable.User, false)
	if err != nil {
		t.Fatal(err)
	}
	if r.Populated != 16 {
		t.Fatalf("populated = %d", r.Populated)
	}
	msg := []byte("composed workloads share memory")
	faults, err := as.Write(r.Base+100, msg)
	if err != nil {
		t.Fatal(err)
	}
	if faults != 0 {
		t.Fatalf("eager region faulted %d times", faults)
	}
	got := make([]byte, len(msg))
	if _, err := as.Read(r.Base+100, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("round trip = %q", got)
	}
}

func TestLazyRegionFaults(t *testing.T) {
	as, _, z := newAS(t)
	backing, _ := z.AllocScattered(8, 2)
	r, err := as.AddRegion("attach", 0, backing, pagetable.Read|pagetable.Write, true)
	if err != nil {
		t.Fatal(err)
	}
	if r.Populated != 0 {
		t.Fatalf("lazy region pre-populated: %d", r.Populated)
	}
	// Write spanning pages 0..3 (5 bytes on page 0, all of 1 and 2, a few
	// bytes of page 3): exactly 4 faults.
	buf := make([]byte, 2*extent.PageSize+10)
	faults, err := as.Write(r.Base+extent.PageSize-5, buf)
	if err != nil {
		t.Fatal(err)
	}
	if faults != 4 {
		t.Fatalf("faults = %d, want 4", faults)
	}
	// Re-access: no more faults.
	faults, err = as.Read(r.Base+extent.PageSize, buf[:10])
	if err != nil {
		t.Fatal(err)
	}
	if faults != 0 {
		t.Fatalf("second access faulted %d", faults)
	}
	if r.Populated != 4 {
		t.Fatalf("populated = %d", r.Populated)
	}
}

func TestAccessOutsideRegionFails(t *testing.T) {
	as, _, z := newAS(t)
	backing, _ := z.AllocScattered(2, 2)
	r, _ := as.AddRegion("r", 0, backing, pagetable.Read, true)
	if _, err := as.Read(r.End()+5, make([]byte, 1)); err == nil {
		t.Fatal("out-of-region read should fault fatally")
	}
}

func TestRegionOverlapRejected(t *testing.T) {
	as, _, z := newAS(t)
	b1, _ := z.AllocScattered(4, 4)
	b2, _ := z.AllocScattered(4, 4)
	r, err := as.AddRegion("a", 0x10000, b1, pagetable.Read, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := as.AddRegion("b", r.Base+extent.PageSize, b2, pagetable.Read, false); err == nil {
		t.Fatal("overlap accepted")
	}
	// Adjacent is fine.
	if _, err := as.AddRegion("c", r.End(), b2, pagetable.Read, false); err != nil {
		t.Fatalf("adjacent region rejected: %v", err)
	}
}

func TestReserveVANoOverlap(t *testing.T) {
	as, _, z := newAS(t)
	var regions []*Region
	for i := 0; i < 10; i++ {
		b, _ := z.AllocScattered(100, 16)
		r, err := as.AddRegion("r", 0, b, pagetable.Read|pagetable.Write, false)
		if err != nil {
			t.Fatal(err)
		}
		regions = append(regions, r)
	}
	for i := 0; i < len(regions); i++ {
		for j := i + 1; j < len(regions); j++ {
			if regions[i].Base < regions[j].End() && regions[j].Base < regions[i].End() {
				t.Fatalf("regions %d and %d overlap", i, j)
			}
		}
	}
}

func TestWalkExtentsServePath(t *testing.T) {
	as, _, z := newAS(t)
	backing, _ := z.AllocScattered(32, 8)
	r, _ := as.AddRegion("export", 0, backing, pagetable.Read|pagetable.Write, true)

	// Serve must populate lazy pages (get_user_pages semantics) and the
	// walked list must match the backing list exactly.
	got, faults, err := as.WalkExtents(r.Base, 32)
	if err != nil {
		t.Fatal(err)
	}
	if faults != 32 {
		t.Fatalf("faults = %d, want 32", faults)
	}
	if !slices.Equal(got.Extents(), backing.Extents()) {
		t.Fatalf("walked = %v, want %v", got, backing)
	}
	// Sub-range.
	sub, _, err := as.WalkExtents(r.Base+4*extent.PageSize, 8)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := backing.Slice(4, 8)
	if !slices.Equal(sub.Extents(), want.Extents()) {
		t.Fatalf("sub walk = %v, want %v", sub, want)
	}
}

// TestWalkExtentsMappedRange: a serve over a fully mapped range takes no
// faults and returns the list the populating serve returned; a partly
// mapped range still faults in exactly its missing pages.
func TestWalkExtentsMappedRange(t *testing.T) {
	as, _, z := newAS(t)
	backing, _ := z.AllocScattered(2048, 700) // runs long enough for run entries
	r, _ := as.AddRegion("export", 0, backing, pagetable.Read|pagetable.Write, true)

	if _, faults, err := as.WalkExtents(r.Base+100*extent.PageSize, 600); err != nil || faults != 600 {
		t.Fatalf("partial serve: faults = %d, err = %v; want 600", faults, err)
	}
	first, faults, err := as.WalkExtents(r.Base, 2048)
	if err != nil || faults != 2048-600 {
		t.Fatalf("populating serve: faults = %d, err = %v; want %d", faults, err, 2048-600)
	}
	if !slices.Equal(first.Extents(), backing.Extents()) {
		t.Fatalf("populating serve = %v, want %v", first, backing)
	}
	again, faults, err := as.WalkExtents(r.Base, 2048)
	if err != nil || faults != 0 || !slices.Equal(again.Extents(), first.Extents()) {
		t.Fatalf("mapped serve = (%v, %d faults, %v), want (%v, 0 faults)", again, faults, err, first)
	}

	eager, _ := z.AllocScattered(64, 8)
	e, _ := as.AddRegion("eager", 0, eager, pagetable.Read, false)
	got, faults, err := as.WalkExtents(e.Base, 64)
	if err != nil || faults != 0 || !slices.Equal(got.Extents(), eager.Extents()) {
		t.Fatalf("eager serve = (%v, %d faults, %v), want (%v, 0 faults)", got, faults, err, eager)
	}
	if _, _, err := as.WalkExtents(e.Base+1, 1); err == nil || !strings.Contains(err.Error(), "unaligned populate") {
		t.Fatalf("unaligned serve error = %v, want the populate path's", err)
	}
}

// TestPopulateAllPartlyPopulated: on a region some of whose pages were
// demand-faulted already, PopulateAll installs exactly the missing pages,
// reports their count, and leaves the faulted pages' mappings as they
// were; a second call installs nothing.
func TestPopulateAllPartlyPopulated(t *testing.T) {
	as, _, z := newAS(t)
	backing, _ := z.AllocScattered(64, 8)
	r, _ := as.AddRegion("attach", 0, backing, pagetable.Read|pagetable.Write, true)

	msg := []byte("touched before the burst")
	if _, err := as.Write(r.Base+3*extent.PageSize, msg); err != nil {
		t.Fatal(err)
	}
	if _, err := as.Write(r.Base+10*extent.PageSize, make([]byte, 3*extent.PageSize)); err != nil {
		t.Fatal(err)
	}
	if r.Populated != 4 {
		t.Fatalf("populated = %d before the burst, want 4", r.Populated)
	}
	n, err := as.PopulateAll(r)
	if err != nil || n != 60 || r.Populated != 64 {
		t.Fatalf("PopulateAll = (%d, %v), populated %d; want (60, nil), 64", n, err, r.Populated)
	}
	got, faults, err := as.WalkExtents(r.Base, 64)
	if err != nil || faults != 0 || !slices.Equal(got.Extents(), backing.Extents()) {
		t.Fatalf("walk after PopulateAll = (%v, %d faults, %v), want (%v, 0 faults)", got, faults, err, backing)
	}
	back := make([]byte, len(msg))
	if _, err := as.Read(r.Base+3*extent.PageSize, back); err != nil || !bytes.Equal(back, msg) {
		t.Fatalf("pre-touched page reads %q, %v; want %q", back, err, msg)
	}
	if n, err := as.PopulateAll(r); err != nil || n != 0 {
		t.Fatalf("second PopulateAll = (%d, %v), want (0, nil)", n, err)
	}
}

func TestRemoveRegion(t *testing.T) {
	as, _, z := newAS(t)
	backing, _ := z.AllocScattered(8, 4)
	r, _ := as.AddRegion("tmp", 0, backing, pagetable.Read, true)
	// Touch half the pages.
	if _, err := as.PopulateRange(r.Base, 4); err != nil {
		t.Fatal(err)
	}
	if err := as.RemoveRegion(r); err != nil {
		t.Fatal(err)
	}
	if as.FindRegion(r.Base) != nil {
		t.Fatal("region still findable")
	}
	if _, err := as.Read(r.Base, make([]byte, 1)); err == nil {
		t.Fatal("read after remove should fail")
	}
	if err := as.RemoveRegion(r); err == nil {
		t.Fatal("double remove accepted")
	}
	if as.PageTable().Mapped() != 0 {
		t.Fatalf("PTEs leaked: %d", as.PageTable().Mapped())
	}
}

func TestCrossProcessSharing(t *testing.T) {
	// Two address spaces over the same host memory with regions naming
	// the same frames observe each other's writes — the essence of an
	// XEMEM attachment.
	pm := mem.NewPhysMem("node", 64<<20)
	z := pm.Zone(0)
	asA := NewAddressSpace(HostDomain{Mem: pm}, 0x7f00_0000_0000)
	asB := NewAddressSpace(HostDomain{Mem: pm}, 0x7f00_0000_0000)

	backing, _ := z.AllocContigAligned(16, 1)
	list := extent.FromExtents(backing)
	rA, err := asA.AddRegion("export", 0, list, pagetable.Read|pagetable.Write, false)
	if err != nil {
		t.Fatal(err)
	}
	sub, _ := list.Slice(2, 4)
	rB, err := asB.AddRegion("attach", 0, sub, pagetable.Read|pagetable.Write, false)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := asA.Write(rA.Base+2*extent.PageSize, []byte("in situ data")); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 12)
	if _, err := asB.Read(rB.Base, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "in situ data" {
		t.Fatalf("attacher sees %q", got)
	}

	// And the reverse direction.
	if _, err := asB.Write(rB.Base+10, []byte("!")); err != nil {
		t.Fatal(err)
	}
	one := make([]byte, 1)
	if _, err := asA.Read(rA.Base+2*extent.PageSize+10, one); err != nil {
		t.Fatal(err)
	}
	if one[0] != '!' {
		t.Fatalf("exporter sees %q", one)
	}
}

func TestPermissionFaults(t *testing.T) {
	as, _, z := newAS(t)
	roBacking, _ := z.AllocScattered(4, 4)
	ro, err := as.AddRegion("ro", 0, roBacking, pagetable.Read|pagetable.User, false)
	if err != nil {
		t.Fatal(err)
	}
	// Reads succeed; writes take a protection fault.
	if _, err := as.Read(ro.Base, make([]byte, 8)); err != nil {
		t.Fatalf("read of read-only region failed: %v", err)
	}
	if _, err := as.Write(ro.Base, []byte("x")); err == nil {
		t.Fatal("write through read-only mapping succeeded")
	}
	// A write-only region rejects reads.
	woBacking, _ := z.AllocScattered(4, 4)
	wo, err := as.AddRegion("wo", 0, woBacking, pagetable.Write|pagetable.User, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := as.Write(wo.Base, []byte("x")); err != nil {
		t.Fatalf("write to write-only region failed: %v", err)
	}
	if _, err := as.Read(wo.Base, make([]byte, 1)); err == nil {
		t.Fatal("read through write-only mapping succeeded")
	}
}

// TestAddInPlace checks the in-place add: it demand-populates a lazy
// region like a write, sums byte-wise into what is there, and needs both
// read and write permission.
func TestAddInPlace(t *testing.T) {
	as, _, z := newAS(t)
	backing, _ := z.AllocScattered(4, 2)
	r, err := as.AddRegion("lazy", 0, backing, pagetable.Read|pagetable.Write, true)
	if err != nil {
		t.Fatal(err)
	}
	start := r.Base + extent.PageSize - 3
	if _, err := as.Write(start, []byte{1, 2, 3, 0xff}); err != nil {
		t.Fatal(err)
	}
	faults, err := as.Add(start, []byte{0xff, 2, 3, 0x01, 9})
	if err != nil {
		t.Fatal(err)
	}
	if faults != 0 {
		t.Fatalf("add over populated pages faulted %d times", faults)
	}
	got := make([]byte, 5)
	if _, err := as.Read(start, got); err != nil {
		t.Fatal(err)
	}
	if want := []byte{0, 4, 6, 0, 9}; !bytes.Equal(got, want) {
		t.Fatalf("after add: % x, want % x", got, want)
	}
	if faults, err := as.Add(r.Base+3*extent.PageSize, []byte{7}); err != nil || faults != 1 {
		t.Fatalf("add into an unpopulated page: %d faults, %v; want 1 fault", faults, err)
	}

	for _, flags := range []pagetable.Flags{pagetable.Read, pagetable.Write} {
		b, _ := z.AllocScattered(1, 1)
		reg, err := as.AddRegion(fmt.Sprintf("perm-%v", flags), 0, b, flags, false)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := as.Add(reg.Base, []byte{1}); err == nil || !strings.Contains(err.Error(), "protection fault") {
			t.Errorf("add through a %v mapping: %v, want a protection fault", flags, err)
		}
	}
}

func TestFindRegion(t *testing.T) {
	as, _, z := newAS(t)
	b1, _ := z.AllocScattered(4, 4)
	b2, _ := z.AllocScattered(4, 4)
	r1, _ := as.AddRegion("low", 0x10000, b1, pagetable.Read, false)
	r2, _ := as.AddRegion("high", 0x40000, b2, pagetable.Read, false)
	if as.FindRegion(r1.Base+5) != r1 {
		t.Fatal("FindRegion missed low")
	}
	if as.FindRegion(r2.Base) != r2 {
		t.Fatal("FindRegion missed high")
	}
	if as.FindRegion(r1.End()) != nil {
		t.Fatal("gap address matched a region")
	}
}

// TestWriteStopsAtReadOnlyPage pins the partial-copy semantics of one
// access that crosses from a writable mapping into a read-only one: the
// bytes up to the read-only page land, nothing past it does, and the
// error names the first read-only page.
func TestWriteStopsAtReadOnlyPage(t *testing.T) {
	as, _, z := newAS(t)
	const base = pagetable.VA(0x40_0000)
	rwBacking, _ := z.AllocScattered(3, 1)
	roBacking, _ := z.AllocScattered(2, 1)
	if _, err := as.AddRegion("rw", base, rwBacking, pagetable.Read|pagetable.Write, false); err != nil {
		t.Fatal(err)
	}
	ro, err := as.AddRegion("ro", base+3*extent.PageSize, roBacking, pagetable.Read, false)
	if err != nil {
		t.Fatal(err)
	}
	start := base + extent.PageSize + 100
	data := bytes.Repeat([]byte("xemem"), 2*extent.PageSize/5)
	_, err = as.Write(start, data)
	want := fmt.Sprintf("proc: write protection fault at %#x (", uint64(ro.Base))
	if err == nil || !strings.HasPrefix(err.Error(), want) {
		t.Fatalf("err = %v, want prefix %q", err, want)
	}
	prefix := int(ro.Base - start)
	got := make([]byte, len(data))
	if _, err := as.Read(start, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:prefix], data[:prefix]) {
		t.Fatal("writable prefix before the read-only page not written")
	}
	if !bytes.Equal(got[prefix:], make([]byte, len(data)-prefix)) {
		t.Fatal("bytes past the protection fault were written")
	}
}

// TestWarmReadAllocatesNothing: once an access has sized the address
// space's frame-list scratch, a host-domain Read over the same scattered
// pages allocates nothing.
func TestWarmReadAllocatesNothing(t *testing.T) {
	as, _, z := newAS(t)
	backing, err := z.AllocScattered(16, 4)
	if err != nil {
		t.Fatal(err)
	}
	r, err := as.AddRegion("heap", 0, backing, pagetable.Read|pagetable.Write, false)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16*extent.PageSize-100)
	read := func() {
		if _, err := as.Read(r.Base+50, buf); err != nil {
			t.Fatal(err)
		}
	}
	read()
	if allocs := testing.AllocsPerRun(10, read); allocs != 0 {
		t.Fatalf("a warm Read over %d extents allocated %v times, want 0", backing.Len(), allocs)
	}
}
