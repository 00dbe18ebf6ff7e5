package proc

import (
	"fmt"
	"strings"
	"testing"

	"xemem/internal/extent"
	"xemem/internal/mem"
	"xemem/internal/pagetable"
)

// patchworkAS builds an address space with a lazy scattered-backing region
// and a deterministic patchwork of pre-populated pages, so the populate
// paths have to handle mapped runs, intra-node holes, and absent subtrees.
// Every call produces an identical layout.
func patchworkAS(t *testing.T) (*AddressSpace, *Region) {
	t.Helper()
	pm := mem.NewPhysMem("node", 64<<20)
	as := NewAddressSpace(HostDomain{Mem: pm}, 0x7f00_0000_0000)
	backing, err := pm.Zone(0).AllocScattered(1200, 7)
	if err != nil {
		t.Fatal(err)
	}
	r, err := as.AddRegion("attach", 0, backing, pagetable.Read|pagetable.Write, true)
	if err != nil {
		t.Fatal(err)
	}
	// Pre-touch a scattered subset: single pages, short runs, a run
	// crossing the 512-page PT-node boundary.
	for _, pre := range []struct{ page, count uint64 }{
		{3, 1}, {10, 5}, {100, 1}, {510, 4}, {900, 30},
	} {
		if _, err := as.PopulateRange(r.Base+pagetable.VA(pre.page*extent.PageSize), pre.count); err != nil {
			t.Fatal(err)
		}
	}
	return as, r
}

// ptState snapshots everything observable about the page-table mapping of
// a region: per-page translation plus global counters.
func ptState(t *testing.T, as *AddressSpace, r *Region, pages uint64) string {
	t.Helper()
	var b strings.Builder
	for i := uint64(0); i < pages; i++ {
		f, fl, leaf, ok := as.PageTable().Walk(r.Base + pagetable.VA(i*extent.PageSize))
		if ok {
			b.WriteString(string(rune('A' + int(leaf>>21)))) // leaf size class
			b.WriteString(fl.String())
			b.WriteByte(':')
			for d := 0; d < 8; d++ {
				b.WriteByte(byte('0' + (uint64(f)>>(4*d))&0xf))
			}
		} else {
			b.WriteByte('.')
		}
		b.WriteByte(' ')
	}
	return b.String()
}

// populateRangeLegacy is the pre-batching reference implementation: probe
// and install one page per iteration.
func (as *AddressSpace) populateRangeLegacy(va pagetable.VA, npages uint64) (faults int, err error) {
	for p := uint64(0); p < npages; p++ {
		cur := va + pagetable.VA(p*extent.PageSize)
		if _, _, _, ok := as.pt.Walk(cur); ok {
			continue
		}
		r := as.FindRegion(cur)
		if r == nil {
			return faults, fmt.Errorf("proc: fault at %#x outside any region", uint64(cur))
		}
		idx := (cur - r.Base).Page()
		f, err := r.Backing.Page(idx)
		if err != nil {
			return faults, err
		}
		if err := as.pt.Map(cur, f, r.Flags); err != nil {
			return faults, err
		}
		r.Populated++
		faults++
	}
	return faults, nil
}

// TestPopulateRangeBatchedMatchesLegacy: the batched populate path (runs
// via MappedRun + MapRun) must produce exactly the same faults, Populated
// count, and page-table state as the original per-page Walk+Map loop.
func TestPopulateRangeBatchedMatchesLegacy(t *testing.T) {
	type outcome struct {
		faults    int
		populated uint64
		mapped    uint64
		tables    int
		state     string
	}
	run := func(legacy bool) outcome {
		as, r := patchworkAS(t)
		populate := as.PopulateRange
		if legacy {
			populate = as.populateRangeLegacy
		}
		faults, err := populate(r.Base, 1200)
		if err != nil {
			t.Fatalf("legacy=%v: %v", legacy, err)
		}
		return outcome{faults, r.Populated, as.PageTable().Mapped(), as.PageTable().Tables(),
			ptState(t, as, r, 1200)}
	}
	batched, legacy := run(false), run(true)
	if batched.faults != legacy.faults {
		t.Fatalf("faults: batched %d, legacy %d", batched.faults, legacy.faults)
	}
	if batched.populated != legacy.populated {
		t.Fatalf("populated: batched %d, legacy %d", batched.populated, legacy.populated)
	}
	if batched.mapped != legacy.mapped || batched.tables != legacy.tables {
		t.Fatalf("pt: batched (%d,%d), legacy (%d,%d)",
			batched.mapped, batched.tables, legacy.mapped, legacy.tables)
	}
	if batched.state != legacy.state {
		t.Fatal("page-table translations differ between batched and legacy populate")
	}
	if batched.faults != 1200-(1+5+1+4+30) {
		t.Fatalf("faults = %d, want %d", batched.faults, 1200-41)
	}
}

// TestPopulateRangeOutsideRegionError: the batched path reports the same
// error as the per-page reference for a fault landing outside any region.
func TestPopulateRangeOutsideRegionError(t *testing.T) {
	var msgs [2]string
	for i, legacy := range []bool{false, true} {
		as, r := patchworkAS(t)
		populate := as.PopulateRange
		if legacy {
			populate = as.populateRangeLegacy
		}
		_, err := populate(r.Base+pagetable.VA(1195*extent.PageSize), 100)
		if err == nil {
			t.Fatalf("legacy=%v: populate past region end succeeded", legacy)
		}
		msgs[i] = err.Error()
	}
	if msgs[0] != msgs[1] {
		t.Fatalf("error mismatch:\n  batched: %s\n  legacy:  %s", msgs[0], msgs[1])
	}
}

// TestAccessBatchedFaultCounts: the batched access path must report the
// same demand faults as the original per-page loop did (TestLazyRegionFaults
// pins the basic case; this adds a patchwork region and large spans).
func TestAccessBatchedFaultCounts(t *testing.T) {
	as, r := patchworkAS(t)
	// Write spanning pages 8..16: pages 10-14 are pre-populated, so 4 faults
	// (8, 9, 15, 16).
	buf := make([]byte, 8*extent.PageSize+10)
	faults, err := as.Write(r.Base+pagetable.VA(8*extent.PageSize)+5, buf)
	if err != nil {
		t.Fatal(err)
	}
	if faults != 4 {
		t.Fatalf("faults = %d, want 4", faults)
	}
	// Re-access is fault-free and round-trips content through scattered
	// frames.
	msg := []byte("cross-enclave shared memory")
	if _, err := as.Write(r.Base+pagetable.VA(9*extent.PageSize)-3, msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if faults, err = as.Read(r.Base+pagetable.VA(9*extent.PageSize)-3, got); err != nil || faults != 0 {
		t.Fatalf("read: faults=%d err=%v", faults, err)
	}
	if string(got) != string(msg) {
		t.Fatalf("round trip = %q", got)
	}
}
