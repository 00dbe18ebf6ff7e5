package mem

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"xemem/internal/extent"
	"xemem/internal/sim"
)

func newTestMem() *PhysMem {
	return NewPhysMem("node0", 16<<20, 16<<20) // two 16 MB zones
}

func TestZoneGeometry(t *testing.T) {
	m := newTestMem()
	if m.NumZones() != 2 {
		t.Fatalf("zones = %d", m.NumZones())
	}
	if got := m.Zone(0).Pages(); got != 4096 {
		t.Fatalf("zone0 pages = %d, want 4096", got)
	}
	if m.Zone(0).FreePages() != 4096 {
		t.Fatalf("zone0 free = %d", m.Zone(0).FreePages())
	}
}

func TestAllocContigAndFree(t *testing.T) {
	z := newTestMem().Zone(0)
	a, err := z.AllocContigAligned(100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a.Count != 100 {
		t.Fatalf("count = %d", a.Count)
	}
	b, err := z.AllocContigAligned(50, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a.End() != b.First {
		t.Fatalf("first-fit should be adjacent: %v then %v", a, b)
	}
	if z.FreePages() != 4096-150 {
		t.Fatalf("free = %d", z.FreePages())
	}
	if err := z.Free(extent.FromExtents(a)); err != nil {
		t.Fatal(err)
	}
	if err := z.Free(extent.FromExtents(b)); err != nil {
		t.Fatal(err)
	}
	if z.FreePages() != 4096 {
		t.Fatalf("free after frees = %d", z.FreePages())
	}
	if got := len(z.FreeExtents()); got != 1 {
		t.Fatalf("free list should have coalesced to 1 extent, has %d", got)
	}
}

func TestAllocContigExhaustion(t *testing.T) {
	z := newTestMem().Zone(0)
	if _, err := z.AllocContigAligned(4097, 1); err == nil {
		t.Fatal("oversized allocation should fail")
	}
	if _, err := z.AllocContigAligned(0, 1); err == nil {
		t.Fatal("zero allocation should fail")
	}
}

func TestDoubleFreeDetected(t *testing.T) {
	z := newTestMem().Zone(0)
	a, _ := z.AllocContigAligned(10, 1)
	l := extent.FromExtents(a)
	if err := z.Free(l); err != nil {
		t.Fatal(err)
	}
	if err := z.Free(l); err == nil {
		t.Fatal("double free should fail")
	}
}

func TestFreeOutsideZoneRejected(t *testing.T) {
	m := newTestMem()
	z0, z1 := m.Zone(0), m.Zone(1)
	a, _ := z1.AllocContigAligned(1, 1)
	if err := z0.Free(extent.FromExtents(a)); err == nil {
		t.Fatal("freeing zone-1 frames into zone 0 should fail")
	}
}

func TestAllocScatteredFragmentation(t *testing.T) {
	z := newTestMem().Zone(0)
	l, err := z.AllocScattered(64, 16)
	if err != nil {
		t.Fatal(err)
	}
	if l.Pages() != 64 {
		t.Fatalf("pages = %d", l.Pages())
	}
	if l.Len() < 2 {
		t.Fatalf("scattered allocation should not be one extent, got %v", l)
	}
	// All pages distinct.
	seen := map[PFN]bool{}
	for _, e := range l.Extents() {
		for f := e.First; f < e.End(); f++ {
			if seen[f] {
				t.Fatalf("duplicate frame %#x", uint64(f))
			}
			seen[f] = true
		}
	}
	if err := z.Free(l); err != nil {
		t.Fatal(err)
	}
	if z.FreePages() != 4096 {
		t.Fatalf("free = %d after returning all", z.FreePages())
	}
}

func TestScatteredThenContigInterleave(t *testing.T) {
	z := newTestMem().Zone(0)
	s1, err := z.AllocScattered(100, 8)
	if err != nil {
		t.Fatal(err)
	}
	c, err := z.AllocContigAligned(200, 1)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := z.AllocScattered(100, 8)
	if err != nil {
		t.Fatal(err)
	}
	total := s1.Pages() + uint64(c.Count) + s2.Pages()
	if z.FreePages() != 4096-total {
		t.Fatalf("free = %d, want %d", z.FreePages(), 4096-total)
	}
}

func TestFrameContentsSharedAndSparse(t *testing.T) {
	m := newTestMem()
	z := m.Zone(0)
	a, _ := z.AllocContigAligned(4, 1)
	l := extent.FromExtents(a)

	// Reads before any write see zeros and do not materialize.
	buf := make([]byte, 100)
	if err := m.ReadAt(l, 50, buf); err != nil {
		t.Fatal(err)
	}
	for _, b := range buf {
		if b != 0 {
			t.Fatal("unwritten frame should read as zero")
		}
	}
	if m.Materialized(a.First) {
		t.Fatal("read should not materialize a frame")
	}

	// Writes crossing a page boundary round-trip.
	msg := []byte("cross-enclave zero-copy shared memory")
	if err := m.WriteAt(l, PageSize-10, msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if err := m.ReadAt(l, PageSize-10, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("round trip = %q", got)
	}
	if !m.Materialized(a.First) || !m.Materialized(a.First+1) {
		t.Fatal("write should materialize touched frames")
	}
	if m.Materialized(a.First + 3) {
		t.Fatal("untouched frame materialized")
	}
}

func TestAccessBeyondRegionFails(t *testing.T) {
	m := newTestMem()
	a, _ := m.Zone(0).AllocContigAligned(1, 1)
	l := extent.FromExtents(a)
	if err := m.WriteAt(l, PageSize-1, []byte{1, 2}); err == nil {
		t.Fatal("overflowing write should fail")
	}
	if err := m.ReadAt(l, 0, make([]byte, PageSize+1)); err == nil {
		t.Fatal("overflowing read should fail")
	}
	// An offset near the top of the range must not wrap past the check.
	if err := m.ReadAt(l, ^uint64(0)-1, make([]byte, 4)); err == nil {
		t.Fatal("read at a wrapping offset should fail")
	}
	if err := m.WriteAt(l, ^uint64(0)-1, []byte{1, 2, 3, 4}); err == nil {
		t.Fatal("write at a wrapping offset should fail")
	}
}

func TestSameFramesTwoViews(t *testing.T) {
	// The zero-copy property: two lists naming the same frames observe the
	// same bytes — this is what an XEMEM attachment ultimately relies on.
	m := newTestMem()
	a, _ := m.Zone(0).AllocContigAligned(8, 1)
	exporter := extent.FromExtents(a)
	attacher, err := exporter.Slice(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.WriteAt(exporter, 2*PageSize, []byte("hello enclave")); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 13)
	if err := m.ReadAt(attacher, 0, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello enclave" {
		t.Fatalf("attacher sees %q", got)
	}
}

func TestPinPreventsFree(t *testing.T) {
	m := newTestMem()
	z := m.Zone(0)
	a, _ := z.AllocContigAligned(4, 1)
	l := extent.FromExtents(a)
	m.Pin(l)
	if err := z.Free(l); err == nil {
		t.Fatal("freeing pinned frames should fail")
	}
	if err := m.Unpin(l); err != nil {
		t.Fatal(err)
	}
	if err := z.Free(l); err != nil {
		t.Fatalf("free after unpin: %v", err)
	}
}

func TestUnpinUnpinnedFails(t *testing.T) {
	m := newTestMem()
	a, _ := m.Zone(0).AllocContigAligned(1, 1)
	if err := m.Unpin(extent.FromExtents(a)); err == nil {
		t.Fatal("unpinning unpinned frame should fail")
	}
}

func TestPinNesting(t *testing.T) {
	m := newTestMem()
	a, _ := m.Zone(0).AllocContigAligned(1, 1)
	l := extent.FromExtents(a)
	m.Pin(l)
	m.Pin(l)
	if got := m.Pinned(a.First); got != 2 {
		t.Fatalf("pin count = %d", got)
	}
	if err := m.Unpin(l); err != nil {
		t.Fatal(err)
	}
	if err := m.Zone(0).Free(l); err == nil {
		t.Fatal("still pinned once; free should fail")
	}
}

func TestInvalidFramePanics(t *testing.T) {
	m := newTestMem()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on invalid frame")
		}
	}()
	m.Frame(1) // below the 0x100 base
}

// Property: any interleaving of allocs and frees conserves pages and never
// hands out overlapping extents.
func TestAllocatorConservationProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 100}
	err := quick.Check(func(ops []uint16) bool {
		m := NewPhysMem("prop", 8<<20)
		z := m.Zone(0)
		total := z.Pages()
		live := map[PFN]extent.List{}
		var liveKeys []PFN
		livePages := uint64(0)
		for _, op := range ops {
			switch op % 3 {
			case 0: // contig alloc
				n := uint64(op%128) + 1
				e, err := z.AllocContigAligned(n, 1)
				if err != nil {
					continue
				}
				l := extent.FromExtents(e)
				live[e.First] = l
				liveKeys = append(liveKeys, e.First)
				livePages += n
			case 1: // scattered alloc
				n := uint64(op%256) + 1
				l, err := z.AllocScattered(n, uint64(op%32)+1)
				if err != nil {
					continue
				}
				f := l.Extents()[0].First
				live[f] = l
				liveKeys = append(liveKeys, f)
				livePages += n
			case 2: // free one live allocation
				if len(liveKeys) == 0 {
					continue
				}
				k := liveKeys[int(op)%len(liveKeys)]
				l, ok := live[k]
				if !ok {
					continue
				}
				if err := z.Free(l); err != nil {
					return false
				}
				delete(live, k)
				livePages -= l.Pages()
			}
			if z.FreePages()+livePages != total {
				return false
			}
		}
		// All live frames must be distinct across allocations.
		seen := map[PFN]bool{}
		for _, l := range live {
			for _, e := range l.Extents() {
				for f := e.First; f < e.End(); f++ {
					if seen[f] {
						return false
					}
					seen[f] = true
				}
			}
		}
		return true
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
}

// TestAudit checks the allocator and pin invariants the world-end audit
// reports under "phys/<node>": they hold after allocations, frees and
// pins, and each mutation below fails naming the zone or pin it breaks.
func TestAudit(t *testing.T) {
	build := func() (*PhysMem, extent.List, *sim.World) {
		m := NewPhysMem("node0", 8<<20, 8<<20)
		z := m.Zone(1)
		a, err := z.AllocContigAligned(16, 1)
		if err != nil {
			t.Fatal(err)
		}
		l, err := z.AllocScattered(40, 4)
		if err != nil {
			t.Fatal(err)
		}
		m.Pin(l)
		if err := z.Free(extent.FromExtents(a)); err != nil {
			t.Fatal(err)
		}
		w := sim.NewWorld(1)
		w.AddAudit("phys/node0", m.Audit)
		return m, l, w
	}
	if _, _, w := build(); w.Audit() != nil {
		t.Fatalf("consistent memory failed its audit: %v", w.Audit())
	}
	for _, tc := range []struct {
		name   string
		mutate func(m *PhysMem, pinned extent.List)
		want   string
	}{
		{"dropped free extent", func(m *PhysMem, _ extent.List) { m.zones[1].free = m.zones[1].free[1:] }, "zone 1: free list holds"},
		{"overlapping extents", func(m *PhysMem, _ extent.List) { m.zones[1].free = append(m.zones[1].free, m.zones[1].free[0]) }, "zone 1: free extent"},
		{"extent past the zone", func(m *PhysMem, _ extent.List) { m.zones[0].free[0].Count++ }, "zone 0: free extent"},
		{"zero pin count", func(m *PhysMem, l extent.List) { m.pins[l.Extents()[0]] = 0 }, "pin count 0 on extent"},
	} {
		m, l, w := build()
		tc.mutate(m, l)
		if err := w.Audit(); err == nil || !strings.Contains(err.Error(), "audit phys/node0: "+tc.want) {
			t.Errorf("%s: audit = %v, want %q", tc.name, err, tc.want)
		}
	}
}
