package mem

import (
	"runtime"
	"testing"

	"xemem/internal/extent"
)

// TestFirstWriteAllocatesLittle: a node's first written frame takes a
// one-page slab, so a world that writes a control page per node pays a
// page of backing, not a full 256 KB slab.
func TestFirstWriteAllocatesLittle(t *testing.T) {
	m := newTestMem()
	a, _ := m.Zone(0).AllocContigAligned(1, 1)
	l := extent.FromExtents(a)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := m.WriteAt(l, 0, []byte{1}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 4*PageSize {
		t.Fatalf("a one-byte write allocated %d bytes, want at most %d", got, 4*PageSize)
	}
}

// TestBulkWriteKeepsSlabAmortization: once the slabs have grown to
// slabPages, a large write takes one host allocation per slabPages
// frames, as fixed slabs did; the seven growing slabs (1, 1, 2, ..., 32
// pages) stand in for the first full one, six allocations more. 32 MB
// stands in for a 1 GB materialization (4,102 slabs by the same rule)
// so the test holds 64 MB of host memory, not 2 GB.
func TestBulkWriteKeepsSlabAmortization(t *testing.T) {
	const pages = 8192
	buf := make([]byte, pages*PageSize)
	// Every fresh PhysMem of this geometry hands out the same frames.
	a, _ := NewPhysMem("node0", 64<<20).Zone(0).AllocContigAligned(pages, 1)
	l := extent.FromExtents(a)
	write := testing.AllocsPerRun(1, func() {
		if err := NewPhysMem("node0", 64<<20).WriteAt(l, 0, buf); err != nil {
			t.Fatal(err)
		}
	})
	// The same set-up, and a frames map grown to the same size, without
	// the slabs.
	rest := testing.AllocsPerRun(1, func() {
		m := NewPhysMem("node0", 64<<20)
		for i := uint64(0); i < a.Count; i++ {
			m.frames[a.First+PFN(i)] = buf
		}
	})
	if slabs, want := write-rest, float64(pages/slabPages+6); slabs > want {
		t.Fatalf("writing %d pages took %v slab allocations, want at most %v", pages, slabs, want)
	}
}

// TestFrameAppendLeavesNeighbourAlone: every frame's slice has a full
// cap, so an append through one frame reallocates instead of writing
// into the next frame carved from the same slab.
func TestFrameAppendLeavesNeighbourAlone(t *testing.T) {
	m := newTestMem()
	a, _ := m.Zone(0).AllocContigAligned(16, 1)
	for i := uint64(0); i+1 < a.Count; i++ {
		f := a.First + PFN(i)
		b := m.Frame(f)
		if cap(b) != PageSize {
			t.Fatalf("frame %#x has cap %d, want %d", uint64(f), cap(b), PageSize)
		}
		next := m.Frame(f + 1)
		_ = append(b, 0xff)
		if next[0] != 0 {
			t.Fatalf("appending to frame %#x changed frame %#x", uint64(f), uint64(f+1))
		}
	}
}
