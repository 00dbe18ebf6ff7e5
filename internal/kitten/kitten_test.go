package kitten_test

import (
	"slices"
	"testing"

	"xemem/internal/extent"
	"xemem/internal/kitten"
	"xemem/internal/mem"
	"xemem/internal/pagetable"
	"xemem/internal/sim"
)

func newKitten(t *testing.T) (*kitten.Kitten, *sim.World) {
	t.Helper()
	w := sim.NewWorld(1)
	pm := mem.NewPhysMem("node", 1<<30)
	return kitten.New("kitten0", w, pm, pm.Zone(0)), w
}

func TestStaticLayout(t *testing.T) {
	k, _ := newKitten(t)
	p, heap, err := k.NewProcess("app", 1024)
	if err != nil {
		t.Fatal(err)
	}
	// All three static regions fully mapped at creation (§4.3).
	names := map[string]bool{}
	for _, r := range p.AS.Regions() {
		names[r.Name] = true
		if r.Populated != r.Pages() {
			t.Errorf("region %q not fully populated (%d/%d)", r.Name, r.Populated, r.Pages())
		}
		if r.Lazy {
			t.Errorf("region %q lazy in a static address space", r.Name)
		}
	}
	for _, want := range []string{"text", "heap", "stack"} {
		if !names[want] {
			t.Errorf("missing region %q", want)
		}
	}
	if heap.Pages() != 1024 {
		t.Errorf("heap pages = %d", heap.Pages())
	}
	// The heap is physically contiguous (one extent).
	if heap.Backing.Len() != 1 {
		t.Errorf("heap not contiguous: %v", heap.Backing)
	}
	// Everything lives in top-level slot 0, leaving slots for SMARTMAP.
	for _, r := range p.AS.Regions() {
		if pagetable.SlotOf(r.Base) != 0 {
			t.Errorf("region %q outside slot 0", r.Name)
		}
	}
}

func TestLargeHeapAlignedForLargePages(t *testing.T) {
	k, _ := newKitten(t)
	_, heap, err := k.NewProcess("app", 2048)
	if err != nil {
		t.Fatal(err)
	}
	f := heap.Backing.Extents()[0].First
	if uint64(f)%512 != 0 {
		t.Errorf("large heap not 2MB-aligned: first frame %#x", uint64(f))
	}
}

func TestWalkForExportChargesPerPage(t *testing.T) {
	k, w := newKitten(t)
	p, heap, err := k.NewProcess("app", 512)
	if err != nil {
		t.Fatal(err)
	}
	costs := w.Costs()
	var elapsed sim.Time
	w.Spawn("serve", func(a *sim.Actor) {
		start := a.Now()
		list, err := k.WalkForExport(a, p.AS, heap.Base, 512)
		if err != nil {
			t.Error(err)
			return
		}
		elapsed = a.Now() - start
		if !slices.Equal(list.Extents(), heap.Backing.Extents()) {
			t.Errorf("walk = %v, want %v", list, heap.Backing)
		}
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if want := 512 * costs.WalkPerPage; elapsed != want {
		t.Errorf("walk charged %v, want %v", elapsed, want)
	}
}

func TestMapRemoteUsesHeapExtensionArea(t *testing.T) {
	k, w := newKitten(t)
	p, heap, err := k.NewProcess("app", 64)
	if err != nil {
		t.Fatal(err)
	}
	list := extent.FromExtents(extent.Extent{First: 0x200, Count: 16})
	w.Spawn("map", func(a *sim.Actor) {
		r, err := k.MapRemote(a, p, list, 3)
		if err != nil {
			t.Error(err)
			return
		}
		// The dynamic heap extension lands above the static layout and
		// never overlaps it.
		if r.Base <= heap.End() {
			t.Errorf("remote mapping at %#x inside static layout", uint64(r.Base))
		}
		if err := k.UnmapRemote(a, p, r); err != nil {
			t.Error(err)
		}
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestProcessExhaustsPartition(t *testing.T) {
	w := sim.NewWorld(1)
	pm := mem.NewPhysMem("node", 64<<20)
	k := kitten.New("tiny", w, pm, pm.Zone(0))
	// 64 MB partition cannot hold a 128 MB heap.
	if _, _, err := k.NewProcess("big", (128<<20)/4096); err == nil {
		t.Fatal("oversized process accepted")
	}
}
